"""Poincare generators of free Maxwell fields and the orbital/spin split.

A spectral toolbox built around three representations of the same light
field: real-space Maxwell fields, the complex combination
F = sqrt(eps0/2)(E + i c B), and two momentum-space helicity amplitudes.
Energy, momentum, angular momentum and the moment of energy can be computed
in any picture; the angular momentum splits canonically into an orbital part
(k-space integrand perpendicular to k) and a helicity-weighted spin part,
with several independent routes for cross-validation.
"""

from .grids import (
    GridPair,
    UnitsConfig,
    forward_transform,
    inverse_transform,
    make_grid,
    spectral_gradient_k,
)
from .polarization import PolarizationBasis, berry_loop, build_basis, chart_basis, identity_residuals
from .photon_state import (
    PhotonWaveFunction,
    covariant_derivative,
    evolve,
    gauge_transform,
)
from .beams import BesselSpec, bessel_beam, bessel_ratio_oracle, gaussian_vortex
from .fields_bridge import (
    RSField,
    RealVectorField,
    SpectralEField,
    analyze,
    electric_field,
    greens_function_check,
    magnetic_field,
    spectral_curl,
    spectral_e_from_wavefunction,
    synthesize,
    vector_potential,
)
from .observables import (
    GeneratorSet,
    darwin_split,
    generators_field_picture,
    generators_photon_picture,
    spin_nonlocal_real,
    textbook_split,
)
from .algebra_checks import (
    CommutatorReport,
    OperatorTag,
    apply_generator,
    check_commutator,
    check_curvature,
    run_suite,
)

__version__ = "0.1.0"
