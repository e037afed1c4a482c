"""Two-component momentum-space photon states and their basic operators.

Amplitudes are stored unnormalized (``g = sqrt(N) f``), in the gauge of the
attached polarization basis, as a snapshot at the reference instant; the
evolution phase ``exp(-i omega t)`` is carried in the ``time`` attribute and
applied analytically wherever it matters.  Baking a rapidly oscillating
phase into sampled data would wreck every finite-difference observable long
before ten optical periods, while the analytic bookkeeping keeps the
orbital/spin split conserved to rounding, as it is in the continuum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grids import (
    BOUNDARY_TOL,
    check_boundary_decay,
    spectral_gradient_k,
    _readonly,
)

HELICITIES = (+1, -1)


@dataclass(frozen=True)
class PhotonWaveFunction:
    """Helicity amplitude pair (gL, gR) on the momentum grid."""

    gL: np.ndarray
    gR: np.ndarray
    grid: object
    basis: object
    time: float = 0.0

    @property
    def components(self):
        return {+1: self.gL, -1: self.gR}


def wavefunction(grid, basis, gL, gR, time=0.0, boundary_tol=BOUNDARY_TOL, warn=True):
    """Canonicalize raw amplitude arrays into a PhotonWaveFunction.

    The excluded k=0 bin is zeroed (the invariant measure has no weight
    there) and boundary decay is checked, warning once with a
    `BoundaryDecayWarning` by default.
    """
    gL = np.array(gL, dtype=complex)
    gR = np.array(gR, dtype=complex)
    if gL.shape != grid.dims or gR.shape != grid.dims:
        raise ValueError("amplitude shape does not match grid")
    gL[grid.excluded_index] = 0.0
    gR[grid.excluded_index] = 0.0
    wf = PhotonWaveFunction(gL=_readonly(gL), gR=_readonly(gR), grid=grid, basis=basis, time=float(time))
    if warn:
        check_boundary_decay(grid, (gL, gR), tol=boundary_tol, mode="warn", what="wavefunction")
    return wf


def _require_same_grid(wf1, wf2):
    if wf1.grid is not wf2.grid and not wf1.grid.same_as(wf2.grid):
        raise ValueError("wavefunctions live on different grids")


def scalar_product(wf1, wf2):
    """Lorentz-invariant product sum over dVk/(hbar omega) of g1* g2."""
    _require_same_grid(wf1, wf2)
    w = wf1.grid.w_invariant
    integrand = np.conj(wf1.gL) * wf2.gL + np.conj(wf1.gR) * wf2.gR
    if wf1.time != wf2.time:
        # relative evolution phase between the two snapshots
        integrand = integrand * np.exp(-1j * wf1.grid.kfields.omega * (wf2.time - wf1.time))
    return complex(np.sum(w * integrand))


def norm(wf):
    return float(np.sqrt(max(scalar_product(wf, wf).real, 0.0)))


def photon_number(wf):
    """Total photon number N = <g|g>; real and nonnegative."""
    return scalar_product(wf, wf).real


def apply_helicity(wf):
    """Helicity operator: +1 on the L component, -1 on the R component."""
    return replace(wf, gR=_readonly(-wf.gR))


def evolve(wf, t):
    """Advance by `t`: physically g -> exp(-i omega t) g.

    The phase is tracked analytically (see module docstring); synthesis and
    mixed-time products materialize it where it is actually needed.
    """
    return replace(wf, time=wf.time + float(t))


def materialized(wf):
    """Bake the evolution phase into the stored arrays (time reset to 0).

    Provided for interoperability; derivative-based observables computed from
    a materialized state suffer the full finite-difference phase error.
    """
    if wf.time == 0.0:
        return wf
    phase = np.exp(-1j * wf.grid.kfields.omega * wf.time)
    return replace(wf, gL=_readonly(phase * wf.gL), gR=_readonly(phase * wf.gR), time=0.0)


def gauge_transform_amplitudes(wf, phi, new_basis):
    """Companion of polarization.gauge_transform: gL -> e^{i phi} gL, gR -> e^{-i phi} gR.

    Together with the re-phased basis this leaves the physical field, and
    therefore every observable, unchanged.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != wf.grid.dims:
        raise ValueError("phase field shape does not match grid")
    up = np.exp(1j * phi)
    return replace(wf, gL=_readonly(up * wf.gL), gR=_readonly(np.conj(up) * wf.gR), basis=new_basis)


def covariant_derivative(wf, boundary="warn", tol=BOUNDARY_TOL):
    """Covariant k derivative D = grad_k - i chi alpha of both components.

    Evaluated in the construction gauge of the basis (any accumulated chart
    phase is removed before differencing and restored afterwards, which makes
    the operator exactly gauge covariant), with the evolution phase gradient
    ``-i c t n_k`` added analytically.

    Returns a tuple of three wavefunctions, one per Cartesian k axis, at the
    same time as the input.
    """
    grid, basis = wf.grid, wf.basis
    c = grid.units.c
    nhat = grid.kfields.nhat
    phase = basis.gauge_phase if basis.has_gauge_phase else None

    out = [[None, None] for _ in range(3)]
    for slot, chi in enumerate(HELICITIES):
        g = wf.components[chi]
        ghat = np.exp(-1j * chi * phase) * g if phase is not None else g
        check_boundary_decay(grid, ghat, tol=tol, mode=boundary, what="wavefunction")
        grad = spectral_gradient_k(grid, ghat, boundary="ignore")
        for j in range(3):
            d = grad[j] - 1j * chi * basis.alpha_base[j] * ghat
            if wf.time != 0.0:
                d = d - (1j * c * wf.time) * nhat[j] * ghat
            if phase is not None:
                d = np.exp(1j * chi * phase) * d
            out[j][slot] = d
    return tuple(
        replace(wf, gL=_readonly(out[j][0]), gR=_readonly(out[j][1]))
        for j in range(3)
    )
