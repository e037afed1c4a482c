"""Two-component momentum-space photon states and their basic operators.

Amplitudes are stored unnormalized (``g = sqrt(N) f``), in the gauge of the
attached polarization basis, as a snapshot at the reference instant; the
evolution phase ``exp(-i omega t)`` is carried in the ``time`` attribute and
applied analytically wherever it matters.  Baking a rapidly oscillating
phase into sampled data would wreck every finite-difference observable long
before ten optical periods, while the analytic bookkeeping keeps the
orbital/spin split conserved to rounding, as it is in the continuum.
A state and its basis change gauge together, only through `gauge_transform`.

The covariant derivative D is a k-space finite difference, valid only for
states that decay near the momentum boundary.  The photon picture's terms
i g* D_j g are made slab by slab (`_covariant_terms`), so that each slab is
reduced on the THREADS worker that made it.  Neither D nor `wavefunction`
checks it: the decay is measured by the beam factories
(`beams.bessel_beam`, `beams.gaussian_vortex`) and by the route that
reports a result from D (`observables.generators_photon_picture`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .grids import spectral_gradient_k, _gradient_k_axis, _nhat, _readonly

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


def wavefunction(grid, basis, gL, gR, time=0.0):
    """Canonicalize raw amplitude arrays into a PhotonWaveFunction.

    The excluded k=0 bin is zeroed (the invariant measure has no weight
    there).  A basis on another grid is refused; the decay of the state is
    not measured here.
    """
    grid.require_same(basis.grid, "the amplitudes and their polarization basis")
    gL = np.array(gL, dtype=complex)
    gR = np.array(gR, dtype=complex)
    if gL.shape != grid.dims or gR.shape != grid.dims:
        raise ValueError("amplitude shape does not match grid")
    gL[grid.excluded_index] = 0.0
    gR[grid.excluded_index] = 0.0
    return PhotonWaveFunction(gL=_readonly(gL), gR=_readonly(gR), grid=grid, basis=basis, time=float(time))



def scalar_product(wf1, wf2):
    """Lorentz-invariant product sum over dVk/(hbar omega) of g1* g2."""
    wf1.grid.require_same(wf2.grid, "the wavefunctions")
    integrand = np.conj(wf1.gL) * wf2.gL + np.conj(wf1.gR) * wf2.gR
    if wf1.time != wf2.time:
        # relative evolution phase between the two snapshots
        integrand = integrand * np.exp(-1j * wf1.grid.omega() * (wf2.time - wf1.time))
    return complex(np.sum(wf1.grid.w_invariant() * integrand))


def norm(wf):
    return float(np.sqrt(max(scalar_product(wf, wf).real, 0.0)))


def photon_number(wf):
    """Total photon number N = <g|g>; real and nonnegative."""
    return scalar_product(wf, wf).real


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
    phase = np.exp(-1j * wf.grid.omega() * wf.time)
    return replace(wf, gL=_readonly(wf.gL * phase), gR=_readonly(wf.gR * phase), time=0.0)


def gauge_transform(wf, phi):
    """Re-phase the chart of `wf` by the real field `phi`: the physical state, and every observable, stays.

    gL -> e^{i phi} gL, gR -> e^{-i phi} gR and e -> e^{-i phi} e, which adds
    `phi` to the basis's ``gauge_phase`` and carries its connection over.
    `phi` may be any smooth field on the momentum grid (no decay required).
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != wf.grid.dims:
        raise ValueError("phase field shape does not match grid")
    basis = wf.basis
    phase = np.array(phi) if basis.gauge_phase is None else basis.gauge_phase + phi
    up = np.exp(1j * phi)
    return replace(wf, gL=_readonly(up * wf.gL), gR=_readonly(np.conj(up) * wf.gR),
                   basis=replace(basis, gauge_phase=_readonly(phase)))


def _construction_gauge(wf, chi):
    """Amplitude `chi` with the accumulated chart phase removed."""
    g = wf.components[chi]
    basis = wf.basis
    return g if basis.gauge_phase is None else np.exp(-1j * chi * basis.gauge_phase) * g


def _connect(wf, chi, ghat, j, d, region=(slice(None),) * 3, scratch=None):
    """Turn ``d = d_j ghat`` into ``D_j ghat`` in place, in the construction gauge.

    Subtracts the connection term ``i chi alpha_j ghat``, built in the
    complex array `scratch` (allocated when None), and the analytic
    evolution-phase gradient ``i c t n_j ghat``.  `ghat` is the part on
    `region` (three slices of the grid axes) of a whole array; `d` and
    `scratch` have its shape.
    """
    scratch = np.multiply(1j * chi, wf.basis.connection()[j][region], out=scratch)
    scratch *= ghat
    d -= scratch
    if wf.time != 0.0:
        d -= (1j * wf.grid.units.c * wf.time) * _nhat(wf.grid, j, region) * ghat
    return d


def _covariant_axis(wf, chi, ghat, j, d):
    """``D_j g`` of helicity `chi` from ``d = d_j ghat``, in the current gauge of the basis.

    The one per-axis step shared by `covariant_derivative` and
    `covariant_derivative_axis`: connect in the construction gauge, then
    restore the accumulated chart phase.
    """
    d = _connect(wf, chi, ghat, j, d)
    basis = wf.basis
    return d if basis.gauge_phase is None else np.exp(1j * chi * basis.gauge_phase) * d


def covariant_derivative(wf):
    """Covariant k derivative D = grad_k - i chi alpha of both components.

    Evaluated in the construction gauge of the basis (any accumulated chart
    phase is removed before differencing and restored afterwards, which makes
    the operator exactly gauge covariant), with the evolution phase gradient
    ``-i c t n_k`` added analytically.  Valid for states that decay near the
    momentum boundary; that is measured where a state is built and reported.

    Returns a tuple of three wavefunctions, one per Cartesian k axis, at the
    same time as the input.  `covariant_derivative_axis` gives one axis for
    a third of the work.
    """
    grid = wf.grid
    out = [[None, None] for _ in range(3)]
    for slot, chi in enumerate(HELICITIES):
        ghat = _construction_gauge(wf, chi)
        grad = spectral_gradient_k(grid, ghat)
        for j in range(3):
            out[j][slot] = _covariant_axis(wf, chi, ghat, j, grad[j])
    return tuple(
        replace(wf, gL=_readonly(out[j][0]), gR=_readonly(out[j][1]))
        for j in range(3)
    )


def covariant_derivative_axis(wf, j):
    """Component `j` of `covariant_derivative`, equal to it bit for bit."""
    gL, gR = (_covariant_helicity(wf, chi, j) for chi in HELICITIES)
    return replace(wf, gL=_readonly(gL), gR=_readonly(gR))


def _covariant_helicity(wf, chi, j):
    """``D_j g`` of helicity `chi` alone: one of the two arrays of `covariant_derivative_axis`."""
    ghat = _construction_gauge(wf, chi)
    d = _gradient_k_axis(wf.grid, ghat, j, out=np.empty(wf.grid.dims, dtype=complex))
    return _covariant_axis(wf, chi, ghat, j, d)


def _covariant_terms(wf):
    """Yield ``(j, axis, term)`` for the six terms ``t = i g* D_j g``, one helicity and axis at a time.

    Same gauge and time handling as `covariant_derivative`; the re-phasing
    factor ``e^{i chi phase}`` of D g cancels against the one in g*, so
    ``i g* D_j g = i ghat* (D_j ghat)`` in the construction gauge.  The sum
    of the six terms is the density ``u_j = sum_chi i g* D_j g``.
    ``term(region)`` returns t on a slab region of grid `axis`
    (`grids._over_slabs`), in an array of its own: `axis` is one that the
    stencil along j does not read, so the slabs may run on the THREADS
    workers and each be reduced where it is made.
    """
    wf.basis.connection()       # derived here if need be, never on a worker
    for chi in HELICITIES:
        ghat = _construction_gauge(wf, chi)
        for j in range(3):
            yield j, (1 if j == 0 else 0), partial(_covariant_term, wf, chi, ghat, j)


def _covariant_term(wf, chi, ghat, j, region):
    """``i ghat* D_j ghat`` on `region`, in an array of the region's shape.

    One complex array of that shape more is scratch: the connection term
    and i ghat* are built there, one after the other.
    """
    g = ghat[region]
    scratch = np.empty(g.shape, dtype=complex)
    d = _gradient_k_axis(wf.grid, g, j, out=np.empty(g.shape, dtype=complex))
    d = _connect(wf, chi, g, j, d, region, scratch)
    np.multiply(1j, np.conjugate(g, out=scratch), out=scratch)
    d *= scratch
    return d
