"""Two-component momentum-space photon states and their basic operators.

Amplitudes are stored unnormalized (``g = sqrt(N) f``), in the gauge of the
attached polarization basis, as a snapshot at the reference instant; the
evolution phase ``exp(-i omega t)`` is carried in the ``time`` attribute and
applied analytically wherever it matters.  Baking a rapidly oscillating
phase into sampled data would wreck every finite-difference observable long
before ten optical periods, while the analytic bookkeeping keeps the
orbital/spin split conserved to rounding, as it is in the continuum.
A state and its basis change gauge together, only through `gauge_transform`.

The covariant derivative D = grad_k - i chi alpha is a k-space finite
difference through the connection alpha of the basis, valid only for states
that decay near the momentum boundary.  Only `check algebra` reads it (its
generators and commutators, `algebra_checks`); no reported route does: the
photon picture takes its Jo and K from E(k) with an exact k derivative and
needs no connection (`observables.generators_photon_picture`).  Neither D
nor `_adopted`, which makes a state of its arrays, checks the decay: the
beam factories (`beams.bessel_beam`, `beams.gaussian_vortex`) measure it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grids import spectral_gradient_k, _gradient_k_axis, _nhat, _readonly, _w_invariant, _WHOLE

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


def _adopted(grid, basis, gL, gR, time=0.0):
    """The state of `gL` and `gR`, complex grid arrays just built or read and held nowhere else; no copy is made.

    The k=0 bin is zeroed (the invariant measure has no weight there) and
    the arrays are made read-only.  The decay of the state is not measured.
    """
    for g in (gL, gR):
        g[grid.excluded_index] = 0.0
    return PhotonWaveFunction(gL=_readonly(gL), gR=_readonly(gR), grid=grid, basis=basis, time=float(time))


def _photons_on(grid, gL, gR, region):
    """The share of `region`, three slices of the grid axes, in the photon number ``N = sum w (|gL|^2 + |gR|^2)``.

    `gL` and `gR` are the region's slabs of the amplitudes, and w the
    invariant weight dVk / (hbar omega), 0 at k = 0.  A factory sums the
    shares of its slabs (`grids._over_slabs`) as it fills them.
    """
    integrand = np.conjugate(gL)
    integrand *= gL
    part = np.conjugate(gR)
    part *= gR
    integrand += part
    del part
    integrand *= _w_invariant(grid, region)
    return float(np.sum(integrand).real)


def evolve(state, t):
    """Advance by `t`: physically g -> exp(-i omega t) g.

    `state` is a wavefunction or its E(k) (`fields_bridge.SpectralEField`),
    whose amplitudes evolve alike.  The phase is tracked analytically (see
    module docstring); synthesis applies it where it is actually needed.
    """
    return replace(state, time=state.time + float(t))


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


def _construction_gauge(wf, chi, g, region=_WHOLE):
    """`g`, an amplitude of helicity `chi` of `wf` on `region`, with the accumulated chart phase removed.

    `region` is three slices of the grid axes (`grids._over_slabs`); by
    default the whole grid.
    """
    phase = wf.basis.gauge_phase
    return g if phase is None else np.exp(-1j * chi * phase[region]) * g


def _covariant_axis(wf, chi, ghat, j, d, region=_WHOLE):
    """``D_j g`` of helicity `chi` on `region` from ``d = d_j ghat`` there, in the current gauge of the basis.

    The one per-axis step shared by `covariant_derivative` and
    `_covariant_helicity`: in the construction gauge, subtract the
    connection term ``i chi alpha_j ghat`` and the analytic evolution-phase
    gradient ``i c t n_j ghat`` from d in place, in one step, then restore
    the accumulated chart phase.
    """
    rate = wf.basis.connection()[j][region]
    if wf.time != 0.0:
        # i (chi alpha + c t n) = i chi (alpha + chi c t n), as chi^2 = 1
        n = _nhat(wf.grid, j, region)
        n *= chi * wf.grid.units.c * wf.time
        rate = np.add(n, rate, out=n)
    _subtract_i_times(d, ghat, rate, chi)
    phase = wf.basis.gauge_phase
    if phase is not None:
        d *= np.exp(1j * chi * phase[region])
    return d


def _subtract_i_times(d, ghat, rate, sign=1.0):
    """``d -= i sign rate ghat`` for a real field `rate` and a sign of 1 or -1, in place.

    -i s r (a + i b) = s r b - i s r a is made on the real and imaginary
    parts of d through one real temporary of d's shape: a slab block in
    ``check algebra`` (`grids._over_slabs`), a whole array in the stacked
    `covariant_derivative`.
    """
    real, imag = d.real, d.imag
    part = np.multiply(rate, ghat.imag)
    part *= sign
    real += part
    np.multiply(rate, ghat.real, out=part)
    part *= sign
    imag -= part


def covariant_derivative(wf):
    """Covariant k derivative D = grad_k - i chi alpha of both components.

    Evaluated in the construction gauge of the basis (any accumulated chart
    phase is removed before differencing and restored afterwards, which makes
    the operator exactly gauge covariant), with the evolution phase gradient
    ``-i c t n_k`` added analytically.  Valid for states that decay near the
    momentum boundary; that is measured where a state is built and reported.

    Returns a tuple of three wavefunctions, one per Cartesian k axis, at the
    same time as the input.  `_covariant_helicity` gives one axis of one
    helicity, on a region, equal to it bit for bit.
    """
    out = []
    for chi, g in wf.components.items():
        ghat = _construction_gauge(wf, chi, g)
        grad = spectral_gradient_k(wf.grid, ghat)
        out.append([_covariant_axis(wf, chi, ghat, j, grad[j]) for j in range(3)])
    return tuple(replace(wf, gL=_readonly(gL), gR=_readonly(gR)) for gL, gR in zip(*out))


def _covariant_helicity(wf, chi, j, g, region):
    """``D_j g`` of helicity `chi` alone on `region`; of the state's own amplitude, ``covariant_derivative(wf)[j]`` there, bit for bit.

    `g` is an amplitude of that helicity on `region` (three slices of the
    grid axes, which must span all of axis `j`: the stencil reads along
    it), in the gauge and at the time of `wf`.
    """
    ghat = _construction_gauge(wf, chi, g, region)
    d = _gradient_k_axis(wf.grid, ghat, j, out=np.empty(ghat.shape, dtype=complex))
    return _covariant_axis(wf, chi, ghat, j, d, region)
