"""Conversions between photon wavefunctions and real-space Maxwell fields.

The complex field ``F = sqrt(eps0/2) (E + i c B)`` packages both Maxwell
fields; free evolution is ``dF/dt = -i c curl F`` with ``div F = 0``.
Synthesis builds F from the plane-wave amplitudes E(k) of a state alone,
``F(k) = sqrt(eps0/2) [(E + R[E]) + i n x (E - R[E])]`` with the reflection
R[E](k) = conj(E(-k)): no basis vector and no folded buffer enter, and the
evolution phase e^{-i w t} is applied in the same pass.  Analysis inverts
it by projecting F(k) and R[F](k) onto the basis vectors e(k).

Every grid pass of the conversions runs in k_x slabs on the THREADS workers
(`grids._over_slabs`): the one pass each of synthesis, of analysis, which
projects the three spectra of F and sums their divergence, and of
`vector_potential`, which checks B and forms i k x B / |k|^2, with the
reflections read through reversed-index slices of the mirrored rows
(`grids._reflected`), and the E and B copies of F.  Between them run the
3-d transforms, themselves in slabs; so no whole-grid pass is left on the
calling thread, and every result is bit-identical for any THREADS.
`spectral_e_from_wavefunction` fills E(k) = (e gL + e* gR) / sqrt(2 eps0)
of the stored snapshot the same way and carries the state's time; the
routes that read it add time analytically or need none, and synthesis
applies the phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import photon_state
from .grids import (
    cross_component,
    forward_transform,
    inverse_transform,
    real_forward_transform,
    real_inverse_transform,
    _along,
    _at_origin,
    _in_region,
    _norm,
    _over_slabs,
    _readonly,
    _reflected,
)

#: simple-cubic lattice self-energy constant of the neutralizing background
WIGNER_SC = 2.837297479480619

#: accepted limits: relative divergence of F in analysis, of B (and of A in
#: the textbook split), k=0 component of B relative to its peak
TRANSVERSE_TOL, ZERO_MODE_TOL = 1e-6, 1e-12

#: k_x planes that analysis projects at a time: fewer calls per point than one, less scratch than a slab
_PROJECTION_PLANES = 4


@dataclass(frozen=True)
class RSField:
    """Complex field F = sqrt(eps0/2)(E + i c B) sampled on the real grid."""

    F: np.ndarray          # (3, nx, ny, nz) complex
    grid: object
    time: float = 0.0


@dataclass(frozen=True)
class RealVectorField:
    """Real 3-vector field with a role tag E, B or A."""

    values: np.ndarray     # (3, nx, ny, nz) real
    role: str
    grid: object
    time: float = 0.0


@dataclass(frozen=True)
class SpectralEField:
    """Plane-wave electric amplitudes E(k) on the momentum grid.

    Like a wavefunction, the values are a snapshot and `time` its state's
    time: the evolution phase e^{-i w t} is applied where it is needed.
    """

    values: np.ndarray     # (3, nx, ny, nz) complex
    grid: object
    time: float = 0.0


# ---------------------------------------------------------------------------
# spectral vector calculus

def spectral_curl(grid, field):
    """Curl of a real vector field via i k x V(k) on the half spectrum.

    Takes the real transform pair, with the numerator k of `derivative_kvec`;
    each component of i k x V(k) is built and inverse-transformed one at a
    time.  A complex field is refused (curl its real and imaginary parts).
    """
    if np.iscomplexobj(field):
        raise ValueError("spectral_curl takes a real field")
    Vk = np.empty((3,) + grid.half_dims, dtype=complex)
    for i in range(3):
        Vk[i] = real_forward_transform(grid, field[i])
    k = grid.derivative_kvec
    out = np.empty(field.shape)
    buf = np.empty(grid.half_dims, dtype=complex)
    for j in range(3):
        cross_component(k, Vk, j, out=buf)
        buf *= 1j
        out[j] = real_inverse_transform(grid, buf)
    return out


def _sum_squares(a):
    """sum |a|^2 of a complex array by `np.einsum`: BLAS's own threads would contend with the slab workers."""
    v = np.ascontiguousarray(a).reshape(-1).view(float)
    return float(np.einsum("i,i->", v, v))


def _divergence(grid, V, region, out):
    """Shares of `region` in ``|k.V|^2`` and ``| |k| V |^2`` from the three full spectra `V`; `out` as `_half_divergence`."""
    axes, parts = _in_region(grid.k_axes, region), [v[region] for v in V]
    kmag = _norm(axes)
    return (_sum_squares(_k_dot(axes, parts, *out)),
            sum(_sum_squares(np.multiply(kmag, v, out=out[1])) for v in parts))


def _k_dot(axes, parts, out, tmp):
    """k.V into `out`, from the three `parts` of V and the momenta `axes` of their region; `tmp` is scratch."""
    np.multiply(_along(axes[0], 0), parts[0], out=out)
    for i in (1, 2):
        out += np.multiply(_along(axes[i], i), parts[i], out=tmp)
    return out


def _half_divergence(grid, V, region, out):
    """Shares of `region` in ``|k.V|^2`` and ``| |k| V |^2`` over the full grid, from the three half spectra `V` of a real field.

    A half spectrum holds k_z >= 0, and each interior k_z plane also stands
    for the mirrored index, where V(-k) = conj V(k): there ``| |k| V |^2``
    counts twice, and ``|k_m.V|^2`` adds, with k_m the momenta of the
    mirrored index: -k, except that the k_x and k_y Nyquist bins map onto
    themselves.  `out`, two complex arrays of the region's shape, is the
    scratch.
    """
    axes = _in_region(grid.half_k_axes, region)
    mirror = _in_region([a[-np.arange(a.size)][:n] for a, n in zip(grid.k_axes, grid.half_dims)], region)
    parts = [v[region] for v in V]

    def interior(a):        # sum |a|^2 over the interior k_z planes
        return _sum_squares(a) - _sum_squares(a[..., 0]) - _sum_squares(a[..., -1])

    num2 = _sum_squares(_k_dot(axes, parts, *out)) + interior(_k_dot(mirror, parts, *out))
    kmag = _norm(axes)
    scaled = (np.multiply(kmag, v, out=out[1]) for v in parts)      # one at a time, in the same buffer
    return num2, sum(_sum_squares(a) + interior(a) for a in scaled)


def _ratio(num2, den2):
    """The relative divergence sqrt(num2 / den2) from its summed shares; 0 for a zero field, NaN for a NaN one."""
    return float(np.sqrt(num2 / den2)) if den2 else 0.0


# ---------------------------------------------------------------------------
# synthesis and analysis

def synthesize(state, t=0.0):
    """Assemble the complex Maxwell field of a photon state from its plane-wave amplitudes E(k).

    `state` is a `PhotonWaveFunction` or the `SpectralEField` of one (the
    snapshot's E(k), as a report holds it); `t` is added to its time.  The
    field is the Riemann-Silberstein vector of E(k):
    ``F(k) = sqrt(eps0/2) [(E + R[E]) + i n x (E - R[E])]`` with
    R[E](k) = conj(E(-k)) and E evolved by e^{-i w t} (Bialynicki-Birula,
    Prog. Opt. 36, 1996), so neither the basis nor a folded buffer enters.
    One k_x slab pass forms the three components of F(k), one k_x plane at
    a time from E and its mirrored rows (`grids._reflected`), and the
    inverse transform runs on them in place.  A state passed as a temporary
    is freed once its E(k) exists.
    """
    state = photon_state.evolve(state, t)
    grid, time = state.grid, state.time
    # the largest phase w t, in Python floats: an overflow gives inf, not a numpy warning
    if not math.isfinite(grid.units.c * math.hypot(*(float(abs(a).max()) for a in grid.k_axes)) * abs(time)):
        raise ValueError(f"synthesis time and its phase w t must be finite, got t = {time}")
    Ek = state if isinstance(state, SpectralEField) else spectral_e_from_wavefunction(state)
    state = None
    F = np.empty((3,) + grid.dims, dtype=complex)
    _over_slabs(grid, 0, partial(_field_rows, grid, Ek.values, F, time))
    Ek = None
    return RSField(F=_readonly(inverse_transform(grid, F, out=F)), grid=grid, time=time)


def _field_rows(grid, E, F, time, region):
    """Write F(k) of `synthesize` on the k_x slab `region` into `F`, from the whole E(k) `E` evolved to `time`.

    One k_x plane at a time, so a worker's scratch is a few planes: R[E]
    of the plane (R[E] e^{+i w t} once evolved, as w(-k) = w(k)) becomes
    E - R[E] in place, and ``i n x (E - R[E])`` is
    ``k x (i (E - R[E]) / |k|)``, one component at a time.  E vanishes at k = 0, and so does F there.
    The factor sqrt(eps0/2) rides on the phase, or scales the plane at t = 0.
    """
    s = np.sqrt(grid.units.eps0 / 2.0)
    D = np.empty((3, 1) + grid.dims[1:], dtype=complex)
    tmp = np.empty(D.shape[1:], dtype=complex)
    for x in range(*region[0].indices(grid.dims[0])):
        plane = (slice(x, x + 1), slice(None), slice(None))
        out = F[(slice(None),) + plane]
        axes = _in_region(grid.k_axes, plane)
        kmag = _norm(axes)
        _reflected(E, plane, D)
        if time:
            wt = kmag * grid.units.c          # w, then w t, rounded as `grids.GridPair.omega` * t
            wt *= time
            phase = np.empty(kmag.shape, dtype=complex)         # s e^{+i w t}, then s e^{-i w t}
            np.cos(wt, out=phase.real)
            np.sin(wt, out=phase.imag)
            phase *= s
            D *= phase
            np.negative(phase.imag, out=phase.imag)
        for i in range(3):
            E_i = np.multiply(E[i][plane], phase, out=tmp) if time else E[i][plane]
            np.add(E_i, D[i], out=out[i])
            np.subtract(E_i, D[i], out=D[i])
        if x == 0:
            kmag[0, 0, 0] = 1.0
        D *= 1j * np.reciprocal(kmag, out=kmag)
        k = [_along(a, ax) for ax, a in enumerate(axes)]
        for i in range(3):
            out[i] += cross_component(k, D, i, out=tmp)
        if not time:
            out *= s


def _scaled_part(rs, part, s):
    """``s part(F)`` of the complex field of `rs`, `part` np.real or np.imag, in k_x slabs on the THREADS workers."""
    out = np.empty(rs.F.shape)

    def fill(region):
        index = (slice(None),) + region
        np.multiply(s, part(rs.F[index]), out=out[index])

    _over_slabs(rs.grid, 0, fill)
    return _readonly(out)


def electric_field(rs):
    """E = sqrt(2/eps0) Re F."""
    return RealVectorField(values=_scaled_part(rs, np.real, np.sqrt(2.0 / rs.grid.units.eps0)),
                           role="E", grid=rs.grid, time=rs.time)


def magnetic_field(rs):
    """B = sqrt(2/eps0) Im F / c."""
    u = rs.grid.units
    return RealVectorField(values=_scaled_part(rs, np.imag, np.sqrt(2.0 / u.eps0) / u.c),
                           role="B", grid=rs.grid, time=rs.time)


def analyze(rs, basis):
    """Recover the photon wavefunction from the complex field F: the inverse of `synthesize`.

    Synthesis builds ``F(k) = e gL + R[e* gR]`` with R[.](k) = conj(.(-k)),
    so ``gL = e*.F(k)`` and ``gR = e.R[F](k)``, since e*(k).e(-k) = 0 off
    the Nyquist planes (on them -k aliases onto k, and the two mix).  Each
    component of F is transformed once, and a field passed as a temporary is
    freed once its spectra exist; one k_x slab pass over the three spectra
    (`_projection_rows`) projects them and sums the relative divergence of F:
    above TRANSVERSE_TOL, or NaN, the field has non-radiative content and is
    refused, as is a basis on another grid.
    The returned wavefunction has time 0 (any phase is baked into F).
    """
    grid = rs.grid
    grid.require_same(basis.grid, "the field and the polarization basis")
    Fk = [forward_transform(grid, rs.F[i]) for i in range(3)]
    rs = None
    gL, gR = np.empty(grid.dims, dtype=complex), np.empty(grid.dims, dtype=complex)
    residual = _ratio(*_over_slabs(grid, 0, partial(_projection_rows, grid, basis, Fk, gL, gR)))
    del Fk
    if not residual <= TRANSVERSE_TOL:
        raise ValueError(f"non-radiative field content: relative divergence {residual:.2e} "
                         f"exceeds {TRANSVERSE_TOL:.0e}")
    return photon_state._adopted(grid, basis, gL, gR)


def _projection_rows(grid, basis, F, gL, gR, region):
    """Write gL and gR of `analyze` on the k_x slab `region` from the three whole spectra `F`; return its divergence sums.

    A few k_x planes at a time: their slices of gL and gR are the scratch of
    their sums (`_divergence`) before ``gR = sum_i e_i R[F_i]`` and
    ``gL = sum_i e_i* F_i`` add up there in component order.
    """
    start, stop, _ = region[0].indices(grid.dims[0])
    scratch = np.empty((4, min(_PROJECTION_PLANES, stop - start)) + grid.dims[1:], dtype=complex)  # e(k), R[F_i]
    sums = np.zeros(2)
    for x in range(start, stop, _PROJECTION_PLANES):
        rows = (slice(x, min(x + _PROJECTION_PLANES, stop)), slice(None), slice(None))
        *e, reflected = scratch[:, :rows[0].stop - x]
        L, R = gL[rows], gR[rows]
        sums += _divergence(grid, F, rows, (L, R))
        L[...] = R[...] = 0.0
        basis._e_slab(rows, list(enumerate(e)))
        for i, e_i in enumerate(e):
            R += np.multiply(_reflected(F[i], rows, reflected), e_i, out=reflected)
            # F e*, into the buffer of e: F itself is read at the mirrored rows by the other slabs
            L += np.multiply(F[i][rows], np.conjugate(e_i, out=e_i), out=e_i)
    return sums


def spectral_e_from_wavefunction(wf):
    """E(k) of the state's stored snapshot, 0 at k = 0, filled in k_x slabs on the THREADS workers.

    The evolution phase e^{-i w t} is not applied, and the result carries
    the state's time: the photon picture adds time analytically (its K(t)),
    darwin's Jo and Js of a free field are the same at every t, so both
    read the snapshot, and `synthesize` applies the phase in its own pass.
    """
    grid = wf.grid
    Ek = np.empty((3,) + grid.dims, dtype=complex)

    def fill(region):
        _spectral_e_slab(wf, region, [(i, Ek[i][region]) for i in range(3)])

    _over_slabs(grid, 0, fill)
    Ek[(slice(None),) + grid.excluded_index] = 0.0
    return SpectralEField(values=_readonly(Ek), grid=grid, time=wf.time)


def _spectral_e_slab(wf, region, outs):
    """E_i = (e_i gL + e_i* gR) / sqrt(2 eps0) of the stored amplitudes of `wf` on `region`, written into `outs`.

    `outs` lists pairs ``(i, out)``, as `PolarizationBasis._e_slabs` takes
    them: the components come from one chart geometry per slab.
    """
    for _, out in wf.basis._e_slabs(region, outs):
        tmp = np.conjugate(out)
        out *= wf.gL[region]
        tmp *= wf.gR[region]
        out += tmp
        del tmp
        out *= 1.0 / np.sqrt(2.0 * wf.grid.units.eps0)


# ---------------------------------------------------------------------------
# potentials

def vector_potential(B):
    """Transverse-gauge vector potential with curl A = B, div A = 0.

    Spectral inversion ``A(k) = i k x B(k) / |k|^2``, the momentum-space form
    of the Coulomb-kernel convolution of curl B, on the half spectrum of the
    real transform pair: 3 forward real transforms and one inverse of the
    three components.  One k_x slab pass over the spectra of B sums each
    slab's share of the divergence check (`_half_divergence`) in its slab of
    A(k), takes its peak, and then forms i k x B / |k|^2 there; the checks
    run before A(k) is transformed back.  Requires B to be real, mean free
    (no uniform component) and spectrally divergence free; a NaN fails
    both checks.  A field passed as a temporary is freed once its spectra
    exist.
    """
    grid, time = B.grid, B.time
    if B.values.dtype.kind == "c":
        raise ValueError("B must be a real field")
    Bk = [real_forward_transform(grid, B.values[i]) for i in range(3)]
    B = None
    k = grid.derivative_kvec
    Ak = np.empty((3,) + grid.half_dims, dtype=complex)

    # a slab's peak comes back as a list of one, and the lists of the slabs concatenate
    def slab(region):
        A = [a[region] for a in Ak]
        num2, den2 = _half_divergence(grid, Bk, region, A[:2])
        peak = float(np.max([np.abs(b[region]).max() for b in Bk]))      # NaN, if any, wins
        k2 = _norm(_in_region(grid.half_k_axes, region))
        k2 *= k2
        at_zero = _at_origin(region)
        if at_zero:
            k2[0, 0, 0] = 1.0
        kr, Br = [a[region] for a in k], [b[region] for b in Bk]
        for j, part in enumerate(A):
            cross_component(kr, Br, j, out=part)
            part *= 1j
            part /= k2
            if at_zero:
                part[0, 0, 0] = 0.0
        return num2, den2, [peak]

    num2, den2, peaks = _over_slabs(grid, 0, slab)
    zero_mode = np.max([abs(b[grid.excluded_index]) for b in Bk])
    del Bk
    if not zero_mode <= ZERO_MODE_TOL * np.max(peaks):
        raise ValueError("zero-mode in B: uniform component has no transverse potential")
    residual = _ratio(num2, den2)
    if not residual <= TRANSVERSE_TOL:
        raise ValueError(f"B is not divergence free (relative residual {residual:.2e})")
    return RealVectorField(values=_readonly(real_inverse_transform(grid, Ak)), role="A", grid=grid, time=time)


# ---------------------------------------------------------------------------
# discrete Coulomb kernel check

def greens_function_check(grid):
    """Compare the inverse transform of 1/|k|^2 against the Coulomb kernel.

    On a periodic grid the excluded k=0 bin acts as a neutralizing
    background, so the discrete kernel equals ``1/(4 pi r)`` only up to the
    simple-cubic lattice constant ``-2.837297.../(4 pi L)``; the comparison
    removes that rigorously known offset and also reports the offset fitted
    from the data so the constant itself is verified.  The kernel is sampled
    8, 10 and 12 cells from the centre along x and 2 to 6 cells along the
    (1, 1, 1) diagonal.

    Returns a dict with per-sample relative mismatches (largest first is
    `max_rel_mismatch`) and the fitted/expected offsets.
    """
    if len(set(grid.dims)) != 1 or len(set(grid.spacing)) != 1:
        raise ValueError("the kernel check needs a cubic grid")
    n = grid.dims[0]
    if n // 2 + 12 >= n:
        raise ValueError(f"the kernel check samples 12 cells from the centre: grid size {n} < 26")
    dx = grid.spacing[0]
    L = n * dx
    kmag2 = grid.kmag() ** 2
    F = np.zeros(grid.dims)
    nz = kmag2 > 0
    F[nz] = 1.0 / kmag2[nz]
    G = inverse_transform(grid, F).real
    c0 = n // 2

    scale = (2.0 * np.pi) ** 1.5
    offset_expected = -scale * WIGNER_SC / (4.0 * np.pi * L)

    samples = []
    for m in (8, 10, 12):
        r = m * dx
        got = float(G[c0 + m, c0, c0])
        samples.append(("axis", m, r, got))
    for m in (2, 3, 4, 5, 6):
        r = np.sqrt(3.0) * m * dx
        got = float(G[c0 + m, c0 + m, c0 + m])
        samples.append(("diag", m, r, got))

    refs = np.array([scale / (4.0 * np.pi * r) for _, _, r, _ in samples])
    gots = np.array([g for _, _, _, g in samples])
    offset_fitted = float(np.mean(gots - refs))

    rows = []
    worst = 0.0
    for (kind, m, r, got), ref in zip(samples, refs):
        rel = (got - ref - offset_expected) / ref
        worst = max(worst, abs(rel))
        rows.append({
            "kind": kind, "cells": int(m), "r": float(r),
            "value": got, "reference": float(ref), "rel_mismatch": float(rel),
        })
    return {
        "samples": rows,
        "max_rel_mismatch": float(worst),
        "offset_fitted": offset_fitted,
        "offset_expected": float(offset_expected),
        "grid_n": n,
    }
