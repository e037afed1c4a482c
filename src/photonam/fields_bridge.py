"""Conversions between photon wavefunctions and real-space Maxwell fields.

The complex field ``F = sqrt(eps0/2) (E + i c B)`` packages both Maxwell
fields; free evolution is ``dF/dt = -i c curl F`` with ``div F = 0``.
Synthesis assembles F from helicity amplitudes, and analysis inverts it by
projecting F(k) and its reflection onto the basis vectors e(k).

`spectral_e_from_wavefunction` fills E(k) = (e gL + e* gR) / sqrt(2 eps0)
of the stored snapshot in k_x slabs on the THREADS workers; the routes that
read it add time analytically or need none.  `synthesize` bakes the
evolution phase e^{-i w t} (`photon_state.materialized`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import photon_state
from .grids import (
    cross_component,
    forward_transform,
    inverse_transform,
    real_forward_transform,
    real_inverse_transform,
    reflect_conjugate,
    _along,
    _norm,
    _over_slabs,
    _readonly,
)

#: simple-cubic lattice self-energy constant of the neutralizing background
WIGNER_SC = 2.837297479480619

#: accepted limits: relative divergence of F in analysis, of B (and of A in
#: the textbook split), k=0 component of B relative to its peak
TRANSVERSE_TOL, ZERO_MODE_TOL = 1e-6, 1e-12


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
    """Plane-wave electric amplitudes E(k) on the momentum grid."""

    values: np.ndarray     # (3, nx, ny, nz) complex
    grid: object


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


class _DivergenceSum:
    """Relative divergence ``|k.V(k)| / | |k| V(k) |`` from component spectra V_i(k), one at a time.

    Lets a stage that already holds the spectra measure the divergence
    without transforming the field again.  The spectra are full
    (`forward_transform`) or the half spectra of a real field
    (`real_forward_transform`), told apart by their shape; both give the
    ratio of the full grid.  A half spectrum holds k_z >= 0, and each
    interior k_z plane also stands for its mirror -k, where V(-k) = conj V(k):
    |k|^2 |V|^2 counts twice there, and so does |div|^2, except on the rows
    where k_x or k_y is the Nyquist bin.  That bin maps to itself, so there
    div(-k) != conj div(k); the mirror's |div|^2 is summed explicitly, with
    k read at the mirror index.
    """

    def __init__(self, grid):
        self.grid = grid
        self.div = None
        self.den2 = 0.0

    def _start(self, shape):
        grid = self.grid
        self.half = shape != grid.dims
        axes = grid.half_k_axes if self.half else grid.k_axes
        self.k = [_along(a, ax) for ax, a in enumerate(axes)]
        self.kmag = _norm(axes)
        self.div = np.zeros(shape, dtype=complex)
        if self.half:
            n0, n1 = grid.dims[:2]
            interior = slice(1, shape[2] - 1)
            # interior rows at the x Nyquist bin, then the other rows at the y Nyquist bin
            self.rows = ((n0 // 2, slice(None), interior),
                         (np.delete(np.arange(n0), n0 // 2), n1 // 2, interior))
            mirror = [np.broadcast_to(_along(a[-np.arange(a.size)][:n], ax), shape)
                      for ax, (a, n) in enumerate(zip(grid.k_axes, shape))]
            self.kmirror = [[m[idx] for m in mirror] for idx in self.rows]
            self.mirror = [np.zeros(self.div[idx].shape, dtype=complex) for idx in self.rows]

    def add(self, i, Vk):
        if self.div is None:
            self._start(Vk.shape)
        self.div += self.k[i] * Vk
        self.den2 += self._norm2(self.kmag * Vk)
        if self.half:
            for m, km, idx in zip(self.mirror, self.kmirror, self.rows):
                m += km[i] * Vk[idx]

    def _norm2(self, a):
        """sum |a|^2 over the full grid; a half spectrum counts its interior k_z planes twice."""
        total = np.linalg.norm(a) ** 2
        if self.half:
            total = 2.0 * total - np.linalg.norm(a[..., 0]) ** 2 - np.linalg.norm(a[..., -1]) ** 2
        return total

    def ratio(self):
        num2 = self._norm2(self.div)
        if self.half:
            for m, idx in zip(self.mirror, self.rows):
                num2 += np.linalg.norm(m) ** 2 - np.linalg.norm(self.div[idx]) ** 2
        return float(np.sqrt(num2 / self.den2)) if self.den2 > 0 else 0.0


# ---------------------------------------------------------------------------
# synthesis and analysis

def synthesize(wf, t=0.0):
    """Assemble the complex Maxwell field from helicity amplitudes.

    ``F(r, t) = (2 pi)^{-3/2} int d3k e(k) [gL e^{-i w t + i k.r}
    + gR* e^{+i w t - i k.r}]``; the negative-frequency term is folded onto
    the grid by the k -> -k reflection, so a single inverse transform per
    component suffices.  `t` is added to the wavefunction's own time, and
    `photon_state.materialized` bakes the evolution phase.  Works one
    spectral component at a time.
    """
    wf = photon_state.evolve(wf, t)
    if not np.isfinite(wf.time):
        raise ValueError(f"synthesis time must be finite, got {wf.time}")
    grid, basis, time = wf.grid, wf.basis, wf.time
    wf = photon_state.materialized(wf)
    F = np.empty((3,) + grid.dims, dtype=complex)
    e_i = np.empty(grid.dims, dtype=complex)
    for i in range(3):
        basis.e(i, out=e_i)
        # second term folded to +k: coefficient e(-k) conj(gR(-k) e^{-i w t})
        spectral = np.conjugate(e_i)
        spectral *= wf.gR
        spectral = reflect_conjugate(grid, spectral)
        e_i *= wf.gL
        spectral += e_i
        F[i] = inverse_transform(grid, spectral)
        del spectral
    del e_i
    return RSField(F=_readonly(F), grid=grid, time=time)


def electric_field(rs):
    """E = sqrt(2/eps0) Re F."""
    s = np.sqrt(2.0 / rs.grid.units.eps0)
    return RealVectorField(values=_readonly(s * rs.F.real), role="E", grid=rs.grid, time=rs.time)


def magnetic_field(rs):
    """B = sqrt(2/eps0) Im F / c."""
    u = rs.grid.units
    s = np.sqrt(2.0 / u.eps0) / u.c
    return RealVectorField(values=_readonly(s * rs.F.imag), role="B", grid=rs.grid, time=rs.time)


def analyze(rs, basis):
    """Recover the photon wavefunction from the complex field F: the inverse of `synthesize`.

    Synthesis builds ``F(k) = e gL + R[e* gR]`` with R = `reflect_conjugate`,
    so ``gL = e*.F(k)`` and ``gR = e.R[F](k)``, since e*(k).e(-k) = 0 off the
    Nyquist planes (on them -k aliases onto k, and the two mix).  Each
    component of F is transformed once, one at a time, and the same spectra
    measure the relative divergence of F: above TRANSVERSE_TOL the field has
    non-radiative content and is refused, as is a basis on another grid.  The
    returned wavefunction has time 0 (any phase is baked into F).
    """
    grid = rs.grid
    grid.require_same(basis.grid, "the field and the polarization basis")
    gL = np.zeros(grid.dims, dtype=complex)
    gR = np.zeros(grid.dims, dtype=complex)
    div = _DivergenceSum(grid)
    e_i = np.empty(grid.dims, dtype=complex)
    for i in range(3):
        Fk = forward_transform(grid, rs.F[i])
        div.add(i, Fk)
        basis.e(i, out=e_i)
        reflected = reflect_conjugate(grid, Fk)
        reflected *= e_i
        gR += reflected
        del reflected
        Fk *= np.conjugate(e_i, out=e_i)
        gL += Fk
        del Fk          # before the next component's transform is allocated
    del e_i
    residual = div.ratio()
    del div
    if residual > TRANSVERSE_TOL:
        raise ValueError(f"non-radiative field content: relative divergence {residual:.2e} "
                         f"exceeds {TRANSVERSE_TOL:.0e}")
    return photon_state.wavefunction(grid, basis, gL, gR)


def spectral_e_from_wavefunction(wf):
    """E(k) of the state's stored snapshot, 0 at k = 0, filled in k_x slabs on the THREADS workers.

    The evolution phase e^{-i w t} is not applied: the photon picture adds
    time analytically (its K(t)), and darwin's Jo and Js of a free field
    are the same at every t, so both read the snapshot.
    """
    grid = wf.grid
    Ek = np.empty((3,) + grid.dims, dtype=complex)

    def fill(region):
        for i in range(3):
            _spectral_e_slab(wf, i, region, Ek[i][region])

    _over_slabs(grid, 0, fill)
    Ek[(slice(None),) + grid.excluded_index] = 0.0
    return SpectralEField(values=_readonly(Ek), grid=grid)


def _spectral_e_slab(wf, i, region, out):
    """E_i = (e_i gL + e_i* gR) / sqrt(2 eps0) of the stored amplitudes of `wf` on `region`, written into `out`."""
    wf.basis._e_slab(i, region, out)
    tmp = np.conjugate(out)
    out *= wf.gL[region]
    tmp *= wf.gR[region]
    out += tmp
    out *= 1.0 / np.sqrt(2.0 * wf.grid.units.eps0)


# ---------------------------------------------------------------------------
# potentials

def vector_potential(B):
    """Transverse-gauge vector potential with curl A = B, div A = 0.

    Spectral inversion ``A(k) = i k x B(k) / |k|^2``, the momentum-space form
    of the Coulomb-kernel convolution of curl B, on the half spectrum of the
    real transform pair: 3 forward and 3 inverse real transforms, whose
    spectra of B also give the divergence check.  Requires B to be real,
    mean free (no uniform component) and spectrally divergence free.
    """
    grid = B.grid
    if B.values.dtype.kind == "c":
        raise ValueError("B must be a real field")
    Bk = np.empty((3,) + grid.half_dims, dtype=complex)
    div = _DivergenceSum(grid)
    for i in range(3):
        Bk[i] = real_forward_transform(grid, B.values[i])
        div.add(i, Bk[i])
    peak = max(np.abs(Bk[i]).max() for i in range(3))
    zero_mode = np.abs(Bk[(slice(None),) + grid.excluded_index]).max()
    if peak > 0 and zero_mode > ZERO_MODE_TOL * peak:
        raise ValueError("zero-mode in B: uniform component has no transverse potential")
    residual = div.ratio()
    del div
    if residual > TRANSVERSE_TOL:
        raise ValueError(f"B is not divergence free (relative residual {residual:.2e})")
    k2 = _norm(grid.half_k_axes)
    k2 *= k2
    k2[grid.excluded_index] = 1.0
    k = grid.derivative_kvec
    A = np.empty(B.values.shape)
    Ak = np.empty(grid.half_dims, dtype=complex)
    for j in range(3):
        cross_component(k, Bk, j, out=Ak)
        Ak *= 1j
        Ak /= k2
        Ak[grid.excluded_index] = 0.0
        A[j] = real_inverse_transform(grid, Ak)
    return RealVectorField(values=_readonly(A), role="A", grid=grid, time=B.time)


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
