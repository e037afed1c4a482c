"""The ten Poincare quantities and the orbital/spin split, in every route.

Field picture:   quadratic integrals of F over real space.
Photon picture:  expectation values over the invariant measure d3k/(hbar w),
                 with J split into the part perpendicular to k (orbital) and
                 the helicity part parallel to k (spin), gauge free.
Cross checks:    the k-space double-transform form acting on E(k) by finite
                 differences (darwin), the textbook real-space split with
                 the transverse-gauge A, and the nonlocal Coulomb-kernel
                 double integral for the spin.

Every route streams: no stage builds a (3, N) stack only to reduce it.
The field picture accumulates |F|^2, then forms V = Im(F* x F) one
component at a time.  The photon picture reduces each product
E_i* d_a E_i where it is made, one component and axis at a time, on E(k)
it fills one component at a time or on the whole E(k) that a report
builds once for it, darwin and the synthesis of F.  The darwin route
reduces one component of E at a time, from its stacked k gradient (the
one (3, N) stack left: `perfbench` counts the callers of
`spectral_gradient_k`), weighting it by w formed per slab; the textbook
route takes each derivative d_b A_i by a 1-d real transform pair along b
alone, one slab at a time, and reduces it there, so it makes no 3-d
transform; the nonlocal route convolves one component of curl B at a time
on the doubled grid, in O(M log M), so it runs at every grid size.  A sum
weighted by one coordinate r_a or k_a (P, J, the field K, and Jo on the
photon, darwin and textbook routes) is the 1-d profile of its integrand
weighted by that coordinate (`grids.moments`), never a grid-sized product.  Grid metadata (w, omega, n) is derived inside
each stage, n one component at a time.

The photon, darwin, field and textbook routes build, multiply and reduce
their integrands slab by slab on the THREADS workers (`grids._over_slabs`):
each worker returns the partial sums of its slab, with `moments` taken on
the slab's own axes, and the partials are added in slab order.  The slabs
depend on the grid alone, so results are bit-identical for any THREADS,
and equal those of a whole-array sum to rounding.  The nonlocal route
sums its last inverse transform with E the same way, per x slab.

Each route measures the decay its result needs once and reports it in its
diagnostics: the photon picture that of (gL, gR) in k and of its field in
r, the darwin route that of E(k), the field picture that of F in r.  A
margin above BOUNDARY_TOL also gives one `BoundaryDecayWarning`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .fields_bridge import TRANSVERSE_TOL, _ratio, _spectral_e_slab, spectral_curl
from .grids import (
    LEVI_CIVITA,
    check_boundary_decay,
    cross_component,
    moments,
    spectral_gradient_k,
    _along,
    _at_origin,
    _exact_gradient_k_axis,
    _in_region,
    _nhat,
    _over_slabs,
    _real_derivative_axis,
    _w_invariant,
    _warn_decay,
)


@dataclass(frozen=True)
class GeneratorSet:
    """Energy, momentum, angular momentum, moment of energy and photon number.

    `Jo`/`Js` are present only where the split is defined (photon picture and
    the k-space routes); `N` only where the invariant measure is available.
    """

    H: float
    P: np.ndarray
    J: np.ndarray
    K: np.ndarray
    N: float = None
    Jo: np.ndarray = None
    Js: np.ndarray = None
    diagnostics: dict = None


# ---------------------------------------------------------------------------
# field picture

def generators_field_picture(rs):
    """H, P, J, K as real-space integrals of the complex Maxwell field.

    ``H = int |F|^2``, ``P = (1/ic) int F* x F``, ``J = (1/ic) int r x (F* x F)``,
    ``K = int r |F|^2`` with r measured from the grid center.  The r-weighted
    moments need the field to decay near the grid boundary; that margin is
    ``diagnostics["boundary_margin_r"]``, and one above BOUNDARY_TOL warns
    (periodic content, such as a single plane wave, always does).
    """
    grid = rs.grid
    F = rs.F
    c = grid.units.c
    dV = grid.dV

    margin = check_boundary_decay(F, "field", "r")

    # per slab: H and K from |F|^2, then V = Im(F* x F) = 2 Re F x Im F, one component
    # at a time: P = V/c pointwise, and M[a, b] = sum r_a V_b gives J_j = eps_jab M[a, b] / c
    def sums(region):
        Fs = F[(slice(None),) + region]
        x = _in_region(grid.x_axes, region)
        dens = np.zeros(Fs.shape[1:])
        for j in range(3):
            dens += Fs[j].real ** 2 + Fs[j].imag ** 2
        H, K = np.sum(dens), moments(x, dens)
        P, M = np.empty(3), np.empty((3, 3))
        V = dens
        for b in range(3):
            cross_component(Fs.real, Fs.imag, b, out=V)
            V *= 2.0
            P[b] = np.sum(V)
            M[:, b] = moments(x, V)
        return H, K, P, M

    H, K, P, M = _over_slabs(grid, 0, sums)
    H = float(H * dV)
    K = K * dV
    P = P * dV / c
    J = np.einsum("jab,ab->j", LEVI_CIVITA, M) * dV / c
    return GeneratorSet(H=H, P=P, J=J, K=K, diagnostics={"boundary_margin_r": margin})


# ---------------------------------------------------------------------------
# photon picture

def generators_photon_picture(wf, Ek=None):
    """Expectation-value form of all ten quantities plus the Jo/Js split.

    ``H = <hbar w>``, ``P = <hbar k>``, ``Jo = <i hbar D x k>``,
    ``Js = <hbar chi n_k>``, ``K = <i hbar w D>`` over the invariant measure.
    Jo and K follow from the density ``u = sum_chi i g* D g``: the Jo
    integrand is ``u x k`` and the K integrand ``w u``.  With ``E = (e gL +
    e* gR) / sqrt(2 eps0)`` the cross-helicity terms vanish (e.d e = 0), so
    ``u_a = 2 eps0 i E*.d_a E`` needs no connection; d_a E is exact
    (`grids._exact_gradient_k_axis`), on E of the stored snapshot.  Time
    enters analytically: Jo is time-free (n x k = 0) and ``K(t) = K(0) +
    c^2 t P``.  The imaginary parts of the Jo and K expectations are
    reported as diagnostics, not silently dropped:
    ``imag_residual_Jo`` is ``|Im Jo| / max(|Jo|, |Js|)``, as in
    `darwin_split`, and ``imag_residual_K`` is ``|Im K| / (H L)``, with L
    the `box_length` of the grid.  ``diagnostics["boundary_margin"]`` is the
    decay of (gL, gR) at the k edge, against their joint peak, and
    ``boundary_margin_r`` the real-space decay the exact derivative needs,
    read off its inverse passes.  `Ek`, the `spectral_e_from_wavefunction`
    of `wf` if the caller holds it, is read instead of filling E(k) one
    component at a time; the values are the same, bit for bit.
    """
    grid = wf.grid
    if Ek is not None:
        grid.require_same(Ek.grid, "the wavefunction and its E(k)")
    margin = check_boundary_decay((wf.gL, wf.gR), "wavefunction", "k")
    hbar = grid.units.hbar
    w = grid.w_invariant()        # dVk / (hbar omega), zero at the excluded bin

    def densities(region):
        wr = w[region]
        absL2 = np.abs(wf.gL[region]) ** 2
        absR2 = np.abs(wf.gR[region]) ** 2
        dens = absL2 + absR2
        if _at_origin(region):
            dens[0, 0, 0] = 0.0     # the k=0 exclusion of the dVk quadrature
        N = np.sum(wr * dens)
        H = np.sum(grid.dVk * dens)
        dens *= wr
        P = moments(_in_region(grid.k_axes, region), dens)
        del dens
        absL2 -= absR2
        del absR2
        Js = np.array([np.sum(wr * _nhat(grid, j, region) * absL2) for j in range(3)])
        return N, H, P, Js

    N, H, P, Js = _over_slabs(grid, 0, densities)
    N, H = float(N), float(H)
    P = hbar * P
    Js = hbar * Js

    # S[a] = sum E_i* d_a E_i and M[a, b] = sum k_b w E_i* d_a E_i give sum w (u x k)_j =
    # 2 eps0 i eps_jab M[a, b] and K = 2 eps0 i dVk S (w omega = dVk / hbar; E = 0 at k = 0).
    # A slab forms conj(E* d_a E) in the array of d_a E, conjugated back once summed
    def reduce(a, region):
        d, edge, peak = _exact_gradient_k_axis(grid, E, a, region)
        planes[a].append((edge, peak))
        np.conjugate(d, out=d)
        d *= E[region]
        S_a = np.sum(d)
        d *= w[region]
        return S_a, moments(_in_region(grid.k_axes, region), d)

    E = np.empty(grid.dims, dtype=complex) if Ek is None else None
    planes = ([], [], [])
    S, M = np.zeros(3, dtype=complex), np.zeros((3, 3), dtype=complex)
    for i in range(3):
        if Ek is None:
            _over_slabs(grid, 0, lambda region: _spectral_e_slab(wf, region, [(i, E[region])]))
            E[grid.excluded_index] = 0.0
        else:
            E = Ek.values[i]
        for a in range(3):
            S_a, M_a = _over_slabs(grid, 1 if a == 0 else 0, partial(reduce, a))
            S[a] += S_a
            M[a] += M_a
    X = 2j * grid.units.eps0 * hbar * np.einsum("jab,ab->j", LEVI_CIVITA, np.conjugate(M))
    K = 2j * grid.units.eps0 * grid.dVk * np.conjugate(S)
    Jo = X.real
    # per axis, the largest edge of the three components' inverse passes against their joint peak
    margin_r = max(max(e for e, _ in p) / max(max(q for _, q in p), 1e-300) for p in planes)

    scale = max(float(np.linalg.norm(Jo)), float(np.linalg.norm(Js)), 1e-300)
    diagnostics = {
        "imag_residual_Jo": float(np.linalg.norm(X.imag)) / scale,
        "imag_residual_K": float(np.linalg.norm(K.imag)) / max(H * grid.box_length, 1e-300),
        "boundary_margin": margin,
        "boundary_margin_r": _warn_decay(float(margin_r), "the field of the wavefunction", "r"),
    }
    K = K.real + grid.units.c ** 2 * wf.time * P
    return GeneratorSet(H=H, P=P, J=Jo + Js, K=K, N=N, Jo=Jo, Js=Js, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# k-space double-transform route

def darwin_split(Ek):
    """Jo and Js from the plane-wave electric amplitudes alone.

    ``Jo = -2 i eps0 int d3k/(c|k|) E_i*(k) (k x grad_k) E_i(k)`` and
    ``Js = -2 i eps0 int d3k/(c|k|) E*(k) x E(k)``; both are manifestly real,
    the imaginary residuals are returned as diagnostics.  The spin part is
    algebraically identical to the helicity form, the orbital part differs
    from the photon picture by finite-difference error only.  Its
    ``diagnostics["boundary_margin"]`` is the decay of E(k) that grad_k needs.
    """
    grid = Ek.grid
    eps0 = grid.units.eps0
    E = Ek.values
    margin = check_boundary_decay(E, "E(k)", "k")

    def weight(region):
        """dVk / (c |k|) on the slab `region`, zero at k=0."""
        w2 = _w_invariant(grid, region)
        w2 *= grid.units.hbar
        return w2

    # E* x E is purely imaginary: Im(E* x E) = 2 Re E x Im E
    def spin(region):
        Es = E[(slice(None),) + region]
        w2 = weight(region)
        buf = np.empty(Es.shape[1:])
        part = np.empty(3)
        for j in range(3):
            cross_component(Es.real, Es.imag, j, out=buf)
            buf *= w2
            part[j] = np.sum(buf)
        return part

    Js = 4.0 * eps0 * _over_slabs(grid, 0, spin)

    # X_j = eps_jab M[a, b], M[a, b] = sum_i sum_k k_a conj(E_i) d_b E_i
    def orbital(region):
        Ts = T[(slice(None),) + region]
        wE = np.conjugate(E[i][region])
        Ts *= np.multiply(weight(region), wE, out=wE)
        k = _in_region(grid.k_axes, region)
        return np.stack([moments(k, Ts[b]) for b in range(3)], axis=1)

    M = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        T = spectral_gradient_k(grid, E[i])
        M += _over_slabs(grid, 0, orbital)
        del T           # before the next component's gradient is allocated
    X = np.einsum("jab,ab->j", LEVI_CIVITA, M)
    Jo = 2.0 * eps0 * X.imag

    scale = max(float(np.linalg.norm(Jo)), float(np.linalg.norm(Js)), 1e-300)
    diagnostics = {
        "imag_residual_Jo": float(np.linalg.norm(2.0 * eps0 * X.real)) / scale,
        "boundary_margin": margin,
    }
    return Jo, Js, diagnostics


# ---------------------------------------------------------------------------
# textbook real-space route

def textbook_split(E, A):
    """The familiar split ``Jo = eps0 int E_i (r x grad) A_i``, ``Js = eps0 int E x A``.

    Valid only with the transverse-gauge potential (div A = 0), which is
    exactly what `vector_potential` produces; any other gauge shifts both
    terms, and A whose relative divergence (`_textbook_moments`) exceeds
    TRANSVERSE_TOL, or is NaN, is refused.  ``Jo_j = eps0 eps_jab sum_i
    int r_a E_i d_b A_i`` reduces each product E_i d_b A_i to its
    coordinate moments; Js is summed per x slab.
    """
    grid = E.grid
    scale = grid.units.eps0 * grid.dV
    M, ratio = _textbook_moments(grid, E.values, A.values)
    if not ratio <= TRANSVERSE_TOL:
        raise ValueError("A is not transverse: the split requires div A = 0")
    Jo = scale * np.einsum("jab,ab->j", LEVI_CIVITA, M)

    def spin(region):
        Es, As = E.values[(slice(None),) + region], A.values[(slice(None),) + region]
        buf = np.empty(Es.shape[1:])
        part = np.empty(3)
        for j in range(3):
            part[j] = np.sum(cross_component(Es, As, j, out=buf))
        return part

    return Jo, scale * _over_slabs(grid, 0, spin)


def _textbook_moments(grid, E, A):
    """``(M, ratio)``: ``M[a, b] = sum_i sum_r r_a E_i d_b A_i``, and the relative divergence of A.

    Each d_b A_i is a 1-d spectral derivative along b
    (`grids._real_derivative_axis`), one pass per (i, b) in slabs of
    another axis, reduced where it is made: its square to |grad A|^2 and
    its product with E_i to moments.  The d_i A_i add up to div A in one
    real buffer, and ``ratio = |div A| / |grad A|``, the ratio
    `fields_bridge._divergence` takes of the spectra (by Parseval, up to
    the Nyquist bins, which the derivative zeroes); NaN for a NaN A.
    """
    div = np.zeros(grid.dims)

    def sums(i, b, region):
        d = _real_derivative_axis(grid, A[i], b, region)
        grad2 = np.einsum("ijk,ijk->", d, d)      # not np.vdot: BLAS threads contend with the workers
        if b == i:
            div[region] += d
        d *= E[i][region]
        return grad2, moments(_in_region(grid.x_axes, region), d)

    M = np.zeros((3, 3))
    grad2 = 0.0
    for i in range(3):
        for b in range(3):
            g2, M_b = _over_slabs(grid, 1 if b == 0 else 0, partial(sums, i, b))
            grad2 += g2
            M[:, b] += M_b
    return M, _ratio(float(np.vdot(div, div)), grad2)


# ---------------------------------------------------------------------------
# nonlocal double-integral route (spin only)

def _cell_self_weight(grid):
    """Integral of 1/(4 pi |r|) over one cell, midpoint rule on an 8^3 subgrid."""
    subs = []
    for d in grid.spacing:
        subs.append(((np.arange(8) + 0.5) / 8.0 - 0.5) * d)
    sx, sy, sz = np.meshgrid(*subs, indexing="ij")
    dist = np.sqrt(sx ** 2 + sy ** 2 + sz ** 2)
    return float(grid.dV / 512.0 * np.sum(1.0 / (4.0 * np.pi * dist)))


def _kernel_spectrum(grid):
    """Spectrum of the sampled Coulomb kernel on the grid doubled along every axis.

    The kernel dV/(4 pi |r|) is sampled at every lag -(n-1)..(n-1) of each
    axis, with `_cell_self_weight` at lag 0 and zero at the unused lag n, and
    laid out in wrap order.  It is even in each axis, so its spectrum is
    real: `hfft` transforms the sampled half (lags 0..n) one axis at a time.
    The last axis keeps the n+1 frequencies that `rfft` produces.
    """
    dims = grid.dims
    lags = [_along(np.arange(n + 1) * d, ax) for ax, (n, d) in enumerate(zip(dims, grid.spacing))]
    r = np.sqrt(lags[0] ** 2 + lags[1] ** 2 + lags[2] ** 2)
    r[0, 0, 0] = 1.0
    K = grid.dV / (4.0 * np.pi * r)
    K[0, 0, 0] = _cell_self_weight(grid)
    K[dims[0]] = K[:, dims[1]] = K[:, :, dims[2]] = 0.0
    K = np.fft.hfft(K, n=2 * dims[2], axis=2)[:, :, :dims[2] + 1]
    for ax in (1, 0):
        K = np.fft.hfft(K, n=2 * dims[ax], axis=ax)
    return K


def spin_nonlocal_real(E, B):
    """Spin part from the double integral of E x (curl' B)/(4 pi |r - r'|).

    The direct pair sum ``Js = eps0 dV sum_r E(r) x C(r)``, with
    ``C(r) = sum_r' K(r - r') curl B(r')`` and the Coulomb kernel
    ``K = dV/(4 pi |r|)`` sampled in real space, so no 1/k^2 enters; the
    singular self-cell carries its exact cell-averaged weight.  C is a linear
    convolution, taken exactly on the grid doubled along every axis
    (zero-padded circulant embedding, Hockney & Eastwood 1988) in O(M log M):
    one component of curl B at a time, padded one axis at a time on the way
    in and cropped one axis at a time on the way out.  The last inverse
    transform and the sums with E run in x slabs on the THREADS workers
    (`grids._over_slabs`), the transform cropped one x plane at a time, so
    no worker holds more of the doubled C than one plane.
    """
    grid = E.grid
    n0, n1, n2 = grid.dims
    Khat = _kernel_spectrum(grid)
    curlB = spectral_curl(grid, B.values)

    def pair_sums(X, region):
        """``sum_r E_a(r) C_b(r)`` for the three a over the x slab `region` of C, cropped one x plane at a time."""
        rows = region[0]
        C = np.empty((rows.stop - rows.start, n1, n2))
        for x in range(rows.start, rows.stop):
            C[x - rows.start] = np.fft.irfft(X[x, :n1], n=2 * n2, axis=1)[:, :n2]
        return np.array([np.sum(E.values[a][rows] * C) for a in range(3)])

    G = np.empty((3, 3))             # G[a, b] = sum_r E_a(r) C_b(r); Js_i = eps_iab G[a, b]
    for b in range(3):
        X = np.zeros(Khat.shape, dtype=complex)
        X[:n0, :n1] = np.fft.rfft(curlB[b], n=2 * n2, axis=2)
        np.fft.fft(X[:n0], axis=1, out=X[:n0])
        np.fft.fft(X, axis=0, out=X)
        X *= Khat
        np.fft.ifft(X, axis=0, out=X)
        np.fft.ifft(X[:n0], axis=1, out=X[:n0])
        G[:, b] = _over_slabs(grid, 0, lambda region: pair_sums(X, region))
        del X
    return grid.units.eps0 * grid.dV * np.einsum("iab,ab->i", LEVI_CIVITA, G)
