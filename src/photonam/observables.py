"""The ten Poincare quantities and the orbital/spin split, in every route.

Field picture:   quadratic integrals of F over real space.
Photon picture:  expectation values over the invariant measure d3k/(hbar w),
                 with J split into the part perpendicular to k (orbital) and
                 the helicity part parallel to k (spin).
Cross checks:    the k-space double-transform form acting on E(k), the
                 textbook real-space split with the transverse-gauge A, and
                 the nonlocal Coulomb-kernel double integral for the spin.

Every route streams: no stage builds a (3, N) stack only to reduce it.
The field picture accumulates |F|^2, then forms V = Im(F* x F) one
component at a time.  The photon picture reduces each term
``i g_chi* D_a g_chi`` of the density ``u = sum_chi i g* D g`` as soon as it
is made, one helicity and axis at a time, in one reused buffer.  The darwin
route reduces one component of E at a time, from its stacked k gradient
(the one (3, N) stack left: `perfbench` counts the callers of
`spectral_gradient_k`, and this is one of them); the textbook route takes the
real transforms of the real fields: one forward transform per component
of A and one inverse transform per derivative d_b A_i; the nonlocal route
convolves one component of curl B at a time on the doubled grid, in
O(M log M), so it runs at every grid size.  A sum weighted by one
coordinate r_a or k_a (P, J, the field K, and Jo on the photon, darwin
and textbook routes) is the 1-d profile of its integrand weighted by that
coordinate (`grids.moments`), never a grid-sized product.  Grid metadata (w, omega, n) is derived inside
each stage, n one component at a time.  The transforms, e(k), the k
gradient and each term of the photon picture run on the THREADS workers
(`grids._map_threads`), each worker filling its own slice of an array made
on the calling thread; every reduction is a plain numpy sum over a whole
array on the calling thread, in a fixed order, so results are bit-identical
for any THREADS.

Each route measures the decay its result needs once and reports it in its
diagnostics: the photon picture that of (gL, gR) and the darwin route that
of E(k), each against one shared peak, the field picture the real-space
decay; a margin above BOUNDARY_TOL also gives one `BoundaryDecayWarning`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import photon_state
from .fields_bridge import TRANSVERSE_TOL, _DivergenceSum, spectral_curl
from .grids import (
    BOUNDARY_TOL,
    BoundaryDecayWarning,
    LEVI_CIVITA,
    boundary_margin,
    check_boundary_decay,
    cross_component,
    moments,
    real_forward_transform,
    real_inverse_transform,
    spectral_gradient_k,
    _along,
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

    margin = boundary_margin(F, grid.boundary_mask_r())
    if margin > BOUNDARY_TOL:
        warnings.warn(f"field does not decay at the real-space boundary "
                      f"(edge magnitude {margin:.2e}); r-weighted moments unreliable",
                      BoundaryDecayWarning, stacklevel=2)

    dens = np.zeros(grid.dims)
    for j in range(3):
        dens += F[j].real ** 2 + F[j].imag ** 2
    H = float(np.sum(dens) * dV)
    K = moments(grid.x_axes, dens) * dV
    del dens

    # V = Im(F* x F) = 2 Re F x Im F, one component at a time: P = V/c pointwise,
    # and M[a, b] = sum r_a V_b gives J_j = eps_jab M[a, b] / c
    P = np.empty(3)
    M = np.empty((3, 3))
    V = np.empty(grid.dims)
    for b in range(3):
        cross_component(F.real, F.imag, b, out=V)
        V *= 2.0
        P[b] = np.sum(V)
        M[:, b] = moments(grid.x_axes, V)
    del V
    P = P * dV / c
    J = np.einsum("jab,ab->j", LEVI_CIVITA, M) * dV / c
    return GeneratorSet(H=H, P=P, J=J, K=K, diagnostics={"boundary_margin_r": margin})


# ---------------------------------------------------------------------------
# photon picture

def generators_photon_picture(wf):
    """Expectation-value form of all ten quantities plus the Jo/Js split.

    ``H = <hbar w>``, ``P = <hbar k>``, ``Jo = <i hbar D x k>``,
    ``Js = <hbar chi n_k>``, ``K = <i hbar w D>`` over the invariant measure.
    Jo and K follow from the density ``u = sum_chi i g* D g``: the Jo
    integrand is ``u x k`` and the K integrand ``w u``, and each term of u is
    reduced as soon as it is made.  The imaginary parts of the discretized D
    expectations are reported as diagnostics, not silently dropped:
    ``imag_residual_Jo`` is ``|Im Jo| / max(|Jo|, |Js|)``, as in
    `darwin_split`, and ``imag_residual_K`` is ``|Im K| / (H L)``, with L
    the `box_length` of the grid.  ``diagnostics["boundary_margin"]`` is the
    decay of (gL, gR) that D needs, measured once against their joint peak.
    """
    wf.basis.connection()       # a connection derived here never stacks on this route's arrays
    grid = wf.grid
    margin = check_boundary_decay(grid, (wf.gL, wf.gR), "wavefunction")
    hbar = grid.units.hbar
    w = grid.w_invariant()        # dVk / (hbar omega), zero at the excluded bin

    absL2 = np.abs(wf.gL) ** 2
    absR2 = np.abs(wf.gR) ** 2
    dens = absL2 + absR2
    dens[grid.excluded_index] = 0.0     # the k=0 exclusion of the dVk quadrature

    N = float(np.sum(w * dens))
    H = float(np.sum(grid.dVk * dens))
    dens *= w
    P = hbar * moments(grid.k_axes, dens)
    del dens
    absL2 -= absR2
    del absR2
    Js = hbar * np.array([np.sum(w * grid.nhat(j) * absL2) for j in range(3)])
    del absL2

    # M[a, b] = sum k_b w u_a, so that sum w (u x k)_j = eps_jab M[a, b];
    # w omega = dVk / hbar wherever w != 0, so K = dVk sum u off the excluded bin
    M = np.zeros((3, 3), dtype=complex)
    K = np.zeros(3, dtype=complex)
    for a, t in photon_state._covariant_terms(wf):
        t[grid.excluded_index] = 0.0
        K[a] += np.sum(t)
        t *= w
        M[a] += moments(grid.k_axes, t)
    X = hbar * np.einsum("jab,ab->j", LEVI_CIVITA, M)
    K *= grid.dVk
    Jo = X.real

    scale = max(float(np.linalg.norm(Jo)), float(np.linalg.norm(Js)), 1e-300)
    diagnostics = {
        "imag_residual_Jo": float(np.linalg.norm(X.imag)) / scale,
        "imag_residual_K": float(np.linalg.norm(K.imag)) / max(H * grid.box_length, 1e-300),
        "boundary_margin": margin,
    }
    return GeneratorSet(H=H, P=P, J=Jo + Js, K=K.real, N=N, Jo=Jo, Js=Js, diagnostics=diagnostics)


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
    margin = check_boundary_decay(grid, E, "E(k)")
    w2 = grid.w_invariant()                     # dVk / (c |k|), zero at k=0
    w2 *= grid.units.hbar

    # E* x E is purely imaginary: Im(E* x E) = 2 Re E x Im E
    Js = np.zeros(3)
    buf = np.empty(grid.dims)
    for j in range(3):
        cross_component(E.real, E.imag, j, out=buf)
        buf *= w2
        Js[j] = 4.0 * eps0 * np.sum(buf)
    del buf

    # X_j = eps_jab M[a, b], M[a, b] = sum_i sum_k k_a conj(E_i) d_b E_i
    M = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        T = spectral_gradient_k(grid, E[i])
        T *= w2 * np.conj(E[i])
        for b in range(3):
            M[:, b] += moments(grid.k_axes, T[b])
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
    terms.  Real-space derivatives are spectral, on the real transform pair:
    each component of A is transformed once, for its gradient and for the
    divergence check, and each derivative takes one inverse transform.
    ``Jo_j = eps0 eps_jab sum_i int r_a E_i d_b A_i`` reduces each product
    E_i d_b A_i to its coordinate moments.
    """
    grid = E.grid
    eps0 = grid.units.eps0
    dV = grid.dV

    k = grid.derivative_kvec
    M = np.zeros((3, 3))            # M[a, b] = sum_i sum_r r_a E_i d_b A_i
    div = _DivergenceSum(grid)
    for i in range(3):
        Ak = real_forward_transform(grid, A.values[i])
        div.add(i, Ak)
        Ak *= 1j
        for b in range(3):
            g = real_inverse_transform(grid, k[b] * Ak)
            g *= E.values[i]
            M[:, b] += moments(grid.x_axes, g)
            del g       # before the next derivative is allocated
        del Ak
    if div.ratio() > TRANSVERSE_TOL:
        raise ValueError("A is not transverse: the split requires div A = 0")
    Jo = eps0 * dV * np.einsum("jab,ab->j", LEVI_CIVITA, M)

    Js = np.array([eps0 * dV * np.sum(cross_component(E.values, A.values, j)) for j in range(3)])
    return Jo, Js


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
    in and cropped one axis at a time on the way out.
    """
    grid = E.grid
    n0, n1, n2 = grid.dims
    Khat = _kernel_spectrum(grid)
    curlB = spectral_curl(grid, B.values)

    G = np.empty((3, 3))             # G[a, b] = sum_r E_a(r) C_b(r); Js_i = eps_iab G[a, b]
    for b in range(3):
        X = np.zeros(Khat.shape, dtype=complex)
        X[:n0, :n1] = np.fft.rfft(curlB[b], n=2 * n2, axis=2)
        np.fft.fft(X[:n0], axis=1, out=X[:n0])
        np.fft.fft(X, axis=0, out=X)
        X *= Khat
        np.fft.ifft(X, axis=0, out=X)
        np.fft.ifft(X[:n0], axis=1, out=X[:n0])
        C = np.fft.irfft(X[:n0, :n1], n=2 * n2, axis=2)[:, :, :n2]
        del X
        for a in range(3):
            G[a, b] = np.sum(E.values[a] * C)
        del C
    return grid.units.eps0 * grid.dV * np.einsum("iab,ab->i", LEVI_CIVITA, G)
