"""The ten Poincare quantities and the orbital/spin split, in every route.

Field picture:   quadratic integrals of F over real space.
Photon picture:  expectation values over the invariant measure d3k/(hbar w),
                 with J split into the part perpendicular to k (orbital) and
                 the helicity part parallel to k (spin).
Cross checks:    the k-space double-transform form acting on E(k), the
                 textbook real-space split with the transverse-gauge A, and
                 the nonlocal Coulomb-kernel double integral for the spin.

Reductions are plain numpy sums, each on one thread, so results do not
depend on the THREADS worker count of the check suites.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import photon_state
from .fields_bridge import relative_divergence, spectral_curl
from .grids import (
    BOUNDARY_TOL,
    BoundaryDecayError,
    BoundaryDecayWarning,
    boundary_margin,
    cross,
    forward_transform,
    inverse_transform,
    spectral_gradient_k,
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

    def validate(self, units, tol=1e-10):
        if self.H < -tol:
            raise ValueError("negative field energy")
        pmax = self.H / units.c
        if np.linalg.norm(self.P) > pmax * (1 + 1e-12) + tol:
            raise ValueError("momentum exceeds H/c")
        if self.Jo is not None and self.Js is not None and self.J is not None:
            resid = np.linalg.norm(self.Jo + self.Js - self.J)
            scale = max(np.linalg.norm(self.J), 1e-300)
            if resid > tol * max(scale, 1.0):
                raise ValueError("orbital and spin parts do not sum to J")
        return self


# ---------------------------------------------------------------------------
# field picture

def generators_field_picture(rs, include_moments=True, boundary="raise", tol=BOUNDARY_TOL):
    """H, P, J, K as real-space integrals of the complex Maxwell field.

    ``H = int |F|^2``, ``P = (1/ic) int F* x F``, ``J = (1/ic) int r x (F* x F)``,
    ``K = int r |F|^2`` with r measured from the grid center.  The r-weighted
    moments require the field to decay near the grid boundary (`boundary`:
    "raise", "warn" or "ignore"); for periodic content (single plane waves)
    pass ``include_moments=False``.
    """
    grid = rs.grid
    F = rs.F
    c = grid.units.c
    dV = grid.dV

    dens = np.einsum("i...,i...->...", np.conj(F), F).real
    H = float(np.sum(dens) * dV)

    # F* x F is purely imaginary; its imaginary part V gives P = V/c pointwise
    V = cross(np.conj(F), F).imag
    P = np.sum(V, axis=(1, 2, 3)) * dV / c

    J = K = None
    diagnostics = {}
    if include_moments:
        margin = boundary_margin(F, grid.boundary_mask_r)
        diagnostics["boundary_margin_r"] = margin
        if margin > tol and boundary != "ignore":
            msg = (f"field does not decay at the real-space boundary "
                   f"(edge magnitude {margin:.2e}); r-weighted moments unreliable")
            if boundary == "raise":
                raise BoundaryDecayError(msg)
            warnings.warn(msg, BoundaryDecayWarning, stacklevel=2)
        r = np.ix_(*grid.x_axes)
        J = np.sum(cross(r, V), axis=(1, 2, 3)) * dV / c
        K = np.array([np.sum(ri * dens) for ri in r]) * dV

    return GeneratorSet(H=H, P=P, J=J, K=K, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# photon picture

def generators_photon_picture(wf, boundary="warn", tol=BOUNDARY_TOL):
    """Expectation-value form of all ten quantities plus the Jo/Js split.

    ``H = <hbar w>``, ``P = <hbar k>``, ``Jo = <i hbar D x k>``,
    ``Js = <hbar chi n_k>``, ``K = <i hbar w D>`` over the invariant measure;
    imaginary parts of the discretized D expectations are reported as
    diagnostics, not silently dropped.
    """
    grid = wf.grid
    hbar = grid.units.hbar
    w = grid.w_invariant          # dVk / (hbar omega), zero at the excluded bin
    wk = grid.wk                  # dVk, zero at the excluded bin
    omega = grid.kfields.omega
    k = grid.kvec
    n = grid.kfields.nhat

    absL2 = np.abs(wf.gL) ** 2
    absR2 = np.abs(wf.gR) ** 2
    dens = absL2 + absR2

    N = float(np.sum(w * dens))
    H = float(np.sum(wk * dens))
    P = hbar * np.sum(w * k * dens, axis=(1, 2, 3))
    Js = hbar * np.sum(w * n * (absL2 - absR2), axis=(1, 2, 3))

    D = photon_state.covariant_derivative(wf, boundary=boundary, tol=tol)
    orb = np.zeros((3,) + grid.dims, dtype=complex)   # sum_chi g* i (Dg x k)
    kexp = np.zeros((3,) + grid.dims, dtype=complex)  # sum_chi g* i w Dg
    for chi in photon_state.HELICITIES:
        g = wf.components[chi]
        Dg = np.stack([D[j].components[chi] for j in range(3)])
        gc = np.conj(g)
        orb += gc * 1j * cross(Dg, k)
        kexp += gc * 1j * omega * Dg

    Jo = hbar * np.sum(w * orb.real, axis=(1, 2, 3))
    K = hbar * np.sum(w * kexp.real, axis=(1, 2, 3))

    scaleJ = max(float(np.abs(np.sum(w * np.abs(orb), axis=(1, 2, 3))).max()), 1e-300)
    scaleK = max(float(np.abs(np.sum(w * np.abs(kexp), axis=(1, 2, 3))).max()), 1e-300)
    dot_n = np.einsum("i...,i...->...", n, orb.real)
    mag = np.sqrt(np.einsum("i...,i...->...", orb.real, orb.real))
    orth_num = float(np.sum(w * np.abs(dot_n)))
    orth_den = max(float(np.sum(w * mag)), 1e-300)
    diagnostics = {
        "imag_residual_Jo": float(np.abs(hbar * np.sum(w * orb.imag, axis=(1, 2, 3))).max() / scaleJ),
        "imag_residual_K": float(np.abs(hbar * np.sum(w * kexp.imag, axis=(1, 2, 3))).max() / scaleK),
        "jo_orthogonality": orth_num / orth_den,
        "boundary_margin": max(boundary_margin(wf.gL, grid.boundary_mask_k),
                               boundary_margin(wf.gR, grid.boundary_mask_k)),
    }

    return GeneratorSet(H=H, P=P, J=Jo + Js, K=K, N=N, Jo=Jo, Js=Js, diagnostics=diagnostics)


def split_angular_momentum(wf, boundary="warn"):
    """(Jo, Js) of the state; shares the photon-picture implementation."""
    gen = generators_photon_picture(wf, boundary=boundary)
    return gen.Jo, gen.Js


# ---------------------------------------------------------------------------
# k-space double-transform route

def darwin_split(Ek, boundary="warn", tol=BOUNDARY_TOL):
    """Jo and Js from the plane-wave electric amplitudes alone.

    ``Jo = -2 i eps0 int d3k/(c|k|) E_i*(k) (k x grad_k) E_i(k)`` and
    ``Js = -2 i eps0 int d3k/(c|k|) E*(k) x E(k)``; both are manifestly real,
    the imaginary residuals are returned as diagnostics.  The spin part is
    algebraically identical to the helicity form, the orbital part differs
    from the photon picture by finite-difference error only.
    """
    grid = Ek.grid
    eps0 = grid.units.eps0
    w2 = grid.units.hbar * grid.w_invariant     # dVk / (c |k|), zero at k=0
    E = Ek.values

    V = cross(np.conj(E), E)                    # purely imaginary
    Js = 2.0 * eps0 * np.sum(w2 * V.imag, axis=(1, 2, 3))

    X = np.zeros((3,) + grid.dims, dtype=complex)
    for i in range(3):
        grad = spectral_gradient_k(grid, E[i], boundary=boundary, tol=tol)
        X += np.conj(E[i]) * cross(grid.kvec, grad)
    Jo = 2.0 * eps0 * np.sum(w2 * X.imag, axis=(1, 2, 3))

    scale = max(float(np.linalg.norm(Jo)), float(np.linalg.norm(Js)), 1e-300)
    diagnostics = {
        "imag_residual_Jo": float(np.linalg.norm(2.0 * eps0 * np.sum(w2 * X.real, axis=(1, 2, 3)))) / scale,
    }
    return Jo, Js, diagnostics


# ---------------------------------------------------------------------------
# textbook real-space route

def _real_space_gradient(grid, scalar):
    Fk = forward_transform(grid, scalar)
    return inverse_transform(grid, 1j * grid.kvec * Fk).real


def textbook_split(E, A, transverse_tol=1e-6):
    """The familiar split ``Jo = eps0 int E_i (r x grad) A_i``, ``Js = eps0 int E x A``.

    Valid only with the transverse-gauge potential (div A = 0), which is
    exactly what `vector_potential` produces; any other gauge shifts both
    terms.  Real-space derivatives are spectral.
    """
    grid = E.grid
    eps0 = grid.units.eps0
    dV = grid.dV
    if relative_divergence(grid, A.values) > transverse_tol:
        raise ValueError("A is not transverse: the split requires div A = 0")

    Js = eps0 * dV * np.sum(cross(E.values, A.values), axis=(1, 2, 3))

    r = np.ix_(*grid.x_axes)
    Jo = np.zeros(3)
    for i in range(3):
        g = _real_space_gradient(grid, A.values[i])
        Jo += eps0 * dV * np.sum(E.values[i] * cross(r, g), axis=(1, 2, 3))
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


def spin_nonlocal_real(E, B, max_dim=24, block=512):
    """Spin part from the double integral of E x (curl' B)/(4 pi |r - r'|).

    Direct O(M^2) pair sum over grid points (Coulomb kernel evaluated in real
    space, independent of every spectral route); guarded to small grids.
    The singular self-cell carries its exact cell-averaged kernel weight.
    """
    grid = E.grid
    if max(grid.dims) > max_dim:
        raise ValueError(
            f"grid {grid.dims} too large for the direct double integral "
            f"(cost guard at {max_dim}^3)")
    eps0 = grid.units.eps0
    dV = grid.dV

    curlB = spectral_curl(grid, B.values)
    x, y, z = np.meshgrid(*grid.x_axes, indexing="ij")
    X = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    S = curlB.reshape(3, -1).T          # (M, 3) source strengths
    M = X.shape[0]

    w_self = _cell_self_weight(grid)
    C = np.empty((M, 3))
    for start in range(0, M, block):
        stop = min(start + block, M)
        d = X[start:stop, None, :] - X[None, :, :]
        dist = np.sqrt(np.einsum("abi,abi->ab", d, d))
        np.fill_diagonal(dist[:, start:stop], np.inf)
        kernel = dV / (4.0 * np.pi * dist)
        kernel[np.arange(stop - start), np.arange(start, stop)] = w_self
        C[start:stop] = kernel @ S

    Eflat = E.values.reshape(3, -1).T
    integrand = np.cross(Eflat, C)      # (M, 3)
    return eps0 * dV * np.sum(integrand, axis=0)
