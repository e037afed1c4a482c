"""Matched real/momentum Cartesian grids and the symmetric spectral transform.

Conventions used throughout the package:

* real-space samples sit at ``x_j = (j - n/2) dx`` (origin at the grid
  center), momentum samples at the signed FFT frequencies
  ``k_m = 2 pi m / (n dx)`` stored in standard FFT ordering;
* the transform pair is symmetric,
  ``f(r) = (2 pi)^{-3/2} sum_k F(k) e^{i k.r} dVk`` and
  ``F(k) = (2 pi)^{-3/2} sum_r f(r) e^{-i k.r} dV``;
* the ``k = 0`` bin carries zero quadrature weight because the invariant
  measure ``d3k / omega`` is singular there; fields are required to vanish
  on that bin.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi
ROOT_2PI_CUBED = TWO_PI ** 1.5

#: default relative decay required within two cells of the momentum boundary
BOUNDARY_TOL = 1e-8


class BoundaryDecayError(ValueError):
    """Raised when an array does not decay at a grid boundary."""


class BoundaryDecayWarning(UserWarning):
    pass


#: Levi-Civita symbol eps_ijl
LEVI_CIVITA = np.zeros((3, 3, 3))
LEVI_CIVITA[0, 1, 2] = LEVI_CIVITA[1, 2, 0] = LEVI_CIVITA[2, 0, 1] = 1.0
LEVI_CIVITA[0, 2, 1] = LEVI_CIVITA[2, 1, 0] = LEVI_CIVITA[1, 0, 2] = -1.0
LEVI_CIVITA.setflags(write=False)


def cross_component(a, b, j):
    """Component `j` of the cross product over the leading component axis."""
    p, q = (j + 1) % 3, (j + 2) % 3
    return a[p] * b[q] - a[q] * b[p]


def cross(a, b):
    """Cross product over the leading component axis; components may broadcast."""
    return np.stack([cross_component(a, b, j) for j in range(3)])


@dataclass(frozen=True)
class UnitsConfig:
    """Physical constants; mu0 is derived as 1/(eps0 c^2)."""

    c: float = 1.0
    hbar: float = 1.0
    eps0: float = 1.0

    def __post_init__(self):
        if self.c <= 0 or self.hbar <= 0 or self.eps0 <= 0:
            raise ValueError("c, hbar and eps0 must all be strictly positive")

    @property
    def mu0(self):
        return 1.0 / (self.eps0 * self.c ** 2)


@dataclass(frozen=True)
class KGridFields:
    """Per-point momentum magnitude, frequency and unit direction.

    ``nhat`` at the excluded k=0 bin is the fixed placeholder ``z`` (that bin
    never enters any quadrature).
    """

    kmag: np.ndarray        # |k|
    omega: np.ndarray       # c |k|
    nhat: np.ndarray        # (3, ...) unit vectors k/|k|


@dataclass(frozen=True)
class GridPair:
    """Matched real-space and momentum-space grids.

    Immutable after construction; all arrays are read-only and may be shared
    freely between workers.
    """

    dims: tuple
    spacing: tuple
    units: UnitsConfig
    x_axes: tuple              # three 1-d centered coordinate arrays
    k_axes: tuple              # three 1-d FFT-ordered momentum arrays
    kvec: np.ndarray           # (3, nx, ny, nz) broadcast momentum components
    kfields: KGridFields
    wk: np.ndarray             # dVk everywhere, 0 at the excluded bin
    w_invariant: np.ndarray    # dVk / (hbar omega), 0 at the excluded bin
    boundary_mask_k: np.ndarray    # outermost two momentum shells
    boundary_mask_r: np.ndarray    # outermost two real-space shells
    _phase: np.ndarray = field(repr=False, default=None)  # (-1)^i per index

    @property
    def dk(self):
        return tuple(TWO_PI / (n * d) for n, d in zip(self.dims, self.spacing))

    @property
    def dV(self):
        return float(np.prod(self.spacing))

    @property
    def dVk(self):
        return float(np.prod(self.dk))

    @property
    def npoints(self):
        return int(np.prod(self.dims))

    @property
    def excluded_index(self):
        return (0, 0, 0)

    def same_as(self, other):
        return self.dims == other.dims and self.spacing == other.spacing


def _readonly(a):
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def make_grid(dims, spacing=(1.0, 1.0, 1.0), units=None):
    """Build a GridPair with momentum metadata and quadrature weights.

    Parameters
    ----------
    dims : three even integers, each >= 8
    spacing : three positive real-space steps
    units : UnitsConfig, optional
    """
    dims = tuple(int(n) for n in np.atleast_1d(dims)) if np.ndim(dims) else (int(dims),) * 3
    if len(dims) == 1:
        dims = dims * 3
    if len(dims) != 3:
        raise ValueError("dims must be three integers")
    for n in dims:
        if n % 2:
            raise ValueError(f"odd dimension {n}: grid dims must be even")
        if n < 8:
            raise ValueError(f"dimension {n} too small: need at least 8 points per axis")
    spacing = tuple(float(s) for s in np.broadcast_to(spacing, (3,)))
    if any(s <= 0 for s in spacing):
        raise ValueError("spacing must be strictly positive")
    units = units or UnitsConfig()

    x_axes = tuple(_readonly((np.arange(n) - n // 2) * d) for n, d in zip(dims, spacing))
    k_axes = tuple(_readonly(TWO_PI * np.fft.fftfreq(n, d=d)) for n, d in zip(dims, spacing))

    kx = k_axes[0][:, None, None]
    ky = k_axes[1][None, :, None]
    kz = k_axes[2][None, None, :]
    shape = dims
    kvec = np.empty((3,) + shape)
    kvec[0], kvec[1], kvec[2] = np.broadcast_to(kx, shape), np.broadcast_to(ky, shape), np.broadcast_to(kz, shape)

    kmag = np.sqrt(kvec[0] ** 2 + kvec[1] ** 2 + kvec[2] ** 2)
    safe = np.where(kmag == 0.0, 1.0, kmag)
    nhat = kvec / safe
    nhat[:, 0, 0, 0] = (0.0, 0.0, 1.0)  # arbitrary fixed direction at the excluded bin
    omega = units.c * kmag

    dVk = float(np.prod([TWO_PI / (n * d) for n, d in zip(dims, spacing)]))
    wk = np.full(shape, dVk)
    wk[0, 0, 0] = 0.0
    w_inv = np.zeros(shape)
    nz = kmag > 0
    w_inv[nz] = dVk / (units.hbar * omega[nz])

    boundary_mask_k = _shell_mask(dims, 2, fft_order=True)
    boundary_mask_r = _shell_mask(dims, 2, fft_order=False)

    phase = np.ones(shape)
    for ax, n in enumerate(dims):
        sl = [None, None, None]
        sl[ax] = slice(None)
        phase = phase * ((-1.0) ** np.arange(n))[tuple(sl)]

    return GridPair(
        dims=dims,
        spacing=spacing,
        units=units,
        x_axes=x_axes,
        k_axes=k_axes,
        kvec=_readonly(kvec),
        kfields=KGridFields(kmag=_readonly(kmag), omega=_readonly(omega), nhat=_readonly(nhat)),
        wk=_readonly(wk),
        w_invariant=_readonly(w_inv),
        boundary_mask_k=_readonly(boundary_mask_k),
        boundary_mask_r=_readonly(boundary_mask_r),
        _phase=_readonly(phase),
    )


def _shell_mask(dims, ncells, fft_order):
    """Boolean mask of the outermost `ncells` shells along each axis."""
    mask = np.zeros(dims, dtype=bool)
    for ax, n in enumerate(dims):
        idx = np.arange(n)
        if fft_order:
            # monotone position of an FFT-ordered index
            pos = (idx + n // 2) % n
        else:
            pos = idx
        edge = (pos < ncells) | (pos >= n - ncells)
        sl = [None, None, None]
        sl[ax] = slice(None)
        mask |= edge[tuple(sl)]
    return mask


# ---------------------------------------------------------------------------
# transforms

def forward_transform(grid, f):
    """Real space -> momentum space over the trailing three axes.

    Returns ``F(k) = (2 pi)^{-3/2} sum_r f(r) e^{-i k.r} dV`` on the
    FFT-ordered momentum grid.
    """
    f = np.asarray(f)
    _check_shape(grid, f)
    pref = grid.dV / ROOT_2PI_CUBED
    return pref * grid._phase * np.fft.fftn(f, axes=(-3, -2, -1))


def inverse_transform(grid, F):
    """Momentum space -> real space; exact inverse of forward_transform."""
    F = np.asarray(F)
    _check_shape(grid, F)
    pref = grid.dVk * grid.npoints / ROOT_2PI_CUBED
    return pref * np.fft.ifftn(grid._phase * F, axes=(-3, -2, -1))


def _check_shape(grid, a):
    if a.shape[-3:] != grid.dims:
        raise ValueError(f"array shape {a.shape} does not match grid dims {grid.dims}")


def reflect_conjugate(grid, F):
    """Return ``conj(F(-k))`` on the FFT-ordered grid (Nyquist bins map to themselves)."""
    F = np.asarray(F)
    _check_shape(grid, F)
    out = np.flip(F, axis=(-3, -2, -1))
    out = np.roll(out, (1, 1, 1), axis=(-3, -2, -1))
    return np.conj(out)


# ---------------------------------------------------------------------------
# finite differences in k
#
# Every k derivative is the same second-order stencil, taken directly in FFT
# order: central differences with wrap-around indexing everywhere except at
# the two ends of the monotone k range (indices n/2 - 1 and n/2), where
# numpy's one-sided second-order formulas replace them.  The data must decay
# near the momentum boundary, so the stencil is read as non-periodic there.

def boundary_margin(F, mask):
    """max |F| on the boundary shells in `mask` divided by the global max.

    `mask` is ``grid.boundary_mask_k`` or ``grid.boundary_mask_r``.
    """
    mag = np.abs(F)
    peak = mag.max()
    if peak == 0.0:
        return 0.0
    return float(mag[..., mask].max() / peak)


def check_boundary_decay(grid, F, tol=BOUNDARY_TOL, mode="raise", what="array"):
    """Enforce decay near the momentum boundary; warn or raise per `mode`.

    `F` is an array or a tuple of arrays; each is measured against its own peak.
    """
    if mode == "ignore":
        return 0.0
    arrays = F if isinstance(F, tuple) else (F,)
    margin = max(boundary_margin(a, grid.boundary_mask_k) for a in arrays)
    if margin > tol:
        msg = (f"{what} does not decay at the momentum-grid boundary "
               f"(relative edge magnitude {margin:.2e} > {tol:.0e}); "
               "derivative-based observables are unreliable")
        if mode == "raise":
            raise BoundaryDecayError(msg)
        warnings.warn(msg, BoundaryDecayWarning, stacklevel=3)
    return margin


def _gradient_k_axis(grid, F, ax, out):
    """Write d F / d k along grid axis `ax` into `out` (same shape as `F`); return `out`.

    Matches ``np.gradient(edge_order=2)`` of the monotone-ordered array bit
    for bit, without reordering copies.
    """
    h = grid.dk[ax]
    f = np.moveaxis(F, F.ndim - 3 + ax, 0)
    g = np.moveaxis(out, out.ndim - 3 + ax, 0)
    np.subtract(f[2:], f[:-2], out=g[1:-1])
    np.subtract(f[1], f[-1], out=g[0])
    np.subtract(f[0], f[-2], out=g[-1])
    g /= 2.0 * h
    lo = f.shape[0] // 2        # smallest k; its left neighbour wraps to the largest
    g[lo] = (-1.5 / h) * f[lo] + (2.0 / h) * f[lo + 1] + (-0.5 / h) * f[lo + 2]
    hi = lo - 1                 # largest k
    g[hi] = (0.5 / h) * f[hi - 2] + (-2.0 / h) * f[hi - 1] + (1.5 / h) * f[hi]
    return out


def spectral_gradient_k(grid, F, boundary="raise", tol=BOUNDARY_TOL):
    """Centered second-order finite-difference gradient along the k axes.

    Non-periodic: one-sided second-order stencils are used at the two ends
    of the monotone k range of each axis (see the section comment above).
    Requires the data to decay near the momentum boundary (`boundary`:
    "raise", "warn" or "ignore").

    Returns an array of shape ``(3,) + F.shape``.
    """
    F = np.asarray(F)
    _check_shape(grid, F)
    check_boundary_decay(grid, F, tol=tol, mode=boundary)
    out = np.empty((3,) + F.shape, dtype=F.dtype if np.iscomplexobj(F) else float)
    for ax in range(3):
        _gradient_k_axis(grid, F, ax, out=out[ax])
    return out
