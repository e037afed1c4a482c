"""Matched real/momentum Cartesian grids and the symmetric spectral transform.

Conventions used throughout the package:

* real-space samples sit at ``x_j = (j - n/2) dx`` (origin at the grid
  center), momentum samples at the signed FFT frequencies
  ``k_m = 2 pi m / (n dx)`` stored in standard FFT ordering;
* the transform pair is symmetric,
  ``f(r) = (2 pi)^{-3/2} sum_k F(k) e^{i k.r} dVk`` and
  ``F(k) = (2 pi)^{-3/2} sum_r f(r) e^{-i k.r} dV``;
  the centred origin puts the phase (-1)^(i+j+l) on the spectrum;
* a real field (E, B, A) takes the real pair `real_forward_transform` /
  `real_inverse_transform` instead: plain ``rfftn``/``irfftn`` on the half
  spectrum k_z >= 0 (`half_k_axes`), with neither that phase nor the scale.
  Every caller applies an operator diagonal in k and transforms back, and
  the phase and the scale of the two directions cancel there;
* the ``k = 0`` bin carries zero quadrature weight because the invariant
  measure ``d3k / omega`` is singular there; fields are required to vanish
  on that bin;
* a grid stores only its 1-d axes.  |k|, omega, the unit vectors n, the
  invariant weight and the transform phase are derived on request, and a
  decay margin reads the edge planes of its arrays (`boundary_margin`), so
  a stage holds only the metadata it is using;
* every grid pass cut into slabs runs on `_over_slabs`: the 3-d
  transforms (in numpy's own axis order, the last two axes in slabs of the
  first, then the first axis in slabs of the second, each 1-d line by the
  same call as in ``np.fft.fftn`` & co, so bit for bit numpy's), e(k),
  alpha and every stage that multiplies and sums.  The regions of one axis
  run on the THREADS workers, write disjoint slices of arrays their caller
  allocated, and return partial sums (``np.sum``, `moments` on the slab's
  axes) that are added in slab order.  The slabs are `_slabs` of the grid
  alone, never of THREADS, so every result is bit-identical for any
  THREADS; a grid of fewer than 2^18 points (48^3, say) is one slab.
  `_map_threads`, the one helper that starts threads (up to THREADS, the
  environment variable, default the CPU count; inline with one thread or
  on one of its own workers, so calls never nest), runs those regions,
  `spectral_gradient_k`'s three axes and `run_suite`'s three base
  derivatives and its pairs.
"""

from __future__ import annotations

import operator
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi
ROOT_2PI_CUBED = TWO_PI ** 1.5

#: relative decay required within two cells of the grid boundary
BOUNDARY_TOL = 1e-8

#: peak working set of the largest photonam command, in complex grid arrays
#: (16 bytes per grid point): `observables` with all five routes peaks at
#: 379 MiB RSS at 128^3 with THREADS=2, on a wavefunction or an rs_field file
#: (its peak is the nonlocal convolution; the four default routes peak at
#: 313 MiB, in the darwin route, `split` at 159 MiB, in the photon picture,
#: `beam` at 178 MiB, `analyze` at 339 MiB and `potential` at 329 MiB);
#: 16 arrays of 32 MiB leave a 35% margin
WORKING_SET_ARRAYS = 16


class BoundaryDecayWarning(UserWarning):
    """A state reported by a route does not decay at a grid boundary."""


#: Levi-Civita symbol eps_ijl
LEVI_CIVITA = np.zeros((3, 3, 3))
LEVI_CIVITA[0, 1, 2] = LEVI_CIVITA[1, 2, 0] = LEVI_CIVITA[2, 0, 1] = 1.0
LEVI_CIVITA[0, 2, 1] = LEVI_CIVITA[2, 1, 0] = LEVI_CIVITA[1, 0, 2] = -1.0
LEVI_CIVITA.setflags(write=False)


def cross_component(a, b, j, out=None):
    """Component `j` of the cross product over the leading component axis.

    With `out`, the result is written into that buffer and `out` returned.
    """
    p, q = (j + 1) % 3, (j + 2) % 3
    if out is None:
        return a[p] * b[q] - a[q] * b[p]
    np.multiply(a[p], b[q], out=out)
    out -= a[q] * b[p]
    return out


def cross(a, b):
    """Cross product over the leading component axis; components may broadcast."""
    return np.stack([cross_component(a, b, j) for j in range(3)])


@dataclass(frozen=True)
class UnitsConfig:
    """Physical constants: speed of light c, reduced Planck constant hbar, vacuum permittivity eps0."""

    c: float = 1.0
    hbar: float = 1.0
    eps0: float = 1.0

    def __post_init__(self):
        if not all(0.0 < v < np.inf for v in (self.c, self.hbar, self.eps0)):
            raise ValueError("c, hbar and eps0 must all be positive and finite")


@dataclass(frozen=True)
class GridPair:
    """Matched real-space and momentum-space grids.

    Only the 1-d axes are stored, so a grid costs a few kilobytes at any
    size.  Every 3-d quantity is derived on request from one formula:
    `kvec` gives zero-stride views, the methods allocate one real array per
    call (`nhat` one component per call).  The quadrature weight of the
    momentum sum is the scalar `dVk`, with the k=0 bin (`excluded_index`)
    excluded; `photon_state.wavefunction` zeroes amplitudes there.
    Immutable; the axes are read-only and may be shared freely between
    workers.
    """

    dims: tuple
    spacing: tuple
    units: UnitsConfig
    x_axes: tuple              # three 1-d centered coordinate arrays
    k_axes: tuple              # three 1-d FFT-ordered momentum arrays

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
    def box_length(self):
        """The longest side n d of the real-space box: the length scale of K against H."""
        return max(n * d for n, d in zip(self.dims, self.spacing))

    @property
    def npoints(self):
        return int(np.prod(self.dims))

    @property
    def excluded_index(self):
        return (0, 0, 0)

    def require_same(self, other, what):
        """Refuse `other` unless it has the dims and spacing of this grid; `what` names the two owners."""
        if self.dims != other.dims or self.spacing != other.spacing:
            raise ValueError(f"{what} live on different grids")

    @property
    def kvec(self):
        """(kx, ky, kz): read-only zero-stride views of the k axes, each of shape `dims`."""
        return tuple(np.broadcast_to(_along(a, ax), self.dims) for ax, a in enumerate(self.k_axes))

    def kmag(self):
        """|k| at every point."""
        return _norm(self.k_axes)

    @property
    def half_dims(self):
        """Shape of the half spectrum of a real field: the last axis keeps its first n/2 + 1 bins."""
        return self.dims[:2] + (self.dims[2] // 2 + 1,)

    @property
    def half_k_axes(self):
        """The 1-d k axes of the half spectrum: the full x and y axes and k_z >= 0.

        The last bin of k_z is the Nyquist bin, which keeps fftfreq's -pi/dz.
        """
        return self.k_axes[:2] + (self.k_axes[2][:self.half_dims[2]],)

    @property
    def derivative_kvec(self):
        """(kx, ky, kz) in the numerator of a derivative i k of a real field, on the half spectrum.

        Read-only zero-stride views of shape `half_dims`.  The Nyquist bins
        of the two full axes hold 0: there -k aliases onto k, so i k_N F(k)
        is anti-Hermitian and has no real part, which is all a real field
        keeps.  The last axis keeps -pi/dz: `real_inverse_transform` reads
        only the real part of its Nyquist plane.
        """
        kx, ky, kz = self.half_k_axes
        kx, ky = (np.where(np.arange(a.size) == a.size // 2, 0.0, a) for a in (kx, ky))
        return tuple(np.broadcast_to(_along(a, ax), self.half_dims) for ax, a in enumerate((kx, ky, kz)))

    def omega(self):
        """c |k| at every point."""
        out = self.kmag()
        out *= self.units.c
        return out

    def nhat(self, j):
        """Component `j` of the unit vector k/|k|; the excluded k=0 bin holds the placeholder z."""
        return _nhat(self, j, (slice(None),) * 3)

    def w_invariant(self):
        """dVk / (hbar omega): the invariant measure, 0 at the excluded k=0 bin."""
        out = self.omega()
        out *= self.units.hbar
        out[self.excluded_index] = 1.0
        np.divide(self.dVk, out, out=out)
        out[self.excluded_index] = 0.0
        return out

    def fft_phase(self):
        """The transform phase (-1)^(i+j+l) as two broadcasting factors.

        Returns ``(px, pyz)``: (-1)^i as an (nx, 1, 1) column and (-1)^(j+l)
        as an (ny, nz) plane; their product is the phase on the grid.
        """
        px, py, pz = ((-1.0) ** np.arange(n) for n in self.dims)
        return px[:, None, None], py[:, None] * pz[None, :]


def _along(a, ax):
    """1-d array `a` shaped to broadcast along grid axis `ax`."""
    shape = [1, 1, 1]
    shape[ax] = a.size
    return a.reshape(shape)


def _nhat(grid, j, region):
    """Component `j` of `GridPair.nhat` on `region`, a tuple of three slices of the grid axes."""
    axes = _in_region(grid.k_axes, region)
    out = _norm(axes)
    at_zero = _at_origin(region)
    if at_zero:
        out[0, 0, 0] = 1.0
    np.divide(_along(axes[j], j), out, out=out)
    if at_zero:
        out[0, 0, 0] = (0.0, 0.0, 1.0)[j]     # arbitrary fixed direction
    return out


def _norm(axes, out=None):
    """sqrt(k_0^2 + k_1^2 + k_2^2) on the grid spanned by three 1-d axes, written into `out` if given."""
    k0, k1, k2 = (_along(a, ax) for ax, a in enumerate(axes))
    out = np.add(k0 ** 2 + k1 ** 2, k2 ** 2, out=out)
    return np.sqrt(out, out=out)


def moments(axes, X):
    """``sum_r c_a(r) X(r)`` for a = 0, 1, 2, where c_a is the 1-d array `axes[a]` along axis a.

    Each c_a varies along its own axis only, so its moment is the 1-d
    profile of X (X summed over the other two axes) weighted by c_a: no
    grid-sized product is formed.  `X` is one real or complex grid array.
    """
    plane = X.sum(axis=0)
    return np.array([axes[0] @ X.sum(axis=(1, 2)), axes[1] @ plane.sum(axis=1), axes[2] @ plane.sum(axis=0)])


def _readonly(a):
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def make_grid(dims, spacing=(1.0, 1.0, 1.0), units=None):
    """Build a GridPair from its 1-d axes; no 3-d array is allocated.

    Parameters
    ----------
    dims : three even integers, each >= 8
    spacing : three positive, finite real-space steps
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
    if not all(0.0 < s < np.inf for s in spacing):
        raise ValueError("spacing must be positive and finite")
    units = units or UnitsConfig()
    _refuse_beyond_memory(dims, WORKING_SET_ARRAYS)

    return GridPair(
        dims=dims,
        spacing=spacing,
        units=units,
        x_axes=tuple(_readonly((np.arange(n) - n // 2) * d) for n, d in zip(dims, spacing)),
        k_axes=tuple(_readonly(TWO_PI * np.fft.fftfreq(n, d=d)) for n, d in zip(dims, spacing)),
    )


def _refuse_beyond_memory(dims, arrays):
    """Raise ValueError when `arrays` complex arrays of shape `dims` exceed `physical_memory`."""
    need = arrays * 16 * int(np.prod(dims))
    memory = physical_memory()
    if memory is not None and need > memory:
        raise ValueError(
            f"grid {dims} too large: its working set is about {need / 2 ** 30:.1f} GiB, "
            f"more than the {memory / 2 ** 30:.1f} GiB of physical memory")


def physical_memory():
    """Bytes of physical memory of this machine, or None where the platform does not report it.

    Reads `os.sysconf`, which exists only on POSIX systems; cgroup limits are
    not taken into account.
    """
    try:
        pages = os.sysconf("SC_PHYS_PAGES")
        page_size = os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    if pages <= 0 or page_size <= 0:
        return None
    return pages * page_size


# ---------------------------------------------------------------------------
# threads

def _thread_count():
    """THREADS from the environment, at least 1; default the CPU count."""
    value = os.environ.get("THREADS") or os.cpu_count() or 1
    try:
        return max(1, int(value))
    except ValueError:
        raise ValueError(f"THREADS must be an integer, not {value!r}") from None


_WORKER_NAME = "photonam-worker"

#: the most slabs of a partition: a worker's temporaries stay within 1/16 of
#: a grid array, and a slab's Python calls cost little.  It fixes the order
#: in which partial sums are added, so changing it changes the bits of every
#: slab-summed result (though not their agreement across THREADS)
_SCRATCH_SLABS = 16

#: grid points of the smallest slab worth a thread of its own: on smaller
#: slabs, starting a pool (about 0.4 ms) costs more than a second thread saves
_MIN_SLAB_POINTS = 2 ** 17


def _map_threads(fn, items):
    """``[fn(item) for item in items]``, run on up to THREADS threads; results in item order.

    Runs inline when one thread would do, or when called from one of its
    own workers, so calls never nest.  Reading every result re-raises the
    first exception of a worker.
    """
    items = list(items)
    workers = min(_thread_count(), len(items))
    if workers <= 1 or threading.current_thread().name.startswith(_WORKER_NAME):
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers, thread_name_prefix=_WORKER_NAME) as pool:
        return list(pool.map(fn, items))


def _slabs(n, points):
    """Contiguous slices of nearly equal length that cover ``range(n)``: the one slab partition.

    At most `_SCRATCH_SLABS`, and no more than leave each slab
    `_MIN_SLAB_POINTS` of the `points` grid points that ``range(n)`` spans;
    at least one.  A function of its arguments alone, never of THREADS.
    """
    count = max(1, min(_SCRATCH_SLABS, n, points // _MIN_SLAB_POINTS))
    edges = [n * s // count for s in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _over_slabs(grid, axis, fn):
    """Run ``fn(region)`` on the slab regions of grid axis `axis`; return the results added in slab order.

    A region is three slices of the grid axes, the whole of two axes and a
    slab of `axis`, one of ``_slabs(n, npoints)``: the slabs depend on the
    grid alone, never on THREADS.  The regions run on the THREADS workers.
    Their results, each a partial sum or a tuple of partial sums (numbers or
    arrays), are added in slab order, so the total is the same for any
    THREADS.  A function that only fills its region returns None, and so
    does this helper.
    """
    regions = [tuple(s if ax == axis else slice(None) for ax in range(3))
               for s in _slabs(grid.dims[axis], grid.npoints)]
    parts = _map_threads(fn, regions)
    if parts[0] is None:
        return None
    total = parts[0]
    for part in parts[1:]:
        total = tuple(map(operator.add, total, part)) if isinstance(total, tuple) else total + part
    return total


def _at_origin(region):
    """Whether `region`, three slices of the grid axes, holds the excluded k=0 bin at its own (0, 0, 0)."""
    return all((r.start or 0) == 0 for r in region)


def _in_region(axes, region):
    """The three 1-d `axes` cut to `region`, three slices of the grid axes: the axes of a slab."""
    return tuple(a[r] for a, r in zip(axes, region))


# ---------------------------------------------------------------------------
# transforms

def forward_transform(grid, f):
    """Real space -> momentum space over the trailing three axes.

    Returns ``F(k) = (2 pi)^{-3/2} sum_r f(r) e^{-i k.r} dV`` on the
    FFT-ordered momentum grid.  The result is the only array allocated.
    """
    f = np.asarray(f)
    _check_shape(grid, f)
    out = np.empty(f.shape, dtype=complex)
    scale = grid.dV / ROOT_2PI_CUBED
    px, pyz = grid.fft_phase()

    def rows(region):
        part = out[(Ellipsis,) + region]
        part[...] = f[(Ellipsis,) + region]
        np.fft.fft(part, axis=-1, out=part)
        np.fft.fft(part, axis=-2, out=part)

    def columns(region):
        part = out[(Ellipsis,) + region]
        np.fft.fft(part, axis=-3, out=part)
        part *= scale
        part *= px
        part *= pyz[region[1:]]

    _over_slabs(grid, 0, rows)
    _over_slabs(grid, 1, columns)
    return out


def inverse_transform(grid, F):
    """Momentum space -> real space; exact inverse of forward_transform.

    The result is the only array allocated.
    """
    F = np.asarray(F)
    _check_shape(grid, F)
    out = np.empty(F.shape, dtype=complex)
    scale = grid.dVk * grid.npoints / ROOT_2PI_CUBED
    px, pyz = grid.fft_phase()

    def rows(region):
        part = out[(Ellipsis,) + region]
        part[...] = F[(Ellipsis,) + region]
        part *= px[region]
        part *= pyz
        np.fft.ifft(part, axis=-1, out=part)
        np.fft.ifft(part, axis=-2, out=part)

    def columns(region):
        part = out[(Ellipsis,) + region]
        np.fft.ifft(part, axis=-3, out=part)
        part *= scale

    _over_slabs(grid, 0, rows)
    _over_slabs(grid, 1, columns)
    return out


def real_forward_transform(grid, f):
    """Half spectrum of the real field `f` over the trailing three axes (``np.fft.rfftn``).

    Without the phase and the scale of `forward_transform`: the caller
    applies an operator diagonal in k, whose k are `half_k_axes` (or
    `derivative_kvec`), and transforms back with `real_inverse_transform`,
    where both cancel.  The result is the only array allocated.
    """
    f = np.asarray(f)
    _check_shape(grid, f)
    out = np.empty(f.shape[:-3] + grid.half_dims, dtype=complex)

    def rows(region):
        part = out[(Ellipsis,) + region]
        np.fft.rfft(f[(Ellipsis,) + region], axis=-1, out=part)
        np.fft.fft(part, axis=-2, out=part)

    def columns(region):
        part = out[(Ellipsis,) + region]
        np.fft.fft(part, axis=-3, out=part)

    _over_slabs(grid, 0, rows)
    _over_slabs(grid, 1, columns)
    return out


def real_inverse_transform(grid, F):
    """Real field of the half spectrum `F`: the inverse of `real_forward_transform` (``np.fft.irfftn``).

    Allocates the result and one complex copy of `F`, its scratch.
    """
    F = np.asarray(F)
    if F.shape[-3:] != grid.half_dims:
        raise ValueError(f"array shape {F.shape} is not the half spectrum {grid.half_dims} of grid {grid.dims}")
    work = np.empty(F.shape, dtype=complex)
    out = np.empty(F.shape[:-3] + grid.dims)

    def columns(region):
        np.fft.ifft(F[(Ellipsis,) + region], axis=-3, out=work[(Ellipsis,) + region])

    def rows(region):
        part = work[(Ellipsis,) + region]
        np.fft.ifft(part, axis=-2, out=part)
        np.fft.irfft(part, n=grid.dims[2], axis=-1, out=out[(Ellipsis,) + region])

    _over_slabs(grid, 1, columns)
    _over_slabs(grid, 0, rows)
    return out


def _real_derivative_axis(grid, f, ax, region):
    """``d f / d x_ax`` of the real field `f` on `region`, a slab that spans all of axis `ax`.

    A 1-d real transform pair along `ax`, ``irfft(i k_ax rfft(f))``, with
    the Nyquist bin zeroed as `derivative_kvec` and `real_inverse_transform`
    zero it: the derivative of the 3-d pair, to rounding, without it.
    """
    n = grid.dims[ax]
    ik = _along(1j * np.append(grid.k_axes[ax][:n // 2], 0.0), ax)
    spectrum = np.fft.rfft(f[region], axis=ax)
    spectrum *= ik
    return np.fft.irfft(spectrum, n=n, axis=ax)


def _check_shape(grid, a):
    if a.shape[-3:] != grid.dims:
        raise ValueError(f"array shape {a.shape} does not match grid dims {grid.dims}")


def reflect_conjugate(grid, F):
    """Return ``conj(F(-k))`` on the FFT-ordered grid (Nyquist bins map to themselves)."""
    F = np.asarray(F)
    _check_shape(grid, F)
    out = np.roll(np.flip(F, axis=(-3, -2, -1)), (1, 1, 1), axis=(-3, -2, -1))
    return np.conjugate(out, out=out)


# ---------------------------------------------------------------------------
# boundary decay
#
# A state that does not decay at the edge of its grid spoils what reads that
# edge as if the grid went on: the k stencil below, which is one-sided there,
# and the r-weighted moments of the field picture, which wrap around.  The
# margin is read off the outermost two planes of each axis, sliced in place.

def boundary_margin(F, space):
    """max |F| on the outermost two planes of each axis divided by the global max.

    `space` is "k" for momentum-space arrays in FFT order, whose edge planes
    are n/2 - 2 .. n/2 + 1 about the Nyquist bin, or "r" for real-space
    arrays, whose edge planes are 0, 1, n - 2 and n - 1.  `F` is an array or
    a tuple of arrays; every 3-d component along their leading axes is
    measured one at a time, and all share one global max.  A max is exact,
    so the margin is the one a mask of those planes would give, bit for bit.
    """
    if space not in ("k", "r"):
        raise ValueError(f"space must be 'k' or 'r', not {space!r}")
    peak = edge = 0.0
    for part in F if isinstance(F, tuple) else (F,):
        part = np.asarray(part)
        for a in part.reshape((-1,) + part.shape[-3:]):
            mag = np.abs(a)
            peak = max(peak, mag.max())
            for ax, n in enumerate(mag.shape):
                ends = (slice(n // 2 - 2, n // 2 + 2),) if space == "k" else (slice(0, 2), slice(n - 2, n))
                edge = max([edge] + [mag[(slice(None),) * ax + (s,)].max() for s in ends])
    return float(edge / peak) if peak > 0.0 else 0.0


def check_boundary_decay(arrays, what, space):
    """Measure the decay of `arrays` at the edge of their grid in `space` ("k" or "r"); return the margin.

    `arrays` is an array or a tuple of arrays, measured against one shared
    peak (`boundary_margin`), so rounding noise beside a decaying component
    is no failure.  Warns with `BoundaryDecayWarning` when the margin
    exceeds BOUNDARY_TOL.
    """
    return _warn_decay(boundary_margin(arrays, space), what, space, stacklevel=4)


def _warn_decay(margin, what, space, stacklevel=3):
    """Warn when `margin`, measured in `space`, exceeds BOUNDARY_TOL; return it (`stacklevel` as in `warnings.warn`)."""
    if margin > BOUNDARY_TOL:
        where, spoiled = (("momentum-grid", "derivative-based observables") if space == "k"
                          else ("real-space", "r-weighted moments"))
        warnings.warn(
            f"{what} does not decay at the {where} boundary "
            f"(relative edge magnitude {margin:.2e} > {BOUNDARY_TOL:.0e}); "
            f"{spoiled} are unreliable",
            BoundaryDecayWarning, stacklevel=stacklevel)
    return margin


# ---------------------------------------------------------------------------
# derivatives in k
#
# The photon picture takes the exact, spectral derivative d/dk_a =
# F_a[-i x_a F_a^-1] (`_exact_gradient_k_axis`).  Every other k derivative
# is one second-order finite-difference (FD) stencil in FFT order: central
# differences with wrap-around indexing except at the two ends of the
# monotone k range (indices n/2 - 1 and n/2), where numpy's one-sided
# formulas replace them, as the data must decay near the momentum boundary.
# Its readers are alpha and D, which only `check algebra` and `check
# polarization` read, and darwin, the one report route that differentiates
# by FD.  The stencil checks nothing: decay is measured by
# `check_boundary_decay` where a beam is built and where a route that
# differentiates in k reports a result.

def _exact_gradient_k_axis(grid, F, ax, region):
    """``(dF, edge, peak)``: ``dF = F_ax[-i x_ax F_ax^-1[F]]`` on `region`, a slab that spans all of axis `ax`.

    The 1-d transforms run along `ax`, with the grid's x_ax in FFT order.
    `edge` and `peak` are the largest |F_ax^-1[F]| on the outermost two x
    planes and anywhere: the real-space decay that the derivative needs.
    """
    n = grid.dims[ax]
    out = np.fft.ifft(F[region], axis=ax)
    mag = np.abs(out)
    edge = mag[(slice(None),) * ax + (slice(n // 2 - 2, n // 2 + 2),)].max()
    peak = mag.max()
    del mag
    out *= _along(-1j * np.fft.ifftshift(grid.x_axes[ax]), ax)
    np.fft.fft(out, axis=ax, out=out)
    return out, edge, peak


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


def spectral_gradient_k(grid, F):
    """Centered second-order finite-difference gradient along the k axes.

    Non-periodic: one-sided second-order stencils are used at the two ends
    of the monotone k range of each axis (see the section comment above).
    Valid for data that decays near the momentum boundary; the caller owns
    that contract, and nothing is checked here.

    Returns an array of shape ``(3,) + F.shape``; its three axes are
    computed on the THREADS workers, one axis per worker.  The stencil is
    memory-bound, so an axis is not cut further: slabbing each axis across a
    second one balances two workers but was measured no faster.
    """
    F = np.asarray(F)
    _check_shape(grid, F)
    out = np.empty((3,) + F.shape, dtype=F.dtype if np.iscomplexobj(F) else float)

    def axes(s):
        for ax in range(3)[s]:
            _gradient_k_axis(grid, F, ax, out=out[ax])

    _map_threads(axes, _slabs(3, out.size))
    return out
