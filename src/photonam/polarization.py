"""Transverse circular-polarization basis on the momentum grid.

The basis vector at each momentum point is ``e(k) = (theta_hat + i phi_hat)/sqrt(2)``,
the spherical unit vectors taken about a configurable unit chart axis ``a``.
In closed form, with ``n = k/|k|``,

    e = ((a.n) n - a + i a x n) / (sqrt(2) |a x n|),

which needs no azimuthal frame and no angles.  A basis stores no e array:
`PolarizationBasis.e` derives one Cartesian component per call, the way
`GridPair` derives its metadata.  What it stores is the Berry-type
connection ``alpha_j = -Im[e* . d_j e]``, obtained with the same
finite-difference stencil as every other k derivative in the package.
Of the package's stages only the covariant derivative reads it, so a basis
derives it on the first read of ``alpha`` or ``alpha_base`` and keeps it:
`chart_basis` derives nothing, `build_basis` reads it once before returning.

A single chart cannot cover the sphere smoothly; points within ``EPS_POLE``
of the chart axis (`PolarizationBasis.pole_mask`) carry the limiting basis
of an azimuth-0 approach, ``(cos(theta) u - sin(theta) a + i v)/sqrt(2)``
in a fixed right-handed frame (u, v, a).  Beams and test states are
constructed away from the poles.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import numpy as np

from .grids import LEVI_CIVITA, cross, reflect_conjugate, spectral_gradient_k, _along, _readonly

EPS_POLE = 1e-6  # radians


class _Connection:
    """Field descriptor of `alpha` and `alpha_base`.

    Holds the array given to the constructor.  A field given none is the
    construction-gauge connection: the first reader derives it, under the
    basis's lock, into every unset field, and readers that waited find it set.
    """

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, basis, owner=None):
        if basis is None:
            return None             # the field default: derive on first read
        fields = basis.__dict__
        if fields[self.slot] is None:
            with fields["_lock"]:
                if fields[self.slot] is None:
                    alpha = _readonly(_derive_connection(basis.grid, basis.chart_axis))
                    for slot in ("_alpha", "_alpha_base"):
                        if fields[slot] is None:
                            fields[slot] = alpha
        return fields[self.slot]

    def __set__(self, basis, value):
        basis.__dict__[self.slot] = value


@dataclass(frozen=True, repr=False, eq=False)
class PolarizationBasis:
    """Connection alpha(k) of the circular basis, with gauge bookkeeping.

    The vectors e(k) themselves are derived on request, one component per
    call of `e`, in closed form from the chart axis, and re-phased by
    ``exp(-i gauge_phase)``; the chart poles likewise (`pole_mask`).
    ``alpha`` is the connection in the current gauge; ``alpha_base`` and
    ``gauge_phase`` keep the construction gauge and the accumulated chart
    phase so that covariant derivatives can be evaluated in the construction
    gauge (exactly gauge covariant) and re-phased afterwards.  Until a gauge
    transform, ``alpha_base`` is the same read-only array as ``alpha`` and
    ``gauge_phase`` is a zero-stride view of one zero.

    A connection not passed to the constructor is derived on its first read,
    once per basis even when threads read it together, and kept; `e`,
    `pole_mask` and the beam, synthesis and analysis stages never read it.
    """

    grid: object
    chart_axis: np.ndarray     # unit 3-vector
    gauge_phase: np.ndarray    # accumulated phase field, zeros at construction
    alpha: np.ndarray = _Connection()        # (3, nx, ny, nz) real, current gauge
    alpha_base: np.ndarray = _Connection()   # connection of the construction gauge

    def __post_init__(self):
        object.__setattr__(self, "_lock", threading.Lock())

    @property
    def has_gauge_phase(self):
        return bool(np.any(self.gauge_phase))

    def e(self, i, out=None):
        """Component `i` of the polarization vector e(k) in the current gauge.

        With `out` (a complex grid array) the component is written there and
        `out` returned.  Uses one real grid array of scratch, and one complex
        one more when a gauge phase is present.
        """
        if out is None:
            out = np.empty(self.grid.dims, dtype=complex)
        _construction_e(self.grid, self.chart_axis, i, out)
        if self.has_gauge_phase:
            phase = np.multiply(self.gauge_phase, -1j)
            out *= np.exp(phase, out=phase)
        return out

    def pole_mask(self):
        """Boolean grid mask of the chart poles, the excluded k=0 bin included."""
        cnorm, scratch = np.empty(self.grid.dims), np.empty(self.grid.dims)
        return _chart_geometry(self.grid, self.chart_axis, cnorm, scratch)[2]

    @property
    def pole_points(self):
        """(npole, 3) integer grid indices of `pole_mask`."""
        return np.argwhere(self.pole_mask())


def _chart_frame(axis):
    """Deterministic right-handed frame (u, v, axis)."""
    axis = np.asarray(axis, dtype=float)
    if not abs(np.linalg.norm(axis) - 1.0) <= 1e-12:     # NaN fails too
        raise ValueError("chart_axis must be a unit vector")
    trial = np.eye(3)[np.argmin(np.abs(axis))]
    u = trial - np.dot(trial, axis) * axis
    u /= np.linalg.norm(u)
    v = np.cross(axis, u)
    return u, v


def _two_product(x, y):
    """x*y as an unevaluated sum p + err of two doubles, exactly (Dekker's product)."""
    p = x * y
    xh, xl = _split(x)
    yh, yl = _split(y)
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _split(x):
    """Veltkamp split of x into two halves of 26 significant bits each."""
    t = 134217729.0 * x     # 2**27 + 1
    hi = t - (t - x)
    return hi, x - hi


def _chart_geometry(grid, axis, cnorm, scratch):
    """a x k, |k| and the pole points of the chart axis `a` on `grid`.

    Returns ``(c, kmag, poles)``: the three components of a x k as
    broadcasting 2-d arrays, |k| with 1 at the excluded bin, and the mask of
    the points within EPS_POLE of the axis plus the excluded bin.
    sqrt(2) |a x k| is written into `cnorm`; `scratch` is overwritten.  The
    components of a x k are formed from exact products, so they keep full
    relative accuracy where the products cancel near the axis: the direction
    of a x k, and every vector derived from it, stays accurate to rounding
    however close k comes to the axis.
    """
    k = [_along(a, ax) for ax, a in enumerate(grid.k_axes)]
    c = []
    for j in range(3):
        p, q = (j + 1) % 3, (j + 2) % 3
        h1, l1 = _two_product(axis[p], k[q])
        h2, l2 = _two_product(axis[q], k[p])
        c.append((h1 - h2) + (l1 - l2))
    kmag = grid.kmag()
    kmag[grid.excluded_index] = 1.0
    np.add(2.0 * c[0] * c[0], 2.0 * c[1] * c[1], out=cnorm)
    cnorm += 2.0 * c[2] * c[2]
    np.sqrt(cnorm, out=cnorm)
    np.multiply(kmag, np.sqrt(2.0) * EPS_POLE, out=scratch)
    poles = cnorm < scratch                 # sin(theta) < EPS_POLE
    poles[grid.excluded_index] = True       # direction undefined there
    return c, kmag, poles


def _pole_limit(grid, axis, pts, i):
    """Component `i` of (cos(theta) u - sin(theta) a + i v)/sqrt(2) at the points `pts`.

    The excluded k=0 bin takes the placeholder direction z of `GridPair.nhat`.
    """
    n = np.stack([a[idx] for a, idx in zip(grid.k_axes, pts)])
    kmag = np.linalg.norm(n, axis=0)
    n /= np.where(kmag == 0.0, 1.0, kmag)
    n[:, kmag == 0.0] = ((0.0,), (0.0,), (1.0,))
    ca = axis @ n
    st = np.linalg.norm(np.cross(axis, n, axis=0), axis=0)
    u, v = _chart_frame(axis)
    return (ca * u[i] - st * axis[i]) / np.sqrt(2.0), v[i] / np.sqrt(2.0)


def _construction_e(grid, axis, i, out):
    """Write component `i` of e(k) in the construction gauge into the complex array `out`.

    Evaluates ``((a x k) x k + i |k| a x k) / (sqrt(2) |k| |a x k|)``, the
    closed form of the module docstring multiplied through by |k|^2.
    """
    re, im = out.real, out.imag
    c, kmag, poles = _chart_geometry(grid, axis, cnorm=im, scratch=re)
    pts = np.nonzero(poles)
    del poles
    im[pts] = 1.0
    kmag *= im
    k = [_along(a, ax) for ax, a in enumerate(grid.k_axes)]
    p, q = (i + 1) % 3, (i + 2) % 3
    np.subtract(c[p] * k[q], c[q] * k[p], out=re)
    re /= kmag                              # theta_hat_i / sqrt(2)
    del kmag
    np.divide(c[i], im, out=im)             # phi_hat_i / sqrt(2)
    re[pts], im[pts] = _pole_limit(grid, axis, pts, i)
    return out


def chart_basis(grid, chart_axis=(0.0, 0.0, 1.0)):
    """The circular basis of `chart_axis` on `grid`, its connection derived on first read.

    Validates the axis and allocates no grid array: the stages that read
    only e(k) (beams, synthesis, analysis) never pay for the connection.
    """
    _chart_frame(chart_axis)        # a non-unit axis fails before any grid array exists
    return PolarizationBasis(
        grid=grid,
        chart_axis=_readonly(np.asarray(chart_axis, dtype=float)),
        gauge_phase=np.broadcast_to(0.0, grid.dims),
    )


def build_basis(grid, chart_axis=(0.0, 0.0, 1.0)):
    """Construct the circular basis and its connection on `grid`.

    `chart_basis` with the connection read once before returning.  At every
    non-pole point the seven transversality/handedness identities hold to
    rounding; see `identity_residuals`.  The connection is fixed only up to a
    gauge transformation, the operational check being the curvature relation
    exercised by `photonam.algebra_checks.check_curvature`.
    """
    basis = chart_basis(grid, chart_axis)
    basis.alpha         # derived here, and kept
    return basis


def _derive_connection(grid, axis):
    """alpha_j = -sum_c Im(e_c* d_j e_c) in the construction gauge, one component of e at a time."""
    alpha = np.zeros((3,) + grid.dims)
    e = np.empty(grid.dims, dtype=complex)
    for comp in range(3):
        _construction_e(grid, axis, comp, e)
        grad = spectral_gradient_k(grid, e)
        grad *= np.conjugate(e, out=e)
        alpha -= grad.imag
        del grad        # before the next component's gradient is allocated
    return alpha


def gauge_transform(grid, basis, phi):
    """Re-phase the chart: e -> e^{-i phi} e, alpha -> alpha + grad_k phi.

    `phi` may be any smooth field on the momentum grid (boundary decay is not
    required).  Amplitudes of photon states must be co-transformed with
    `photonam.photon_state.gauge_transform_amplitudes` to describe the same
    physical state.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != grid.dims:
        raise ValueError("phase field shape does not match grid")
    grad_phi = spectral_gradient_k(grid, phi)
    return replace(
        basis,
        alpha=_readonly(basis.alpha + grad_phi),
        gauge_phase=_readonly(basis.gauge_phase + phi),
    )


# ---------------------------------------------------------------------------
# verification helpers

def identity_residuals(grid, basis):
    """Max absolute residual of each basis identity over usable points.

    The dyadic identity is checked in its transverse-complete form
    ``e_i* e_j = (delta_ij - n_i n_j + i eps_ijl n_l) / 2``; contracted with
    transverse fields the ``n_i n_j`` term drops and the familiar shorthand
    ``(delta_ij + i eps_ijl n_l)/2`` is recovered.
    """
    poles = basis.pole_mask()
    ok = ~poles
    e = np.empty((3,) + grid.dims, dtype=complex)
    for i in range(3):
        basis.e(i, out=e[i])
    n = np.stack([grid.nhat(j) for j in range(3)])

    res = {}
    # c k x e = -i omega e, written with unit vectors so it is scale free
    res["k_cross_e"] = np.abs(cross(n, e) + 1j * e)[:, ok].max()
    res["e_dot_e"] = np.abs(np.einsum("i...,i...->...", e, e))[ok].max()
    res["estar_dot_e"] = np.abs(np.einsum("i...,i...->...", np.conj(e), e) - 1.0)[ok].max()
    res["estar_cross_e"] = np.abs(cross(np.conj(e), e) - 1j * n)[:, ok].max()
    res["e_cross_e"] = np.abs(cross(e, e))[:, ok].max()

    dyad = np.einsum("i...,j...->ij...", np.conj(e), e)
    expect = 0.5 * (
        np.eye(3)[:, :, None, None, None]
        - np.einsum("i...,j...->ij...", n, n)
        + 1j * np.einsum("ijl,l...->ij...", LEVI_CIVITA, n)
    )
    res["dyadic"] = np.abs(dyad - expect)[:, :, ok].max()

    # e*(k) . e(-k) = 0; needs both k and -k usable, which excludes the
    # self-aliased Nyquist planes along with the poles
    e_neg = np.stack([np.conj(reflect_conjugate(grid, e[i])) for i in range(3)])
    ok_pair = ok & ~np.roll(np.flip(poles, axis=(0, 1, 2)), (1, 1, 1), axis=(0, 1, 2))
    for ax, nn in enumerate(grid.dims):
        sl = [slice(None)] * 3
        sl[ax] = nn // 2
        ok_pair[tuple(sl)] = False
    res["reflection"] = np.abs(np.einsum("i...,i...->...", np.conj(e), e_neg))[ok_pair].max()
    return {k: float(v) for k, v in res.items()}


def solid_angle_quad(p1, p2, p3, p4):
    """Signed solid angle of a planar quadrilateral seen from the origin.

    Van Oosterom-Strackee formula on the two triangles (p1,p2,p3), (p1,p3,p4);
    sign follows the traversal orientation.
    """
    def tri(a, b, c):
        na, nb, nc = (np.linalg.norm(x) for x in (a, b, c))
        num = np.dot(a, np.cross(b, c))
        den = na * nb * nc + np.dot(a, b) * nc + np.dot(a, c) * nb + np.dot(b, c) * na
        return 2.0 * np.arctan2(num, den)

    return tri(p1, p2, p3) + tri(p1, p3, p4)


def berry_loop(grid, basis, center, half_cells):
    """Discrete loop integral of alpha around a grid-aligned square circuit.

    The square lies in a plane of constant k_z, centred at the grid point
    nearest `center`, with half-side ``half_cells`` grid steps.  The loop is
    traversed counterclockwise as seen from positive k_z.

    Returns ``(loop_integral, expected, abs_error)`` where `expected` is the
    flux of the helicity +1 curvature ``-n/|k|^2`` through the square, i.e.
    minus the solid angle the square subtends at the origin (independent
    geometric oracle for the Stokes check).
    """
    cx, cy, cz = [int(np.argmin(np.abs(grid.k_axes[ax] - center[ax]))) for ax in range(3)]
    h = int(half_cells)
    lo_x, hi_x, lo_y, hi_y = cx - h, cx + h, cy - h, cy + h
    nx, ny = grid.dims[0], grid.dims[1]
    # stay on the monotone branch (no wraparound through the Nyquist edge)
    for lo, hi, nn in ((lo_x, hi_x, nx), (lo_y, hi_y, ny)):
        if not (-(nn // 2) <= lo and hi < nn // 2):
            raise ValueError("loop leaves the momentum grid")

    def edge(axis, fixed, lo, hi):
        """Trapezoidal integral of alpha_axis along the edge from index lo to hi."""
        run = np.arange(lo, hi + 1)
        index = (run % nx, fixed % ny, cz) if axis == 0 else (fixed % nx, run % ny, cz)
        vals = basis.alpha[axis][index]
        return grid.dk[axis] * (vals.sum() - 0.5 * (vals[0] + vals[-1]))

    # the four edges counterclockwise: +x at lo_y, +y at hi_x, -x at hi_y, -y at lo_x
    loop = (edge(0, lo_y, lo_x, hi_x) + edge(1, hi_x, lo_y, hi_y)
            - edge(0, hi_y, lo_x, hi_x) - edge(1, lo_x, lo_y, hi_y))

    kx, ky, kz = grid.k_axes
    corners = [(lo_x, lo_y), (hi_x, lo_y), (hi_x, hi_y), (lo_x, hi_y)]
    expected = -solid_angle_quad(*[np.array([kx[i % nx], ky[j % ny], kz[cz]]) for i, j in corners])

    return float(loop), float(expected), float(abs(loop - expected))
