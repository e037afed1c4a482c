"""Transverse circular-polarization basis on the momentum grid.

The basis vector at each momentum point is ``e(k) = (theta_hat + i phi_hat)/sqrt(2)``,
the spherical unit vectors taken about a configurable unit chart axis ``a``.
In closed form, with ``n = k/|k|``,

    e = ((a.n) n - a + i a x n) / (sqrt(2) |a x n|),

which needs no azimuthal frame and no angles.  A basis stores no e array:
`PolarizationBasis.e` derives one Cartesian component per call, the way
`GridPair` derives its metadata.  A basis is plain data: the chart axis, the
accumulated gauge phase (None in the construction gauge) and the Berry-type
connection ``alpha_j = -Im[e* . d_j e]`` of the construction gauge, obtained
with the finite-difference stencil of `grids`.  Only two commands read the
connection: ``check algebra``, through the covariant derivative of
`photon_state`, and ``check polarization``, through `berry_loop`; no
reported route does (the photon picture works on E(k), which is gauge
free).  So `PolarizationBasis.connection` derives it on its first call and
keeps it: `chart_basis` derives nothing, `build_basis` derives it before
returning.  The gauge changes only through
`photonam.photon_state.gauge_transform`, which re-phases a state and its
basis together.

A single chart cannot cover the sphere smoothly; points within ``EPS_POLE``
of the chart axis (`PolarizationBasis.pole_mask`) carry the limiting basis
of an azimuth-0 approach, ``(cos(theta) u - sin(theta) a + i v)/sqrt(2)``
in a fixed right-handed frame (u, v, a), projected onto the plane normal to
n and renormalized where k is off the axis itself.  Beams and test states
are constructed away from the poles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (LEVI_CIVITA, cross, reflect_conjugate, spectral_gradient_k, _along, _at_origin, _in_region, _norm,
                    _over_slabs, _readonly)

EPS_POLE = 1e-6  # radians


@dataclass(frozen=True, repr=False, eq=False)
class PolarizationBasis:
    """The circular basis of one chart axis on one grid, with its gauge.

    The vectors e(k) are derived on request, one component per call of `e`,
    in closed form from the chart axis, and re-phased by
    ``exp(-i gauge_phase)``; the chart poles likewise (`pole_mask`).
    ``gauge_phase`` is the chart phase accumulated by gauge transforms
    (`photonam.photon_state.gauge_transform`), None in the construction gauge.
    ``alpha_base`` is the connection of the construction gauge: covariant
    derivatives are evaluated there (exactly gauge covariant) and re-phased
    afterwards.  It is None until `connection` derives it and keeps it; `e`,
    `pole_mask` and every stage of a report or a file conversion never read it.
    """

    grid: object
    chart_axis: np.ndarray              # unit 3-vector
    gauge_phase: np.ndarray = None      # accumulated chart phase; None in the construction gauge
    alpha_base: np.ndarray = None       # (3, nx, ny, nz) real; None until `connection`

    def connection(self):
        """``alpha_base``, derived on the first call and kept."""
        if self.alpha_base is None:
            object.__setattr__(self, "alpha_base", _readonly(_derive_connection(self.grid, self.chart_axis)))
        return self.alpha_base

    def e(self, i, out=None):
        """Component `i` of the polarization vector e(k) in the current gauge.

        With `out` (a complex grid array) the component is written there and
        `out` returned.  The k_x slabs are filled on the THREADS workers.
        """
        if out is None:
            out = np.empty(self.grid.dims, dtype=complex)
        _over_slabs(self.grid, 0, lambda region: self._e_slab(i, region, out[region]))
        return out

    def _e_slab(self, i, region, out):
        """Component `i` of e(k) on the slab `region` (`grids._over_slabs`), written into `out`.

        Evaluates ``((a x k) x k + i |k| a x k) / (sqrt(2) |k| |a x k|)``,
        the closed form of the module docstring multiplied through by
        |k|^2.  `out` (complex) has the shape of the slab and is scratch too;
        one real array of that shape is allocated, and one complex one more
        when a gauge phase is present.  Equal, bit for bit, to the slab of `e`.
        """
        grid, axis = self.grid, self.chart_axis
        re, im = out.real, out.imag
        kmag = np.empty(out.shape)
        c, poles = _chart_geometry(grid, axis, region, kmag, cnorm=im, scratch=re)
        pts = np.nonzero(poles)
        del poles
        im[pts] = 1.0
        kmag *= im
        k = [_along(a, ax) for ax, a in enumerate(_in_region(grid.k_axes, region))]
        p, q = (i + 1) % 3, (i + 2) % 3
        np.subtract(c[p] * k[q], c[q] * k[p], out=re)
        re /= kmag                              # theta_hat_i / sqrt(2)
        np.divide(c[i], im, out=im)             # phi_hat_i / sqrt(2)
        if pts[0].size:
            at = tuple(idx + (r.start or 0) for idx, r in zip(pts, region))
            re[pts], im[pts] = _pole_limit(grid, axis, at, i)
        if self.gauge_phase is not None:
            phase = np.multiply(self.gauge_phase[region], -1j)
            out *= np.exp(phase, out=phase)

    def pole_mask(self):
        """Boolean grid mask of the chart poles, the excluded k=0 bin included."""
        kmag, cnorm, scratch = (np.empty(self.grid.dims) for _ in range(3))
        return _chart_geometry(self.grid, self.chart_axis, (slice(None),) * 3, kmag, cnorm, scratch)[1]


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


def _chart_geometry(grid, axis, region, kmag, cnorm, scratch):
    """a x k, |k| and the pole points of the chart axis `a` on `region` of `grid`, three slices of its axes.

    Returns ``(c, poles)``: the three components of a x k as broadcasting
    2-d arrays and the mask of the points within EPS_POLE of the axis plus
    the excluded bin.  |k|, with 1 at the excluded bin, is written into
    `kmag` and sqrt(2) |a x k| into `cnorm`; `scratch` is overwritten; all
    three have the shape of the region.  The components of a x k are formed
    from exact products, so they keep full relative accuracy where the
    products cancel near the axis: the direction of a x k, and every vector
    derived from it, stays accurate to rounding however close k comes to
    the axis.
    """
    axes = _in_region(grid.k_axes, region)
    k = [_along(a, ax) for ax, a in enumerate(axes)]
    c = []
    for j in range(3):
        p, q = (j + 1) % 3, (j + 2) % 3
        h1, l1 = _two_product(axis[p], k[q])
        h2, l2 = _two_product(axis[q], k[p])
        c.append((h1 - h2) + (l1 - l2))
    at_zero = _at_origin(region)            # the region holds the excluded bin
    _norm(axes, out=kmag)
    if at_zero:
        kmag[0, 0, 0] = 1.0
    np.add(2.0 * c[0] * c[0], 2.0 * c[1] * c[1], out=cnorm)
    cnorm += 2.0 * c[2] * c[2]
    np.sqrt(cnorm, out=cnorm)
    np.multiply(kmag, np.sqrt(2.0) * EPS_POLE, out=scratch)
    poles = cnorm < scratch                 # sin(theta) < EPS_POLE
    if at_zero:
        poles[0, 0, 0] = True               # direction undefined there
    return c, poles


def _pole_limit(grid, axis, pts, i):
    """Component `i` of the basis vector at the chart poles `pts`, as its real and imaginary parts.

    The limit of an azimuth-0 approach, ``(cos(theta) u - sin(theta) a +
    i v)/sqrt(2)``, is transverse only on the chart axis itself.  Where it
    is not (k within EPS_POLE of the axis but off it), it is projected onto
    the plane normal to n and renormalized, so e.n = 0 and e*.e = 1 to
    rounding at every pole.  The excluded k=0 bin keeps the limit of the
    placeholder direction z of `GridPair.nhat`.
    """
    n = np.stack([a[idx] for a, idx in zip(grid.k_axes, pts)])
    kmag = np.linalg.norm(n, axis=0)
    n /= np.where(kmag == 0.0, 1.0, kmag)
    n[:, kmag == 0.0] = ((0.0,), (0.0,), (1.0,))
    ca = axis[0] * n[0] + axis[1] * n[1] + axis[2] * n[2]
    st = np.linalg.norm(np.cross(axis, n, axis=0), axis=0)
    u, v = _chart_frame(axis)
    re = (ca * u[:, None] - st * axis[:, None]) / np.sqrt(2.0)
    im = np.repeat(v[:, None] / np.sqrt(2.0), n.shape[1], axis=1)
    n_re, n_im = (n[0] * x[0] + n[1] * x[1] + n[2] * x[2] for x in (re, im))
    off = ((n_re != 0.0) | (n_im != 0.0)) & (kmag > 0.0)
    re[:, off] -= n_re[off] * n[:, off]
    im[:, off] -= n_im[off] * n[:, off]
    size = np.sqrt(np.sum(re[:, off] ** 2 + im[:, off] ** 2, axis=0))
    re[:, off] /= size
    im[:, off] /= size
    return re[i], im[i]


def chart_basis(grid, chart_axis=(0.0, 0.0, 1.0)):
    """The circular basis of `chart_axis` on `grid`, its connection not yet derived.

    Validates the axis and allocates no grid array: the stages that read
    only e(k) (beams, synthesis, analysis) never pay for the connection.
    """
    _chart_frame(chart_axis)        # a non-unit axis fails before any grid array exists
    return PolarizationBasis(grid=grid, chart_axis=_readonly(np.asarray(chart_axis, dtype=float)))


def build_basis(grid, chart_axis=(0.0, 0.0, 1.0)):
    """Construct the circular basis and its connection on `grid`.

    `chart_basis` with its `connection` derived before returning.  At every
    non-pole point the seven transversality/handedness identities hold to
    rounding; see `identity_residuals`.  The connection is fixed only up to a
    gauge transformation, the operational check being the curvature relation
    exercised by `photonam.algebra_checks.check_curvature`.
    """
    basis = chart_basis(grid, chart_axis)
    basis.connection()
    return basis


def _derive_connection(grid, axis):
    """alpha_j = -sum_c Im(e_c* d_j e_c) in the construction gauge, one component of e at a time.

    Each product e_c* d_j e_c and its subtraction run in k_x slabs on the
    THREADS workers, e_c* written over e_c, so no worker allocates.
    """
    construction = PolarizationBasis(grid=grid, chart_axis=axis)
    alpha = np.zeros((3,) + grid.dims)
    e = np.empty(grid.dims, dtype=complex)

    def finish(region):
        grad_slab = grad[(slice(None),) + region]
        grad_slab *= np.conjugate(e[region], out=e[region])
        alpha[(slice(None),) + region] -= grad_slab.imag

    for comp in range(3):
        construction.e(comp, out=e)
        grad = spectral_gradient_k(grid, e)
        _over_slabs(grid, 0, finish)
        del grad        # before the next component's gradient is allocated
    return alpha


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

    alpha = basis.connection()
    if basis.gauge_phase is not None:      # the connection of the current gauge
        alpha = alpha + spectral_gradient_k(grid, basis.gauge_phase)

    def edge(axis, fixed, lo, hi):
        """Trapezoidal integral of alpha_axis along the edge from index lo to hi."""
        run = np.arange(lo, hi + 1)
        index = (run % nx, fixed % ny, cz) if axis == 0 else (fixed % nx, run % ny, cz)
        vals = alpha[axis][index]
        return grid.dk[axis] * (vals.sum() - 0.5 * (vals[0] + vals[-1]))

    # the four edges counterclockwise: +x at lo_y, +y at hi_x, -x at hi_y, -y at lo_x
    loop = (edge(0, lo_y, lo_x, hi_x) + edge(1, hi_x, lo_y, hi_y)
            - edge(0, hi_y, lo_x, hi_x) - edge(1, lo_x, lo_y, hi_y))

    kx, ky, kz = grid.k_axes
    corners = [(lo_x, lo_y), (hi_x, lo_y), (hi_x, hi_y), (lo_x, hi_y)]
    expected = -solid_angle_quad(*[np.array([kx[i % nx], ky[j % ny], kz[cz]]) for i, j in corners])

    return float(loop), float(expected), float(abs(loop - expected))
