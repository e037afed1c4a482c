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
with the finite-difference stencil of `grids`.  It has two readers, the
covariant derivatives of `photon_state`: that of ``check algebra`` and the
stacked `photon_state.covariant_derivative`, which no command calls.  No
report reads it (E(k) is gauge free), nor ``check polarization``, whose
Berry phase is a Wilson loop of e(k) (`berry_loop`).  So
`PolarizationBasis.connection` derives it on its first call and keeps it:
`chart_basis` derives nothing, `build_basis` derives it before returning.
The gauge changes only through `photonam.photon_state.gauge_transform`,
which re-phases a state and its basis together.

A single chart cannot cover the sphere smoothly; points within ``EPS_POLE``
of the chart axis (`_chart_geometry`) carry the limiting basis
of an azimuth-0 approach, ``(cos(theta) u - sin(theta) a + i v)/sqrt(2)``
in a fixed right-handed frame (u, v, a); where k is off the axis itself,
its real part is projected onto the plane normal to n and the imaginary
part completes the circular pair.  Beams and test states
are constructed away from the poles.

``check polarization`` verifies the basis on its own grid: the seven
pointwise identities (`identity_residuals`), reduced over k_x slabs like
every other check, and the Berry phase of one square loop (`berry_loop`).
Both take the grid from the basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import (LEVI_CIVITA, cross_component, spectral_gradient_k, _along, _at_origin, _in_region, _kmag, _nhat,
                    _over_slabs, _readonly, _reflected)

EPS_POLE = 1e-6  # radians


@dataclass(frozen=True, repr=False, eq=False)
class PolarizationBasis:
    """The circular basis of one chart axis on one grid, with its gauge.

    The vectors e(k) are derived on request, one component per call of `e`,
    in closed form from the chart axis, and re-phased by
    ``exp(-i gauge_phase)``.
    ``gauge_phase`` is the chart phase accumulated by gauge transforms
    (`photonam.photon_state.gauge_transform`), None in the construction gauge.
    ``alpha_base`` is the connection of the construction gauge: covariant
    derivatives are evaluated there (exactly gauge covariant) and re-phased
    afterwards.  It is None until `connection` derives it and keeps it; `e`
    and every stage of a report or a file conversion never read it.
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
        _over_slabs(self.grid, 0, lambda region: self._e_slab(region, [(i, out[region])]))
        return out

    def _e_slab(self, region, outs):
        """Components of e(k) on the slab `region` (`grids._over_slabs`), each into its own `out`; one pass of `_e_slabs`."""
        for _ in self._e_slabs(region, outs):
            pass

    def _e_slabs(self, region, outs):
        """Components of e(k) on the slab `region` (`grids._over_slabs`), one at a time; yields ``(i, out)`` once it is in.

        `outs` lists pairs ``(i, out)``: component `i` is written into
        `out`, a complex array of the slab's shape, which is scratch too and
        may be the `out` of another pair, refilled once the caller has read
        it.  The chart geometry (`_chart_geometry`) and the vectors at its
        poles (`_pole_limit`) are made once, before the first component;
        each component then evaluates ``((a x k) x k + i |k| a x k) /
        (sqrt(2) |k| |a x k|)``, the closed form of the module docstring
        multiplied through by |k|^2.  One real array of the slab's
        shape, sqrt(2) |a x k|, is kept from the first component to the
        last, and one complex one is allocated per component when a gauge
        phase is present.  Each component is equal, bit for bit, to the slab
        of `e`.
        """
        grid, axis = self.grid, self.chart_axis
        out = outs[0][1]
        cnorm = np.empty(out.shape)
        # |k|, with 1 at the excluded bin, is left in the imaginary part of the first component's buffer
        c, poles = _chart_geometry(grid, axis, region, kmag=out.imag, cnorm=cnorm, scratch=out.real)
        pts = np.nonzero(poles)
        del poles
        cnorm[pts] = 1.0
        at = tuple(idx + (r.start or 0) for idx, r in zip(pts, region))
        if pts[0].size:
            pole_re, pole_im = _pole_limit(grid, axis, at)
        k = [_along(a, ax) for ax, a in enumerate(_in_region(grid.k_axes, region))]
        for n, (i, out) in enumerate(outs):
            re, im = out.real, out.imag
            if n:
                _kmag(grid, region, im)
            im *= cnorm                             # sqrt(2) |k| |a x k|
            cross_component(c, k, i, out=re)
            re /= im                                # theta_hat_i / sqrt(2)
            np.divide(c[i], cnorm, out=im)          # phi_hat_i / sqrt(2)
            if pts[0].size:
                re[pts], im[pts] = pole_re[i], pole_im[i]
            if self.gauge_phase is not None:
                phase = np.multiply(self.gauge_phase[region], -1j)
                out *= np.exp(phase, out=phase)
            yield i, out


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
    the excluded bin.  |k|, with 1 at the excluded bin (`grids._kmag`), is
    written into `kmag` and sqrt(2) |a x k| into `cnorm`; `scratch` is
    overwritten; all three have the shape of the region.  The components of
    a x k are formed from exact products, so they keep full relative
    accuracy where the products cancel near the axis: the direction of
    a x k, and every vector derived from it, stays accurate to rounding
    however close k comes to the axis.
    """
    k = [_along(a, ax) for ax, a in enumerate(_in_region(grid.k_axes, region))]
    c = []
    for j in range(3):
        p, q = (j + 1) % 3, (j + 2) % 3
        h1, l1 = _two_product(axis[p], k[q])
        h2, l2 = _two_product(axis[q], k[p])
        c.append((h1 - h2) + (l1 - l2))
    _kmag(grid, region, kmag)
    np.add(2.0 * c[0] * c[0], 2.0 * c[1] * c[1], out=cnorm)
    cnorm += 2.0 * c[2] * c[2]
    np.sqrt(cnorm, out=cnorm)
    np.multiply(kmag, np.sqrt(2.0) * EPS_POLE, out=scratch)
    poles = cnorm < scratch                 # sin(theta) < EPS_POLE
    if _at_origin(region):
        poles[0, 0, 0] = True               # direction undefined there
    return c, poles


def _pole_limit(grid, axis, pts):
    """The basis vector at the chart poles `pts`, as its real and imaginary parts, each of shape (3, len(pts[0])).

    The limit of an azimuth-0 approach, ``(cos(theta) u - sin(theta) a +
    i v)/sqrt(2)``, is transverse only on the chart axis itself.  Where it
    is not (k within EPS_POLE of the axis but off it), its real part is
    projected onto the plane normal to n and normalized to p, and the
    vector is ``(p + i n x p)/sqrt(2)``: e.n = 0, e*.e = 1 and e.e = 0 to
    rounding at every pole.  The excluded k=0 bin keeps the limit of the
    placeholder direction z of `grids._nhat`.
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
    p = re[:, off] - n_re[off] * n[:, off]
    p /= np.sqrt(2.0) * np.linalg.norm(p, axis=0)
    re[:, off] = p
    im[:, off] = np.cross(n[:, off], p, axis=0)
    return re, im


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

def identity_residuals(basis):
    """Max absolute residual of each basis identity over the usable points of `basis.grid`.

    The dyadic identity is checked in its transverse-complete form
    ``e_i* e_j = (delta_ij - n_i n_j + i eps_ijl n_l) / 2``; contracted with
    transverse fields the ``n_i n_j`` term drops and the familiar shorthand
    ``(delta_ij + i eps_ijl n_l)/2`` is recovered.  e(k) is filled whole
    once; each k_x slab (`grids._over_slabs`) then forms every identity one
    component or dyad entry at a time and returns its seven maxima, the
    reflection row reading e(-k) through `grids._reflected`.
    """
    grid = basis.grid
    e = np.empty((3,) + grid.dims, dtype=complex)
    for i in range(3):
        basis.e(i, out=e[i])

    def slab(region):
        es = e[(slice(None),) + region]
        ok = ~_chart_geometry(grid, basis.chart_axis, region, *(np.empty(es.shape[1:]) for _ in range(3)))[1]
        n = [_nhat(grid, j, region) for j in range(3)]
        ce, mirror = np.conjugate(es), np.empty_like(es[0])
        # e*(k) . e(-k) = 0 needs k and -k usable.  The pole mask is even in k (exact
        # products on k axes odd bin for bin) off the self-aliased Nyquist planes, excluded here
        pair = ok.copy()
        for ax, r in enumerate(region):
            pair[(slice(None),) * ax + (np.arange(grid.dims[ax])[r] == grid.dims[ax] // 2,)] = False

        def worst(rows, usable=ok):
            return max(np.abs(row).max(initial=0.0, where=usable) for row in rows)

        def dot(a, b):
            return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

        return [np.array([
            worst(cross_component(n, es, j) + 1j * es[j] for j in range(3)),     # c k x e = -i omega e, scale free
            worst([dot(es, es)]),
            worst([dot(ce, es) - 1.0]),
            worst(cross_component(ce, es, j) - 1j * n[j] for j in range(3)),
            worst(cross_component(es, es, j) for j in range(3)),
            worst(ce[i] * es[j]
                  - 0.5 * ((i == j) - n[i] * n[j] + 1j * sum(LEVI_CIVITA[i, j, l] * n[l] for l in range(3)))
                  for i in range(3) for j in range(3)),
            # |e*(k) . e(-k)| = |e(k) . R[e](k)|, R[e](k) = conj(e(-k)); each product is made before `mirror` is refilled
            worst([sum(es[i] * _reflected(e[i], region, mirror) for i in range(3))], pair),
        ])]

    names = ("k_cross_e", "e_dot_e", "estar_dot_e", "estar_cross_e", "e_cross_e", "dyadic", "reflection")
    return dict(zip(names, map(float, np.max(_over_slabs(grid, 0, slab), axis=0))))


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


def berry_loop(basis, center, half_cells):
    """Berry phase of e(k) around a grid-aligned square circuit of `basis.grid`: a discrete Wilson loop.

    The square lies in a plane of constant k_z, centred at the grid point
    nearest `center`, with half-side ``half_cells`` grid steps, and may not
    cross the Nyquist edge of k_x or k_y.  The loop is ``-arg prod_i e(k_i)*
    . e(k_{i+1})`` over its grid points, counterclockwise as seen from
    positive k_z (Pancharatnam 1956; Fukui, Hatsugai & Suzuki, J. Phys. Soc.
    Jpn. 74, 1674, 2005): gauge invariant, as the phase of each e(k_i)
    cancels between its two links, and the geodesic solid angle of the
    corners to rounding, as a straight edge in k projects onto a great circle.

    Returns ``(loop, expected, abs_error)`` where `expected` is the flux of
    the helicity +1 curvature ``-n/|k|^2`` through the square, i.e. minus
    the solid angle the square subtends at the origin (independent
    geometric oracle), and `abs_error` their distance modulo 2 pi.
    """
    grid = basis.grid
    nx, ny = grid.dims[0], grid.dims[1]
    cx, cy, cz = [int(np.argmin(np.abs(grid.k_axes[ax] - center[ax]))) for ax in range(3)]
    cx, cy = (c - nn if 2 * c >= nn else c for c, nn in ((cx, nx), (cy, ny)))      # signed, as k is
    h = int(half_cells)
    lo_x, hi_x, lo_y, hi_y = cx - h, cx + h, cy - h, cy + h
    # stay on the monotone branch (no wraparound through the Nyquist edge)
    for lo, hi, nn in ((lo_x, hi_x, nx), (lo_y, hi_y, ny)):
        if not (-(nn // 2) <= lo and hi < nn // 2):
            raise ValueError("loop leaves the momentum grid")

    e = np.empty((3, nx, ny, 1), dtype=complex)
    basis._e_slab((slice(None), slice(None), slice(cz, cz + 1)), list(enumerate(e)))
    # the grid points counterclockwise from the first corner, and back to it
    corners = [(lo_x, lo_y), (hi_x, lo_y), (hi_x, hi_y), (lo_x, hi_y)]
    step = np.arange(2 * h)
    xs, ys = (np.concatenate([a + np.sign(b - a) * step for a, b in zip(c, c[1:])] + [c[:1]])
              for c in zip(*corners + corners[:1]))
    path = e[:, xs % nx, ys % ny, 0]
    loop = -np.angle(np.prod(np.sum(np.conjugate(path[:, :-1]) * path[:, 1:], axis=0)))

    kx, ky, kz = grid.k_axes
    expected = -solid_angle_quad(*[np.array([kx[i % nx], ky[j % ny], kz[cz]]) for i, j in corners])

    return float(loop), float(expected), abs(math.remainder(loop - expected, 2.0 * math.pi))
