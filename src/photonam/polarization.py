"""Transverse circular-polarization basis on the momentum grid.

The basis vector at each momentum point is ``e(k) = (theta_hat + i phi_hat)/sqrt(2)``
built from spherical angles about a configurable chart axis, together with the
Berry-type connection ``alpha_j = -Im[e* . d_j e]`` obtained with the same
finite-difference stencil as every other k derivative in the package.

A single chart cannot cover the sphere smoothly; points within ``eps_pole``
of the chart axis are recorded in ``pole_points`` and carry the limiting
basis of an azimuth-0 approach.  Beams and test states are constructed away
from the poles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grids import LEVI_CIVITA, cross, reflect_conjugate, spectral_gradient_k, _readonly

EPS_POLE = 1e-6  # radians


@dataclass(frozen=True)
class PolarizationBasis:
    """Polarization vectors e(k), connection alpha(k) and gauge bookkeeping.

    ``alpha`` is the connection in the current gauge; ``alpha_base`` and
    ``gauge_phase`` keep the construction gauge and the accumulated chart
    phase so that covariant derivatives can be evaluated in the construction
    gauge (exactly gauge covariant) and re-phased afterwards.  Until a gauge
    transform, ``alpha_base`` is the same read-only array as ``alpha`` and
    ``gauge_phase`` is a zero-stride view of one zero.
    """

    e: np.ndarray              # (3, nx, ny, nz) complex
    alpha: np.ndarray          # (3, nx, ny, nz) real, current gauge
    chart_axis: np.ndarray     # unit 3-vector
    pole_points: np.ndarray    # (npole, 3) integer grid indices
    pole_mask: np.ndarray      # boolean grid mask
    alpha_base: np.ndarray     # connection of the construction gauge
    gauge_phase: np.ndarray    # accumulated phase field, zeros at construction

    @property
    def has_gauge_phase(self):
        return bool(np.any(self.gauge_phase))


def _chart_frame(axis):
    """Deterministic right-handed frame (u, v, axis)."""
    axis = np.asarray(axis, dtype=float)
    if abs(np.linalg.norm(axis) - 1.0) > 1e-12:
        raise ValueError("chart_axis must be a unit vector")
    trial = np.eye(3)[np.argmin(np.abs(axis))]
    u = trial - np.dot(trial, axis) * axis
    u /= np.linalg.norm(u)
    v = np.cross(axis, u)
    return u, v


def build_basis(grid, chart_axis=(0.0, 0.0, 1.0), eps_pole=EPS_POLE):
    """Construct the circular basis and its connection on `grid`.

    At every non-pole point the seven transversality/handedness identities
    hold to rounding; see `identity_residuals`.  The connection is fixed only
    up to a gauge transformation, the operational check being the curvature
    relation exercised by `photonam.algebra_checks.check_curvature`.
    """
    u, v, = _chart_frame(chart_axis)
    axis = np.asarray(chart_axis, dtype=float)

    # n . axis, n . u, n . v, deriving n one component at a time
    ca, nu, nv = (np.empty(grid.dims) for _ in range(3))
    for j in range(3):
        n = grid.nhat(j)
        for dot, vec in ((ca, axis), (nu, u), (nv, v)):
            if j == 0:
                np.multiply(vec[0], n, out=dot)
            else:
                dot += vec[j] * n
    del n, dot
    np.clip(ca, -1.0, 1.0, out=ca)
    st = np.sqrt(np.clip(1.0 - ca * ca, 0.0, None))
    pole_mask = st < eps_pole
    pole_mask[grid.excluded_index] = True  # direction undefined there

    st_safe = np.where(pole_mask, 1.0, st)
    cphi = np.where(pole_mask, 1.0, nu / st_safe)   # azimuth-0 limit at poles
    sphi = np.where(pole_mask, 0.0, nv / st_safe)
    del nu, nv, st_safe

    shape = (3,) + grid.dims
    e = np.empty(shape, dtype=complex)
    for i in range(3):
        theta_hat = ca * (cphi * u[i] + sphi * v[i]) - st * axis[i]
        phi_hat = -sphi * u[i] + cphi * v[i]
        e[i] = (theta_hat + 1j * phi_hat) / np.sqrt(2.0)
    del ca, st, cphi, sphi, theta_hat, phi_hat  # free before the derivatives

    # alpha_j = -sum_c Im(e_c* d_j e_c), one component at a time
    alpha = np.zeros(shape)
    for comp in range(3):
        grad = spectral_gradient_k(grid, e[comp], boundary="ignore")
        np.multiply(np.conj(e[comp]), grad, out=grad)
        alpha -= grad.imag
        del grad        # before the next component's gradient is allocated

    alpha = _readonly(alpha)
    return PolarizationBasis(
        e=_readonly(e),
        alpha=alpha,
        chart_axis=_readonly(axis),
        pole_points=_readonly(np.argwhere(pole_mask)),
        pole_mask=_readonly(pole_mask),
        alpha_base=alpha,
        gauge_phase=np.broadcast_to(0.0, grid.dims),
    )


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
    grad_phi = spectral_gradient_k(grid, phi, boundary="ignore")
    return replace(
        basis,
        e=_readonly(np.exp(-1j * phi) * basis.e),
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
    ok = ~basis.pole_mask
    ok[grid.excluded_index] = False
    e = basis.e
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
    ok_pair = ok & ~np.roll(np.flip(basis.pole_mask, axis=(0, 1, 2)), (1, 1, 1), axis=(0, 1, 2))
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


def berry_loop(grid, basis, center, half_cells, plane_axis=2):
    """Discrete loop integral of alpha around a grid-aligned square circuit.

    The square lies in the plane normal to `plane_axis`, centred at the grid
    point nearest `center`, with half-side ``half_cells`` grid steps.  The
    loop is traversed counterclockwise as seen from the positive axis side.

    Returns ``(loop_integral, expected, abs_error)`` where `expected` is the
    flux of the helicity +1 curvature ``-n/|k|^2`` through the square, i.e.
    minus the solid angle the square subtends at the origin (independent
    geometric oracle for the Stokes check).
    """
    ax_a, ax_b = [ax for ax in range(3) if ax != plane_axis]
    centre_idx = [int(np.argmin(np.abs(grid.k_axes[ax] - center[ax]))) for ax in range(3)]
    h = int(half_cells)

    lo_a, hi_a = centre_idx[ax_a] - h, centre_idx[ax_a] + h
    lo_b, hi_b = centre_idx[ax_b] - h, centre_idx[ax_b] + h
    n_a, n_b = grid.dims[ax_a], grid.dims[ax_b]
    # stay on the monotone branch (no wraparound through the Nyquist edge)
    for lo, hi, nn in ((lo_a, hi_a, n_a), (lo_b, hi_b, n_b)):
        if not (-(nn // 2) <= lo and hi < nn // 2):
            raise ValueError("loop leaves the momentum grid")

    def idx(ia, ib):
        full = [0, 0, 0]
        full[ax_a] = ia % n_a
        full[ax_b] = ib % n_b
        full[plane_axis] = centre_idx[plane_axis]
        return tuple(full)

    # corner order: counterclockwise in the (a, b) plane
    corners = [(lo_a, lo_b), (hi_a, lo_b), (hi_a, hi_b), (lo_a, hi_b)]
    da = grid.dk[ax_a]
    db = grid.dk[ax_b]

    def edge_sum(c0, c1, axis, step):
        """Trapezoidal line integral of alpha.axis between two corners."""
        points = []
        if axis == ax_a:
            points = [idx(i, c0[1]) for i in range(min(c0[0], c1[0]), max(c0[0], c1[0]) + 1)]
            dl = da
        else:
            points = [idx(c0[0], j) for j in range(min(c0[1], c1[1]), max(c0[1], c1[1]) + 1)]
            dl = db
        vals = np.array([basis.alpha[(axis,) + p] for p in points])
        return step * dl * (vals.sum() - 0.5 * (vals[0] + vals[-1]))

    loop = 0.0
    loop += edge_sum(corners[0], corners[1], ax_a, +1)
    loop += edge_sum(corners[1], corners[2], ax_b, +1)
    loop += edge_sum(corners[3], corners[2], ax_a, -1)
    loop += edge_sum(corners[0], corners[3], ax_b, -1)

    kpts = []
    for ia, ib in corners:
        p = np.empty(3)
        p[ax_a] = grid.k_axes[ax_a][ia % n_a]
        p[ax_b] = grid.k_axes[ax_b][ib % n_b]
        p[plane_axis] = grid.k_axes[plane_axis][centre_idx[plane_axis]]
        kpts.append(p)
    expected = -solid_angle_quad(*kpts)

    return float(loop), float(expected), float(abs(loop - expected))
