import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import photonam as pn
from photonam.grids import spectral_gradient_k
from photonam.polarization import EPS_POLE, _chart_frame
from photonam.rotations import rotate_basis, rotation_matrix

from conftest import e_stack, nhat_stack, rel, smooth_state


IDENTITY_TOL = 1e-12


def test_identities_pointwise(grid16, basis16):
    res = pn.identity_residuals(grid16, basis16)
    assert set(res) == {"k_cross_e", "e_dot_e", "estar_dot_e", "estar_cross_e",
                        "e_cross_e", "dyadic", "reflection"}
    for name, v in res.items():
        assert v <= IDENTITY_TOL, name


def test_identities_tilted_chart(grid16):
    axis = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    basis = pn.build_basis(grid16, tuple(axis))
    for name, v in pn.identity_residuals(grid16, basis).items():
        assert v <= IDENTITY_TOL, name


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3))
def test_identities_hold_for_any_chart_axis(raw):
    """Rounding-level identities at every non-pole point, however close the grid comes to the axis."""
    axis = np.asarray(raw) / np.linalg.norm(raw)
    for grid in (pn.make_grid(16), pn.make_grid((16, 12, 20), (1.0, 0.8, 1.3))):
        basis = pn.build_basis(grid, tuple(axis))
        for name, v in pn.identity_residuals(grid, basis).items():
            assert v <= IDENTITY_TOL, name


def _spherical_e(grid, axis):
    """Reference: (theta_hat + i phi_hat)/sqrt(2) from the polar and azimuthal angles in the frame (u, v, a).

    Poles (and the excluded bin, direction z) take the azimuth-0 limit.  sin(theta) is taken as
    hypot(n.u, n.v); sqrt(1 - cos^2(theta)) would lose half the digits near the axis.
    """
    u, v = _chart_frame(axis)
    n = nhat_stack(grid)
    ca, nu, nv = (np.einsum("i,i...->...", w, n) for w in (axis, u, v))
    sin_t = np.hypot(nu, nv)
    pole = sin_t < EPS_POLE
    pole[grid.excluded_index] = True
    safe = np.where(pole, 1.0, sin_t)
    cphi = np.where(pole, 1.0, nu / safe)
    sphi = np.where(pole, 0.0, nv / safe)
    col = (slice(None), None, None, None)
    theta_hat = ca * (cphi * u[col] + sphi * v[col]) - sin_t * axis[col]
    phi_hat = -sphi * u[col] + cphi * v[col]
    return (theta_hat + 1j * phi_hat) / np.sqrt(2.0), pole


@pytest.mark.parametrize("dims, spacing", [((48, 40, 56), (1.0, 0.8, 1.3)), ((40, 56, 48), (0.7, 1.1, 0.9))])
@pytest.mark.parametrize("axis", [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), tuple(np.ones(3) / np.sqrt(3.0))])
def test_closed_form_matches_spherical_construction(dims, spacing, axis):
    g = pn.make_grid(dims, spacing)
    b = pn.build_basis(g, axis)
    e_ref, pole_ref = _spherical_e(g, np.asarray(axis))
    assert np.array_equal(b.pole_mask(), pole_ref)
    assert np.abs(e_stack(b) - e_ref).max() <= 1e-13      # pole points and the k=0 bin included
    alpha_ref = np.zeros((3,) + g.dims)
    for c in range(3):
        alpha_ref -= (np.conj(e_ref[c]) * spectral_gradient_k(g, e_ref[c])).imag
    assert np.abs(b.alpha_base - alpha_ref).max() <= 1e-10


def test_pole_limit_values(grid16, basis16):
    g, b = grid16, basis16
    # on the positive chart axis: e = (x + i y)/sqrt(2)
    up = (0, 0, 3)
    expect_up = np.array([1.0, 1.0j, 0.0]) / np.sqrt(2.0)
    assert np.abs(e_stack(b)[(slice(None),) + up] - expect_up).max() < 1e-14
    # e* x e = i z there
    e = e_stack(b)[(slice(None),) + up]
    cr = np.cross(np.conj(e), e)
    assert np.abs(cr - 1j * np.array([0, 0, 1.0])).max() < 1e-14
    # negative axis: azimuth-0 limit gives (-x + i y)/sqrt(2)
    down = (0, 0, g.dims[2] - 3)
    expect_down = np.array([-1.0, 1.0j, 0.0]) / np.sqrt(2.0)
    assert np.abs(e_stack(b)[(slice(None),) + down] - expect_down).max() < 1e-14


@pytest.mark.parametrize("dims", [16, (24, 20, 16)])
@pytest.mark.parametrize("line", [0, 1, 2])
def test_poles_of_a_chart_just_off_a_grid_line_are_transverse_unit_vectors(dims, line):
    """A chart 1e-7 rad off a k axis: pole points lie near that axis but not on it.

    There the azimuth-0 limit is off the plane normal to n by about 1e-7; the
    basis must still satisfy e.n = 0 and e*.e = 1 to rounding at every k != 0.
    """
    g = pn.make_grid(dims)
    axis = np.zeros(3)
    axis[line], axis[(line + 1) % 3] = np.cos(1e-7), np.sin(1e-7)
    b = pn.chart_basis(g, tuple(axis))
    poles = b.pole_mask()
    poles[0, 0, 0] = False
    assert poles.sum() == g.dims[line] - 1       # every other point of the k axis is a pole
    e, n = e_stack(b), nhat_stack(g)
    away = np.ones(g.dims, dtype=bool)
    away[0, 0, 0] = False
    assert np.abs(np.einsum("i...,i...->...", e, n))[away].max() <= 1e-15
    assert np.abs(np.einsum("i...,i...->...", np.conj(e), e) - 1.0)[away].max() <= 1e-15


def test_pole_points_lie_on_axis(grid16, basis16):
    for idx in np.argwhere(basis16.pole_mask()):
        assert idx[0] == 0 and idx[1] == 0  # kx = ky = 0 line


def test_alpha_is_real_and_finite(basis16):
    assert basis16.alpha_base.dtype.kind == "f"
    assert np.all(np.isfinite(basis16.alpha_base))


def test_non_unit_axis_rejected(grid16):
    for axis in ((0.0, 0.0, 2.0), (np.nan, 0.0, 1.0), (0.0, 0.0, 0.0)):
        for construct in (pn.build_basis, pn.chart_basis):
            with pytest.raises(ValueError, match="unit"):
                construct(grid16, axis)


def test_construction_is_deterministic(grid16):
    b1 = pn.build_basis(grid16)
    b2 = pn.build_basis(grid16)
    assert np.array_equal(e_stack(b1), e_stack(b2))
    assert np.array_equal(b1.alpha_base, b2.alpha_base)


CHARTS = [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), tuple(np.ones(3) / np.sqrt(3.0))]


@pytest.mark.parametrize("axis", CHARTS)
def test_lazy_connection_is_bit_equal_to_build_basis(axis):
    g = pn.make_grid((16, 12, 20))
    eager = pn.build_basis(g, axis)
    lazy = pn.chart_basis(g, axis)
    assert lazy.alpha_base is None and lazy.gauge_phase is None
    assert np.array_equal(e_stack(lazy), e_stack(eager))
    assert np.array_equal(lazy.connection(), eager.alpha_base)
    assert lazy.connection() is lazy.alpha_base and not lazy.alpha_base.flags.writeable


def test_transforms_of_a_lazy_basis_equal_those_of_an_eager_one(grid16):
    """gauge_transform and rotate_basis give the same basis from a lazy and an eager one, bit for bit."""
    eager = pn.build_basis(grid16)
    phi = 0.3 * grid16.kvec[0] * grid16.kvec[1]
    zero = np.zeros(grid16.dims)
    for make in (lambda b: pn.gauge_transform(pn.wavefunction(grid16, b, zero, zero), phi).basis,
                 lambda b: rotate_basis(grid16, b, rotation_matrix("x"))):
        a, b = make(eager), make(pn.chart_basis(grid16))
        assert np.array_equal(a.connection(), b.connection())
        assert (a.gauge_phase is None) == (b.gauge_phase is None)
        assert a.gauge_phase is None or np.array_equal(a.gauge_phase, b.gauge_phase)
        assert np.array_equal(e_stack(a), e_stack(b))


def _fd_curl_alpha(grid, basis):
    curls = []
    grads = [spectral_gradient_k(grid, basis.alpha_base[j]) for j in range(3)]
    # (curl alpha)_l = d_i alpha_j - d_j alpha_i cyclic
    curls.append(grads[2][1] - grads[1][2])
    curls.append(grads[0][2] - grads[2][0])
    curls.append(grads[1][0] - grads[0][1])
    return np.stack(curls)


def test_connection_curvature_matches_monopole():
    """curl alpha = -n/|k|^2 away from poles, second-order accurate."""
    errs = []
    for n in (32, 64):
        g = pn.make_grid(n)
        b = pn.build_basis(g)
        curl = _fd_curl_alpha(g, b)
        kmag = g.kmag()
        expect = -nhat_stack(g) / np.where(kmag == 0, 1.0, kmag) ** 2
        # interior points far from the chart axis, the origin and the boundary
        kx, ky = g.kvec[0], g.kvec[1]
        axis_dist = np.hypot(kx, ky)
        sel = (axis_dist > 0.9) & (kmag > 1.0) & (kmag < 2.4)
        err = np.abs((curl - expect))[:, sel].max()
        errs.append(err)
    assert errs[0] / errs[1] > 3.0


def test_berry_loop_solid_angle_convergence():
    errs = []
    expecteds = []
    for n in (32, 64, 128):
        g = pn.make_grid(n)
        b = pn.build_basis(g)
        half = max(1, round(0.4 / g.dk[0]))
        loop, expected, err = pn.berry_loop(g, b, (0.8, 0.6, 1.1), half)
        # orientation: counterclockwise loop encloses negative curvature flux
        assert loop < 0 and expected < 0
        errs.append(err)
        expecteds.append(expected)
    # identical physical loop on the two finer grids: clean O(dk^2)
    assert expecteds[1] == pytest.approx(expecteds[2], rel=1e-12)
    assert errs[1] / errs[2] > 3.0


def test_berry_loop_leaving_grid_rejected(grid16, basis16):
    with pytest.raises(ValueError, match="leaves"):
        pn.berry_loop(grid16, basis16, (0.0, 0.0, 1.0), grid16.dims[0])


def test_gauge_transform_identity_and_constant(grid32, basis32):
    g, b = grid32, basis32
    wf = smooth_state(g, b, seed=2)
    wf0 = pn.gauge_transform(wf, np.zeros(g.dims))
    b0 = wf0.basis
    assert rel(e_stack(b0), e_stack(b)) < 1e-15
    assert b0.alpha_base is b.alpha_base            # carried over, not derived again
    assert rel(wf0.gL, wf.gL) < 1e-15 and rel(wf0.gR, wf.gR) < 1e-15

    wfc = pn.gauge_transform(wf, np.full(g.dims, 0.8))
    assert rel(e_stack(wfc.basis), np.exp(-0.8j) * e_stack(b)) < 1e-15
    assert rel(wfc.gL, np.exp(0.8j) * wf.gL) < 1e-15 and rel(wfc.gR, np.exp(-0.8j) * wf.gR) < 1e-15
    # gradient of a constant vanishes (edge stencils leave rounding dust)
    loop = pn.berry_loop(g, b, (0.8, 0.6, 1.1), 3)[0]
    assert abs(pn.berry_loop(g, wfc.basis, (0.8, 0.6, 1.1), 3)[0] - loop) < 1e-13


def test_gauge_transform_linear_shifts_alpha(grid32, basis32):
    g, b = grid32, basis32
    a = np.array([0.4, -0.9, 0.25])
    phi = a[0] * g.kvec[0] + a[1] * g.kvec[1] + a[2] * g.kvec[2]
    zero = np.zeros(g.dims)
    bl = pn.gauge_transform(pn.wavefunction(g, b, zero, zero), phi).basis
    # second-order stencils are exact on linear phases, edges included
    grad = spectral_gradient_k(g, bl.gauge_phase)
    for j in range(3):
        assert np.abs(grad[j] - a[j]).max() < 1e-12
    assert np.abs(bl.gauge_phase - phi).max() == 0.0
    # the construction gauge is carried over, not copied, and its phase accumulates
    assert b.gauge_phase is None and bl.alpha_base is b.alpha_base
    twice = pn.gauge_transform(pn.wavefunction(g, bl, zero, zero), phi).basis
    assert np.array_equal(twice.gauge_phase, phi + phi) and twice.alpha_base is b.alpha_base
    # the loop integral of a gradient vanishes: the Berry loop is gauge invariant
    loop = pn.berry_loop(g, b, (0.8, 0.6, 1.1), 3)[0]
    assert abs(pn.berry_loop(g, bl, (0.8, 0.6, 1.1), 3)[0] - loop) < 1e-12


def test_gauge_transform_shape_check(grid32, basis32):
    zero = np.zeros(grid32.dims)
    with pytest.raises(ValueError, match="shape"):
        pn.gauge_transform(pn.wavefunction(grid32, basis32, zero, zero), np.zeros((4, 4, 4)))


def _closed_form_connection(grid, axis):
    """The connection (a.n)(a x n) / (|k| |a x n|^2) of (theta_hat + i phi_hat)/sqrt(2), and |a x n|."""
    n = nhat_stack(grid)
    kmag = np.where(grid.kmag() == 0.0, 1.0, grid.kmag())
    an = np.einsum("i,i...->...", axis, n)
    axn = np.cross(axis, n, axis=0)
    sin2 = np.sum(axn ** 2, axis=0)
    return an * axn / (kmag * np.where(sin2 == 0.0, 1.0, sin2)), np.sqrt(sin2)


@pytest.mark.parametrize("axis", [(0.0, 0.0, 1.0), (0.6, 0.8, 0.0)])
def test_connection_converges_to_closed_form(axis):
    """The FD connection approaches the closed form at second order, on the k points 32^3 and 64^3 share."""
    axis = np.asarray(axis)
    errs, scale = [], None
    for n, step in ((32, 1), (64, 2)):
        g = pn.make_grid(n)
        oracle, sin_t = _closed_form_connection(g, axis)
        every = (slice(None, None, step),) * 3
        kmag = g.kmag()[every]
        k_inner = np.all([np.abs(g.kvec[j][every]) < 0.8 * np.pi for j in range(3)], axis=0)
        sel = (kmag > 0.4 * np.pi) & (sin_t[every] > 0.5) & k_inner
        alpha = pn.build_basis(g, tuple(axis)).alpha_base[(slice(None),) + every][:, sel]
        oracle = oracle[(slice(None),) + every][:, sel]
        scale = np.abs(oracle).max()
        errs.append(np.abs(alpha - oracle).max())
        # negative control: the opposite sign is off by about twice the connection
        assert np.abs(alpha + oracle).max() > 1.5 * scale
    assert errs[1] <= 0.02 * scale
    assert errs[0] / errs[1] >= 3.5, errs
