import numpy as np
import pytest

import photonam as pn
from photonam.grids import spectral_gradient_k

from conftest import nhat_stack, rel


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


def test_pole_limit_values(grid16, basis16):
    g, b = grid16, basis16
    # on the positive chart axis: e = (x + i y)/sqrt(2)
    up = (0, 0, 3)
    expect_up = np.array([1.0, 1.0j, 0.0]) / np.sqrt(2.0)
    assert np.abs(b.e[(slice(None),) + up] - expect_up).max() < 1e-14
    # e* x e = i z there
    e = b.e[(slice(None),) + up]
    cr = np.cross(np.conj(e), e)
    assert np.abs(cr - 1j * np.array([0, 0, 1.0])).max() < 1e-14
    # negative axis: azimuth-0 limit gives (-x + i y)/sqrt(2)
    down = (0, 0, g.dims[2] - 3)
    expect_down = np.array([-1.0, 1.0j, 0.0]) / np.sqrt(2.0)
    assert np.abs(b.e[(slice(None),) + down] - expect_down).max() < 1e-14


def test_pole_points_lie_on_axis(grid16, basis16):
    for idx in basis16.pole_points:
        assert idx[0] == 0 and idx[1] == 0  # kx = ky = 0 line


def test_alpha_is_real_and_finite(basis16):
    assert basis16.alpha.dtype.kind == "f"
    assert np.all(np.isfinite(basis16.alpha))


def test_non_unit_axis_rejected(grid16):
    for axis in ((0.0, 0.0, 2.0), (np.nan, 0.0, 1.0), (0.0, 0.0, 0.0)):
        with pytest.raises(ValueError, match="unit"):
            pn.build_basis(grid16, axis)


def test_construction_is_deterministic(grid16):
    b1 = pn.build_basis(grid16)
    b2 = pn.build_basis(grid16)
    assert np.array_equal(b1.e, b2.e)
    assert np.array_equal(b1.alpha, b2.alpha)


def _fd_curl_alpha(grid, basis):
    curls = []
    grads = [spectral_gradient_k(grid, basis.alpha[j], boundary="ignore") for j in range(3)]
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
    b0 = pn.gauge_transform(g, b, np.zeros(g.dims))
    assert rel(b0.e, b.e) < 1e-15
    assert np.abs(b0.alpha - b.alpha).max() < 1e-15

    phi = np.full(g.dims, 0.8)
    bc = pn.gauge_transform(g, b, phi)
    assert rel(bc.e, np.exp(-0.8j) * b.e) < 1e-15
    # gradient of a constant vanishes (edge stencils leave rounding dust)
    assert np.abs(bc.alpha - b.alpha).max() < 1e-13


def test_gauge_transform_linear_shifts_alpha(grid32, basis32):
    g, b = grid32, basis32
    a = np.array([0.4, -0.9, 0.25])
    phi = a[0] * g.kvec[0] + a[1] * g.kvec[1] + a[2] * g.kvec[2]
    bl = pn.gauge_transform(g, b, phi)
    # second-order stencils are exact on linear phases, edges included
    for j in range(3):
        assert np.abs(bl.alpha[j] - b.alpha[j] - a[j]).max() < 1e-12
    assert np.abs(bl.gauge_phase - phi).max() == 0.0
    # the construction gauge is shared with alpha, not copied, until a transform
    assert b.alpha_base is b.alpha and bl.alpha_base is b.alpha
    assert not b.has_gauge_phase and b.gauge_phase.strides == (0, 0, 0)
    assert bl.has_gauge_phase


def test_gauge_transform_shape_check(grid32, basis32):
    with pytest.raises(ValueError, match="shape"):
        pn.gauge_transform(grid32, basis32, np.zeros((4, 4, 4)))
