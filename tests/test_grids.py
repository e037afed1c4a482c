import numpy as np
import pytest

import photonam as pn
from photonam.grids import (
    BoundaryDecayError,
    boundary_margin,
    reflect_conjugate,
)

from conftest import rel


def test_units_defaults_and_mu0():
    u = pn.UnitsConfig()
    assert u.c == u.hbar == u.eps0 == 1.0
    assert u.mu0 == 1.0
    u2 = pn.UnitsConfig(c=2.0, eps0=4.0)
    assert u2.mu0 == pytest.approx(1.0 / 16.0)


@pytest.mark.parametrize("bad", [dict(c=0.0), dict(hbar=-1.0), dict(eps0=0.0)])
def test_units_must_be_positive(bad):
    with pytest.raises(ValueError):
        pn.UnitsConfig(**bad)


def test_grid_spacing_and_weights():
    g = pn.make_grid((8, 8, 8))
    assert g.dk == pytest.approx((np.pi / 4,) * 3)
    assert g.dVk == pytest.approx((np.pi / 4) ** 3)
    assert g.dV == 1.0
    # exactly one excluded point, at the zero bin
    assert g.wk[0, 0, 0] == 0.0
    assert np.count_nonzero(g.wk == 0.0) == 1
    assert g.w_invariant[0, 0, 0] == 0.0
    assert np.count_nonzero(g.w_invariant == 0.0) == 1
    assert np.all(np.isfinite(g.w_invariant))


def test_grid_rejects_odd_and_tiny_dims():
    with pytest.raises(ValueError, match="odd dimension"):
        pn.make_grid((7, 8, 8))
    with pytest.raises(ValueError, match="too small"):
        pn.make_grid((8, 8, 6))
    with pytest.raises(ValueError, match="spacing"):
        pn.make_grid((8, 8, 8), (1.0, -1.0, 1.0))


def test_kfields_unit_vectors(grid16):
    n = grid16.kfields.nhat
    norms = np.sqrt(np.einsum("i...,i...->...", n, n))
    assert np.allclose(norms, 1.0, atol=1e-14)
    assert np.all(grid16.kfields.omega[grid16.w_invariant > 0] > 0)


def test_round_trip_and_parseval(grid16):
    rng = np.random.default_rng(1)
    f = rng.standard_normal(grid16.dims) + 1j * rng.standard_normal(grid16.dims)
    F = pn.forward_transform(grid16, f)
    back = pn.inverse_transform(grid16, F)
    assert rel(back, f) < 1e-12
    a = np.sum(np.abs(f) ** 2) * grid16.dV
    b = np.sum(np.abs(F) ** 2) * grid16.dVk
    assert abs(a - b) / a < 1e-12


def test_transform_of_zero_is_zero(grid16):
    z = np.zeros(grid16.dims, dtype=complex)
    assert np.all(pn.forward_transform(grid16, z) == 0)
    assert np.all(pn.inverse_transform(grid16, z) == 0)


def test_plane_wave_lands_in_single_bin(grid16):
    g = grid16
    idx = (3, 14, 5)
    kx = g.k_axes[0][idx[0]]
    ky = g.k_axes[1][idx[1]]
    kz = g.k_axes[2][idx[2]]
    x, y, z = np.meshgrid(*g.x_axes, indexing="ij")
    F = pn.forward_transform(g, np.exp(1j * (kx * x + ky * y + kz * z)))
    expected = (2 * np.pi) ** 1.5 / g.dVk
    assert F[idx] == pytest.approx(expected, rel=1e-12)
    off = F.copy()
    off[idx] = 0.0
    assert np.abs(off).max() < 1e-12 * expected


def test_transform_shape_mismatch(grid16):
    with pytest.raises(ValueError, match="does not match"):
        pn.forward_transform(grid16, np.zeros((8, 8, 8)))


def test_gradient_constant_and_linear(grid16):
    g = grid16
    const = np.full(g.dims, 2.5 + 0j)
    grad = pn.spectral_gradient_k(g, const, boundary="ignore")
    assert np.abs(grad).max() < 1e-13
    a = np.array([0.3, -1.2, 0.7])
    lin = a[0] * g.kvec[0] + a[1] * g.kvec[1] + a[2] * g.kvec[2]
    grad = pn.spectral_gradient_k(g, lin.astype(complex), boundary="ignore")
    # centered and one-sided second-order stencils are exact on affine data
    for j in range(3):
        assert np.abs(grad[j] - a[j]).max() < 1e-12


def test_gradient_gaussian_second_order():
    errs = []
    for n in (32, 64):
        g = pn.make_grid(n)
        kc, sig = 1.1, 0.45
        kx, ky, kz = g.kvec
        r2 = (kx - kc) ** 2 + (ky - kc) ** 2 + (kz - kc) ** 2
        f = np.exp(-r2 / (2 * sig ** 2))
        grad = pn.spectral_gradient_k(g, f, boundary="ignore")
        exact = -(np.stack([kx - kc, ky - kc, kz - kc]) / sig ** 2) * f
        errs.append(np.abs(grad - exact).max())
    assert errs[0] / errs[1] > 3.0


def test_gradient_boundary_modes(grid16):
    g = grid16
    bad = np.ones(g.dims, dtype=complex)  # no decay at all
    with pytest.raises(BoundaryDecayError):
        pn.spectral_gradient_k(g, bad, boundary="raise")
    with pytest.warns(UserWarning):
        pn.spectral_gradient_k(g, bad, boundary="warn")
    pn.spectral_gradient_k(g, bad, boundary="ignore")
    assert boundary_margin(bad, g.boundary_mask_k) == 1.0


def test_reflect_conjugate_is_conj_at_negated_k(grid16):
    g = grid16
    rng = np.random.default_rng(2)
    f = rng.standard_normal(g.dims) + 1j * rng.standard_normal(g.dims)
    out = reflect_conjugate(g, f)
    n = g.dims[0]
    for idx in [(0, 0, 0), (1, 2, 3), (5, 0, 9), (15, 15, 15)]:
        neg = tuple((-i) % n for i in idx)
        assert out[idx] == np.conj(f[neg])
