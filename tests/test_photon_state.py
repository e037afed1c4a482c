import warnings

import numpy as np
import pytest

import photonam as pn
from photonam import algebra_checks, photon_state
from photonam.grids import BoundaryDecayWarning

from conftest import rel, smooth_state


def test_wavefunction_zeroes_excluded_bin(grid16, basis16):
    g = grid16
    raw = np.ones(g.dims, dtype=complex)
    wf = pn.wavefunction(g, basis16, raw, raw)
    assert wf.gL[0, 0, 0] == 0.0 and wf.gR[0, 0, 0] == 0.0


def test_wavefunction_shape_check(grid16, basis16):
    with pytest.raises(ValueError, match="shape"):
        pn.wavefunction(grid16, basis16, np.zeros((4, 4, 4)), np.zeros((4, 4, 4)))


def test_wavefunction_is_silent_and_gaussian_vortex_warns_on_poor_decay(grid16, basis16):
    """`wavefunction` measures nothing; the beam factory measures the decay, once."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pn.wavefunction(grid16, basis16, np.ones(grid16.dims), np.zeros(grid16.dims))
    with pytest.warns(BoundaryDecayWarning, match="wavefunction does not decay") as record:
        pn.gaussian_vortex(grid16, basis16, center=(2.0, 2.0, 0.5), widths=1.0)
    assert len(record) == 1


def test_poor_decay_warns_once_per_call(grid16, basis16):
    """Both helicities fail the decay check, yet the reporting route warns once; D checks nothing."""
    flat = np.ones(grid16.dims)
    wf = pn.wavefunction(grid16, basis16, flat, flat)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pn.covariant_derivative(wf)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        gen = pn.generators_photon_picture(wf)
    assert len([w for w in record if w.category is BoundaryDecayWarning and "momentum-grid" in str(w.message)]) == 1
    assert gen.diagnostics["boundary_margin"] == 1.0


def test_scalar_product_positivity_and_symmetry(grid48, basis48):
    f = smooth_state(grid48, basis48, seed=10, mix=(1.0, 0.3j))
    g = smooth_state(grid48, basis48, seed=11, mix=(0.2, 1.0))
    n = pn.scalar_product(f, f)
    assert n.real > 0 and abs(n.imag) < 1e-14 * n.real
    assert pn.scalar_product(f, g) == pytest.approx(np.conj(pn.scalar_product(g, f)))


def test_scalar_product_single_bin(grid16, basis16):
    g = grid16
    idx = (2, 5, 3)
    amp = 1.3 - 0.7j
    arr = np.zeros(g.dims, dtype=complex)
    arr[idx] = amp
    wf = pn.wavefunction(g, basis16, arr, np.zeros(g.dims))
    expected = abs(amp) ** 2 * g.dVk / (g.units.hbar * g.omega()[idx])
    assert pn.photon_number(wf) == pytest.approx(expected, rel=1e-14)


def test_scalar_product_grid_mismatch(grid16, grid32, basis16, basis32):
    a = smooth_state(grid32, basis32)
    z = np.zeros(grid16.dims, dtype=complex)
    b = pn.wavefunction(grid16, basis16, z, z)
    with pytest.raises(ValueError, match="different grids"):
        pn.scalar_product(a, b)


def test_photon_number_zero_state_and_scaling(grid16, basis16):
    z = np.zeros(grid16.dims, dtype=complex)
    zero = pn.wavefunction(grid16, basis16, z, z)
    assert pn.photon_number(zero) == 0.0

    wf = smooth_state(pn.make_grid(48), pn.build_basis(pn.make_grid(48)))
    lam = 0.3 - 1.1j
    scaled = pn.wavefunction(wf.grid, wf.basis, lam * wf.gL, lam * wf.gR)
    assert pn.photon_number(scaled) == pytest.approx(abs(lam) ** 2 * pn.photon_number(wf), rel=1e-12)


def test_evolve_group_property_and_invariance(state48):
    wf = state48
    assert pn.evolve(wf, 0.0).time == wf.time
    w12 = pn.evolve(pn.evolve(wf, 1.7), -0.4)
    assert w12.time == pytest.approx(1.3)
    assert pn.photon_number(w12) == pn.photon_number(wf)
    # physical amplitudes agree with the directly materialized phase
    direct = pn.materialized(pn.evolve(wf, 1.3))
    phase = np.exp(-1j * wf.grid.omega() * 1.3)
    assert rel(direct.gL, phase * wf.gL) < 1e-15
    # mixed-time products pick up the relative phase
    sp = pn.scalar_product(wf, pn.evolve(wf, 2.1))
    w = wf.grid.w_invariant()
    expect = np.sum(w * np.exp(-1j * wf.grid.omega() * 2.1)
                    * (np.abs(wf.gL) ** 2 + np.abs(wf.gR) ** 2))
    assert sp == pytest.approx(expect, rel=1e-12)


def test_covariant_derivative_flat_patch(grid48, basis48):
    """Constant amplitude near the chart equator, where the connection vanishes."""
    g = grid48
    kx, ky, kz = g.kvec
    # plateau of exactly constant amplitude around an equatorial point
    center = np.array([g.dims[0] // 4 * g.dk[0], 0.0, 0.0])
    d2 = (kx - center[0]) ** 2 + ky ** 2 + kz ** 2
    plateau = (d2 < (3 * g.dk[0]) ** 2).astype(complex)
    wf = pn.wavefunction(g, basis48, plateau, np.zeros(g.dims))
    D = pn.covariant_derivative(wf)
    idx = (g.dims[0] // 4, 0, 0)
    for j in range(3):
        # centered stencil of a locally constant array is exactly zero;
        # alpha vanishes on the equator by symmetry, so D g ~ 0 there
        assert abs(D[j].gL[idx]) < 1e-10


def test_covariant_derivative_gauge_covariance(grid48, basis48):
    g = grid48
    wf = smooth_state(g, basis48, seed=5, mix=(1.0, 0.5))
    kx, ky, kz = g.kvec
    phi = 0.7 * np.exp(-((kx - 1.0) ** 2 + (ky - 0.8) ** 2 + (kz - 1.2) ** 2) / (2 * 0.5 ** 2))
    wf2 = pn.gauge_transform(wf, phi)
    D = pn.covariant_derivative(wf)
    D2 = pn.covariant_derivative(wf2)
    for j in range(3):
        assert rel(D2[j].gL, np.exp(1j * phi) * D[j].gL) < 1e-12
        assert rel(D2[j].gR, np.exp(-1j * phi) * D[j].gR) < 1e-12


def test_covariant_derivative_axis_matches_stack(grid48, basis48):
    """One axis of D, as the generators use it, equals that axis of the full D bit for bit."""
    g = grid48
    kx, ky, kz = g.kvec
    phi = 0.4 * np.sin(0.5 * kx) * np.cos(0.3 * kz)
    wf = pn.evolve(pn.gauge_transform(smooth_state(g, basis48, seed=7), phi), 0.6)
    D = pn.covariant_derivative(wf)
    for j in range(3):
        Dj = photon_state.covariant_derivative_axis(wf, j)
        assert np.array_equal(Dj.gL, D[j].gL) and np.array_equal(Dj.gR, D[j].gR)
        assert Dj.time == wf.time and Dj.basis is wf.basis


def test_curvature_sign_flips_with_helicity(grid48, basis48):
    left = smooth_state(grid48, basis48, mix=(1.0, 0.0))
    right = smooth_state(grid48, basis48, mix=(0.0, 1.0))
    rep_l = pn.check_curvature(left)
    rep_r = pn.check_curvature(right)
    # both helicities satisfy their own sign of the curvature relation
    assert rep_l.residual < 0.2
    assert rep_r.residual < 0.2
    # flipping the expected sign must fail: verified by comparing against
    # the opposite-helicity expectation
    g = grid48
    D = pn.covariant_derivative(left)
    DxDy = pn.covariant_derivative(D[1])[0].gL
    DyDx = pn.covariant_derivative(D[0])[1].gL
    kmag2 = np.where(g.kmag() == 0, 1.0, g.kmag()) ** 2
    curv = g.nhat(2) / kmag2
    good = np.linalg.norm((DxDy - DyDx) - 1j * curv * left.gL)
    bad = np.linalg.norm((DxDy - DyDx) + 1j * curv * left.gL)
    assert bad > 5 * good


def _hermiticity_defect(f, g, label):
    af = algebra_checks.apply_generator(label, f)
    ag = algebra_checks.apply_generator(label, g)
    lhs = pn.scalar_product(f, ag)
    rhs = pn.scalar_product(af, g)
    return abs(lhs - rhs) / (photon_state.norm(f) * photon_state.norm(ag))


def test_generator_hermiticity(grid48, basis48, grid64, basis64, grid96, basis96):
    """H, P and the w-weighted D of K are Hermitian to rounding; the angular
    momentum inherits an interior O(dk^2) stencil defect that converges away."""
    f64 = smooth_state(grid64, basis64, seed=20, mix=(1.0, 0.4j))
    g64 = smooth_state(grid64, basis64, seed=21, mix=(0.3, 1.0), m=1)
    for label in ("H", "Px", "Pz", "Kx", "Ky"):
        assert _hermiticity_defect(f64, g64, label) < 1e-10, label
    for label in ("Jx", "Jy", "Jz"):
        assert _hermiticity_defect(f64, g64, label) < 1e-5, label
    # second-order convergence toward exact hermiticity
    coarse = max(_hermiticity_defect(smooth_state(grid48, basis48, seed=20, mix=(1.0, 0.4j)),
                                     smooth_state(grid48, basis48, seed=21, mix=(0.3, 1.0), m=1), l)
                 for l in ("Jx", "Jy", "Jz"))
    fine = max(_hermiticity_defect(smooth_state(grid96, basis96, seed=20, mix=(1.0, 0.4j)),
                                   smooth_state(grid96, basis96, seed=21, mix=(0.3, 1.0), m=1), l)
               for l in ("Jx", "Jy", "Jz"))
    assert coarse / fine > 3.0


def test_scalar_product_gauge_invariance(grid48, basis48):
    g = grid48
    f = smooth_state(g, basis48, seed=30, mix=(1.0, 0.2))
    h = smooth_state(g, basis48, seed=31, mix=(0.5, 0.9))
    kx, ky, kz = g.kvec
    phi = 0.4 * kx - 0.2 * ky + 0.9 * kz
    f2 = pn.gauge_transform(f, phi)
    h2 = pn.gauge_transform(h, phi)
    before = pn.scalar_product(f, h)
    after = pn.scalar_product(f2, h2)
    assert abs(after - before) <= 1e-12 * abs(before)
