import warnings

import numpy as np
import pytest

import photonam as pn

from photonam.fields_bridge import SpectralEField, project_spectral_e

from conftest import decay_ignored, rel


def make_bessel(grid, basis, m=3, kz_over_k=0.8, helicity=+1, k0_cells=None, sig_cells=2.5):
    dk = grid.dk[0]
    k0 = (k0_cells if k0_cells is not None else grid.dims[0] / 2.6) * dk
    kz0 = kz_over_k * k0
    spec = pn.BesselSpec(
        k_perp0=float(np.sqrt(k0 ** 2 - kz0 ** 2)),
        k_z0=kz0, m=m, helicity=helicity,
        sigma_perp=sig_cells * dk, sigma_z=sig_cells * dk,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return pn.bessel_beam(grid, basis, spec)


def test_spec_validation(grid48, basis48):
    dk = grid48.dk[0]
    with pytest.raises(ValueError, match="positive"):
        pn.BesselSpec(k_perp0=-1.0, k_z0=1.0, m=0, helicity=1,
                      sigma_perp=3 * dk, sigma_z=3 * dk).validate(grid48)
    with pytest.raises(ValueError, match="unresolvable"):
        pn.BesselSpec(k_perp0=1.0, k_z0=1.0, m=0, helicity=1,
                      sigma_perp=0.5 * dk, sigma_z=3 * dk).validate(grid48)
    with pytest.raises(ValueError, match="boundary"):
        pn.BesselSpec(k_perp0=np.pi, k_z0=1.0, m=0, helicity=1,
                      sigma_perp=3 * dk, sigma_z=3 * dk).validate(grid48)
    with pytest.raises(ValueError, match="helicity"):
        pn.BesselSpec(k_perp0=1.0, k_z0=1.0, m=0, helicity=2,
                      sigma_perp=3 * dk, sigma_z=3 * dk).validate(grid48)


@pytest.mark.parametrize("m, helicity", [(3, 1), (-2, -1)])
def test_bessel_column_is_the_written_out_helicity_column(grid48, m, helicity):
    """-sqrt(2) e_z (e_z* for chi = -1) is the column (-a cos phi + i chi sin phi, -a sin phi - i chi cos phi, b).

    With a = k_z/k and b = k_perp/k, and phi = 0 on the beam axis; the
    amplitudes agree to rounding on a chart other than z.
    """
    g = grid48
    dk = g.dk[0]
    k0 = g.dims[0] / 2.6 * dk
    spec = pn.BesselSpec(k_perp0=0.6 * k0, k_z0=0.8 * k0, m=m, helicity=helicity,
                         sigma_perp=2.5 * dk, sigma_z=2.5 * dk)
    basis = pn.chart_basis(g, (1.0, 0.0, 0.0))
    with decay_ignored():
        wf = pn.bessel_beam(g, basis, spec, photons=None)
    kx, ky, kz = g.kvec
    kperp = np.hypot(kx, ky)
    k = g.kmag()
    k[g.excluded_index] = 1.0
    phi = np.arctan2(ky, kx)
    column = np.stack([-kz / k * np.cos(phi) + 1j * helicity * np.sin(phi),
                       -kz / k * np.sin(phi) - 1j * helicity * np.cos(phi),
                       kperp / k + 0j])
    envelope = np.exp(-(kperp - spec.k_perp0) ** 2 / (2 * spec.sigma_perp ** 2)
                      - (kz - spec.k_z0) ** 2 / (2 * spec.sigma_z ** 2))
    ref = project_spectral_e(SpectralEField(values=column * envelope * np.exp(1j * m * phi), grid=g), basis)
    peak = max(np.abs(ref.gL).max(), np.abs(ref.gR).max())
    for got, want in ((wf.gL, ref.gL), (wf.gR, ref.gR)):
        assert np.abs(got - want).max() <= 1e-14 * peak


def test_pole_collision_detected(grid48):
    # chart axis aimed straight at the ring: its poles sit on the cone
    dk = grid48.dk[0]
    axis = np.array([13.0, 0.0, 10.0])
    axis /= np.linalg.norm(axis)
    basis = pn.build_basis(grid48, tuple(axis))
    spec = pn.BesselSpec(k_perp0=13 * dk, k_z0=10 * dk, m=0, helicity=1,
                         sigma_perp=3.0 * dk, sigma_z=3.0 * dk)
    with pytest.raises(ValueError, match="pole collision"):
        pn.bessel_beam(grid48, basis, spec)


def test_helicity_purity_and_normalization(grid48):
    basis = pn.build_basis(grid48, (1.0, 0.0, 0.0))
    for hel in (+1, -1):
        wf = make_bessel(grid48, basis, m=2, helicity=hel)
        w = grid48.w_invariant()
        nL = float(np.sum(w * np.abs(wf.gL) ** 2))
        nR = float(np.sum(w * np.abs(wf.gR) ** 2))
        major, minor = (nL, nR) if hel > 0 else (nR, nL)
        assert np.sqrt(minor / major) < 1e-8      # cross-helicity leakage
        assert pn.photon_number(wf) == pytest.approx(1.0, abs=1e-10)


def test_total_jz_is_m_per_photon(grid48):
    basis = pn.build_basis(grid48, (1.0, 0.0, 0.0))
    for m, hel in ((0, 1), (3, 1), (2, -1)):
        wf = make_bessel(grid48, basis, m=m, helicity=hel)
        with decay_ignored():
            gen = pn.generators_photon_picture(wf)
        jz = gen.J[2] / gen.N
        assert jz == pytest.approx(m, abs=0.03 * max(1.0, abs(m)))


def test_orbital_spin_ratio_oracle_values():
    assert pn.bessel_ratio_oracle(3, 0.8, +1) == pytest.approx(2.75)
    assert pn.bessel_ratio_oracle(3, 0.8, -1) == pytest.approx(-4.75)


def test_ratio_converges_toward_oracle(grid48):
    """Coarse-grid check of the analytic Jo_z/Js_z limit; the 1% claim
    lives in the acceptance suite at 96^3."""
    basis = pn.build_basis(grid48, (1.0, 0.0, 0.0))
    wf = make_bessel(grid48, basis, m=3, kz_over_k=0.8, helicity=+1, sig_cells=2.5)
    with decay_ignored():
        photon = pn.generators_photon_picture(wf)
    Jo, Js = photon.Jo, photon.Js
    ratio = Jo[2] / Js[2]
    assert ratio == pytest.approx(2.75, rel=0.05)


def test_paraxial_limit(grid48):
    """m=1, helicity +1, nearly longitudinal: spin carries almost all of Jz."""
    basis = pn.build_basis(grid48, (1.0, 0.0, 0.0))
    wf = make_bessel(grid48, basis, m=1, kz_over_k=0.9, helicity=+1,
                     k0_cells=19.0, sig_cells=2.0)
    with decay_ignored():
        gen = pn.generators_photon_picture(wf)
    assert gen.J[2] / gen.N == pytest.approx(1.0, abs=0.05)
    assert gen.Js[2] / gen.N == pytest.approx(0.9, abs=0.05)
    assert abs(gen.Jo[2]) / gen.N < 0.2


def test_helicity_minus_one_flips_spin(grid48):
    basis = pn.build_basis(grid48, (1.0, 0.0, 0.0))
    plus = make_bessel(grid48, basis, m=3, helicity=+1)
    minus = make_bessel(grid48, basis, m=3, helicity=-1)
    with decay_ignored():
        Js_p = pn.generators_photon_picture(plus).Js
        Js_m = pn.generators_photon_picture(minus).Js
    assert Js_p[2] > 0 > Js_m[2]
    assert Js_p[2] == pytest.approx(-Js_m[2], rel=1e-10)


def test_gaussian_vortex_basic(grid48, basis48):
    g = grid48
    dk = g.dk[0]
    # packet along z with the chart on x: connection-flat around the center
    basis_x = pn.build_basis(g, (1.0, 0.0, 0.0))
    wf = pn.gaussian_vortex(g, basis_x, center=(0, 0, 14 * dk), widths=2.2 * dk,
                            m=0, helicity="L", photons=1.0)
    with decay_ignored():
        gen = pn.generators_photon_picture(wf)
    # momentum along the packet direction, spin along it too
    assert gen.P[2] > 0 and abs(gen.P[0]) < 1e-10 * gen.P[2]
    assert gen.Js[2] / gen.N == pytest.approx(1.0, abs=0.02)

    # mirroring is exact up to the one-sided Nyquist plane of the FFT grid
    mirrored = pn.gaussian_vortex(g, basis_x, center=(0, 0, -14 * dk), widths=2.2 * dk,
                                  m=0, helicity="L", photons=1.0)
    with decay_ignored():
        gm = pn.generators_photon_picture(mirrored)
    assert gm.H == pytest.approx(gen.H, rel=1e-8)
    assert gm.P[2] == pytest.approx(-gen.P[2], rel=1e-8)


def test_gaussian_vortex_charge_adds_to_jz(grid48):
    g = grid48
    dk = g.dk[0]
    basis_x = pn.build_basis(g, (1.0, 0.0, 0.0))
    wf = pn.gaussian_vortex(g, basis_x, center=(0, 0, 14 * dk), widths=2.2 * dk,
                            m=1, helicity="L")
    with decay_ignored():
        gen = pn.generators_photon_picture(wf)
    nz = gen.Js[2] / gen.N  # helicity-weighted mean direction
    # equality is exact only in the narrow-packet limit
    assert gen.J[2] / gen.N == pytest.approx(1.0 + nz, abs=0.05)


def test_gaussian_vortex_validation(grid48, basis48):
    dk = grid48.dk[0]
    with pytest.raises(ValueError, match="width"):
        pn.gaussian_vortex(grid48, basis48, center=(1.5, 0.4, 1.0), widths=0.5 * dk)
    with pytest.raises(ValueError, match="chart axis"):
        pn.gaussian_vortex(grid48, basis48, center=(0.0, 0.0, 1.5), widths=3 * dk)
