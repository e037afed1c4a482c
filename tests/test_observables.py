import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import photonam as pn
from photonam.fields_bridge import RealVectorField, SpectralEField
from photonam.grids import BOUNDARY_TOL, BoundaryDecayWarning, _readonly, real_forward_transform
from photonam.observables import _cell_self_weight, _textbook_moments

from conftest import (cross, decay_ignored, fd_photon_picture, nhat_stack, project_spectral_e, rel, row_slabs,
                      smooth_state, spectral_divergence, wavefunction)
from rotations import rotate_wavefunction, rotation_matrix


def circular_packet(grid, sig_cells=2.5, helicity="L"):
    """Pure-helicity Gaussian packet on the grid diagonal, chart on z."""
    basis = pn.build_basis(grid)
    dk = grid.dk[0]
    kc = (grid.dims[0] / 4.0) * dk
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return pn.gaussian_vortex(grid, basis, center=(kc, kc, kc),
                                  widths=sig_cells * dk, m=0, helicity=helicity)


def random_transverse_e(grid, seed=7, slope=0.15):
    """Smooth random transverse spectral field: linear polynomial x Gaussian."""
    rng = np.random.default_rng(seed)
    dk = grid.dk[0]
    kc = (grid.dims[0] / 4.0) * dk
    sig = (grid.dims[0] / 21.0) * dk
    kx, ky, kz = grid.kvec
    env = np.exp(-((kx - kc) ** 2 + (ky - kc) ** 2 + (kz - kc) ** 2) / (2 * sig ** 2))
    E = np.zeros((3,) + grid.dims, dtype=complex)
    for i in range(3):
        c0 = rng.standard_normal() + 1j * rng.standard_normal()
        cv = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * slope / sig
        E[i] = (c0 + cv[0] * (kx - kc) + cv[1] * (ky - kc) + cv[2] * (kz - kc)) * env
    n = nhat_stack(grid)
    E -= n * np.einsum("i...,i...->...", n, E)
    E[:, 0, 0, 0] = 0.0
    return SpectralEField(values=_readonly(E), grid=grid)


def test_field_picture_zero(grid16):
    rs = pn.RSField(F=np.zeros((3,) + grid16.dims, dtype=complex), grid=grid16)
    gen = pn.generators_field_picture(rs)
    assert gen.H == 0.0
    assert np.all(gen.P == 0) and np.all(gen.J == 0) and np.all(gen.K == 0)


def test_plane_wave_energy_momentum_lightlike(grid16, basis16):
    g = grid16
    gL = np.zeros(g.dims, dtype=complex)
    gL[2, 3, 4] = 1.0
    wf = wavefunction(g, basis16, gL, np.zeros(g.dims))
    rs = pn.synthesize(wf)
    with decay_ignored():      # a plane wave fills the box; only H and P are checked
        gen = pn.generators_field_picture(rs)
    assert np.linalg.norm(gen.P) == pytest.approx(gen.H / g.units.c, rel=1e-12)


def test_field_picture_boundary_guard(grid16, basis16):
    g = grid16
    gL = np.zeros(g.dims, dtype=complex)
    gL[2, 3, 4] = 1.0   # plane wave: no real-space decay
    rs = pn.synthesize(wavefunction(g, basis16, gL, np.zeros(g.dims)))
    with pytest.warns(BoundaryDecayWarning, match="real-space boundary") as record:
        gen = pn.generators_field_picture(rs)
    assert len(record) == 1
    assert gen.diagnostics["boundary_margin_r"] > 1e-8


def decaying_packet(grid, basis):
    """Pure-L Gaussian packet that decays to ~2e-11 of its peak at the momentum edge of a 48^3 grid."""
    dk = grid.dk[0]
    return pn.gaussian_vortex(grid, basis, center=(8 * dk,) * 3, widths=2.0 * dk, m=0, helicity="L")


def test_analysed_pure_helicity_packet_decays(grid48, basis48):
    """The analysed gR of a pure-L packet is rounding noise; against the joint peak it decays at the k edge.

    Its field reaches the real-space edge at about 1e-7 of its peak, which
    the field picture and the photon picture's exact derivative both flag;
    only a k-edge warning is an error here.
    """
    rs = pn.synthesize(decaying_packet(grid48, basis48), 0.3)
    wf = pn.analyze(rs, basis48)
    assert np.abs(wf.gR).max() < 1e-12 * np.abs(wf.gL).max()
    with warnings.catch_warnings():
        warnings.simplefilter("error", BoundaryDecayWarning)
        warnings.filterwarnings("ignore", "the field of the wavefunction", BoundaryDecayWarning)
        gen = pn.generators_photon_picture(wf)
        _, _, diag = pn.darwin_split(pn.spectral_e_from_wavefunction(wf))
    assert gen.diagnostics["boundary_margin"] <= 1e-10
    assert diag["boundary_margin"] <= 1e-10


def test_shared_peak_still_flags_a_flat_helicity(grid48, basis48):
    """A non-decaying gR at 1e-3 of the peak beside a decaying gL fails the joint measurement."""
    good = decaying_packet(grid48, basis48)
    flat = np.full(grid48.dims, 1e-3 * np.abs(good.gL).max())
    wf = wavefunction(grid48, basis48, good.gL, flat)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        gen = pn.generators_photon_picture(wf)
    assert len([w for w in record if w.category is BoundaryDecayWarning and "momentum-grid" in str(w.message)]) == 1
    assert gen.diagnostics["boundary_margin"] == pytest.approx(1e-3, rel=1e-12)


def test_photon_picture_flags_a_field_that_reaches_the_box_edge(grid48, basis48):
    """The decaying packet's field reaches the real-space edge at about 1e-7: one real-space warning, and its margin."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        gen = pn.generators_photon_picture(decaying_packet(grid48, basis48))
    assert [str(w.message).split(" (")[0] for w in record if w.category is BoundaryDecayWarning] == [
        "the field of the wavefunction does not decay at the real-space boundary"]
    assert 1e-7 < gen.diagnostics["boundary_margin_r"] < 1e-6


def test_darwin_split_warns_once_and_reports_its_margin(grid16):
    """Three non-decaying components of E(k): one measurement, one warning."""
    E = SpectralEField(values=_readonly(np.ones((3,) + grid16.dims, dtype=complex)), grid=grid16)
    with pytest.warns(BoundaryDecayWarning, match=r"E\(k\)") as record:
        _, _, diag = pn.darwin_split(E)
    assert len(record) == 1
    assert diag["boundary_margin"] == 1.0


def test_cross_picture_agreement_64(grid64):
    wf = circular_packet(grid64, helicity=(0.8, 0.4j))
    rs = pn.synthesize(wf)
    gen_f = pn.generators_field_picture(rs)
    with decay_ignored():
        gen_p = pn.generators_photon_picture(wf)
    assert abs(gen_f.H - gen_p.H) / gen_p.H < 1e-6
    assert rel(gen_f.P, gen_p.P) < 1e-6
    assert rel(gen_f.J, gen_p.J) < 1e-3
    assert rel(gen_f.K, gen_p.K) < 1e-3


def test_photon_picture_diagnostics(grid64):
    wf = circular_packet(grid64)
    with decay_ignored():
        gen = pn.generators_photon_picture(wf)
    assert set(gen.diagnostics) == {"boundary_margin", "boundary_margin_r", "imag_residual_Jo", "imag_residual_K"}
    assert gen.diagnostics["imag_residual_K"] < 1e-8
    assert np.allclose(gen.Jo + gen.Js, gen.J)


def _exact_photon_picture(wf):
    """Oracle: the photon picture from whole-array stacks, its Jo and K from the exact k derivative of E(k).

    E(k) of the stored snapshot, zero at k = 0, is differentiated along each
    axis a by whole-array numpy transforms, ``d_a E = fft_a(-i x_a ifft_a E)``
    with x_a = (j - n/2) dx in FFT order, into a (3, 3, N) stack; then
    ``u = 2 eps0 i E*.d E``, ``Jo = hbar sum w u x k``, ``K = dVk sum u +
    c^2 t P``.  ``boundary_margin_r`` is the largest |ifft_a E| on the two
    outermost x planes of a over its largest anywhere, the worst axis.
    """
    grid = wf.grid
    u_ = grid.units
    w, k, n = grid.w_invariant(), np.stack(grid.kvec), nhat_stack(grid)
    absL2, absR2 = np.abs(wf.gL) ** 2, np.abs(wf.gR) ** 2
    dens = absL2 + absR2
    dens[0, 0, 0] = 0.0
    E = np.array(pn.spectral_e_from_wavefunction(replace(wf, time=0.0)).values)
    E[:, 0, 0, 0] = 0.0
    dE = np.empty((3,) + E.shape, dtype=complex)
    margins = []
    for a, (size, dx) in enumerate(zip(grid.dims, grid.spacing)):
        j = np.arange(size)
        x = (dx * np.where(j < size // 2, j, j - size)).reshape([-1 if ax == a else 1 for ax in range(3)])
        f = np.fft.ifft(E, axis=1 + a)
        edge = np.take(np.abs(f), range(size // 2 - 2, size // 2 + 2), axis=1 + a).max()
        margins.append(edge / np.abs(f).max())
        dE[a] = np.fft.fft(-1j * x * f, axis=1 + a)
    u = 2j * u_.eps0 * np.sum(np.conj(E) * dE, axis=1)
    H = float(np.sum(grid.dVk * dens))
    P = u_.hbar * np.sum(w * k * dens, axis=(1, 2, 3))
    Js = u_.hbar * np.sum(w * n * (absL2 - absR2), axis=(1, 2, 3))
    Jo = u_.hbar * np.sum(w * cross(u, k), axis=(1, 2, 3))
    K = grid.dVk * np.sum(u, axis=(1, 2, 3))
    L = max(size * d for size, d in zip(grid.dims, grid.spacing))
    return dict(
        N=float(np.sum(w * dens)), H=H, P=P, Js=Js, Jo=Jo.real, K=K.real + u_.c ** 2 * wf.time * P,
        imag_residual_Jo=np.linalg.norm(Jo.imag) / max(np.linalg.norm(Jo.real), np.linalg.norm(Js)),
        imag_residual_K=np.linalg.norm(K.imag) / (H * L),
        boundary_margin_r=max(margins),
    )


def _stacked_field_picture(rs):
    """Oracle: the field picture from the (3, N) stacks V = Im(F* x F) and r."""
    grid = rs.grid
    c, dV = grid.units.c, grid.dV
    r = np.stack(np.meshgrid(*grid.x_axes, indexing="ij"))
    V = cross(np.conj(rs.F), rs.F).imag
    dens = np.sum(np.abs(rs.F) ** 2, axis=0)
    return dict(H=np.sum(dens) * dV, P=np.sum(V, axis=(1, 2, 3)) * dV / c,
                J=np.sum(cross(r, V), axis=(1, 2, 3)) * dV / c, K=np.sum(r * dens, axis=(1, 2, 3)) * dV)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from((24, 26, 28, 30, 32)), st.floats(4.0, 5.0), st.integers(0, 2 ** 16),
       st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), st.sampled_from((0, 1, 2)), st.floats(-2.0, 2.0),
       st.tuples(st.floats(-1.0, 1.0), *[st.floats(-1.5, 1.5)] * 3),
       st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda v: np.linalg.norm(np.cross(v, (1.0, 1.0, 1.0))) > 0.6 * np.sqrt(3.0) * np.linalg.norm(v)))
@example(n=48, center=12.0, seed=17, mix=(0.0, 0.5), m=1, t=0.7, gauge=(0.6, 1.1, 0.9, 1.3),
         chart=(0.0, 0.0, 1.0))
def test_photon_picture_matches_stacked_oracle(n, center, seed, mix, m, t, gauge, chart):
    """A random packet on a random unit chart, re-gauged and evolved, so every gauge and time term is live.

    The packet is two cells wide, `center` cells out along the k diagonal, at
    the real-space offset drawn from `seed`; the explicit example is
    `smooth_state(seed=17)` at 48^3.  Both streamed pictures are checked
    against their stacked oracles, the photon picture against the exact
    route's (`_exact_photon_picture`).
    """
    g = pn.make_grid(n)
    dk = g.dk[0]
    basis = pn.build_basis(g, tuple(np.asarray(chart) / np.linalg.norm(chart)))
    r0 = np.random.default_rng(seed).uniform(-1.0, 1.0, 3)
    kx, ky, kz = g.kvec
    amp, cx, cy, cz = gauge
    phi = amp * np.exp(-((kx - cx) ** 2 + (ky - cy) ** 2 + (kz - cz) ** 2) / (2 * 0.6 ** 2))
    with decay_ignored():
        wf = pn.gaussian_vortex(g, basis, center=(center * dk,) * 3, widths=2.0 * dk, m=m,
                                helicity=(1.0, complex(*mix)), r_offset=r0)
    wf = pn.evolve(pn.gauge_transform(wf, phi), t)

    rs = pn.synthesize(wf)
    with decay_ignored():
        gen = pn.generators_photon_picture(wf)
        gen_f = pn.generators_field_picture(rs)
    ref = _exact_photon_picture(wf)
    assert gen.N == ref["N"] and gen.H == ref["H"]
    assert np.array_equal(gen.Js, ref["Js"])
    assert rel(gen.P, ref["P"]) < 1e-14     # P sums 1-d profiles, in another order than the oracle
    assert rel(gen.Jo, ref["Jo"]) < 1e-12
    L = max(size * d for size, d in zip(g.dims, g.spacing))
    assert np.linalg.norm(gen.K - ref["K"]) < 1e-12 * gen.H * L
    for key in ("imag_residual_Jo", "imag_residual_K"):
        assert abs(gen.diagnostics[key] - ref[key]) < 1e-12, key
    assert gen.diagnostics["boundary_margin_r"] == ref["boundary_margin_r"]

    ref = _stacked_field_picture(rs)
    u = g.units
    assert abs(gen_f.H - ref["H"]) < 1e-14 * ref["H"]
    assert np.linalg.norm(gen_f.P - ref["P"]) < 1e-14 * ref["H"] / u.c
    assert np.linalg.norm(gen_f.J - ref["J"]) < 1e-12 * u.hbar * gen.N
    assert np.linalg.norm(gen_f.K - ref["K"]) < 1e-12 * ref["H"] * L


def test_photon_picture_ignores_the_excluded_bin(grid48, basis48):
    """A k=0 amplitude carries no weight, also in a state not built by `wavefunction`."""
    wf = smooth_state(grid48, basis48, seed=3, mix=(1.0, 0.5j))
    gL = np.array(wf.gL)
    assert gL[grid48.excluded_index] == 0.0
    gL[grid48.excluded_index] = 0.5 * np.abs(gL).max()
    with decay_ignored():
        ref = pn.generators_photon_picture(wf)
        gen = pn.generators_photon_picture(replace(wf, gL=gL))
    assert gen.H == ref.H and gen.N == ref.N
    assert np.array_equal(gen.P, ref.P) and np.array_equal(gen.Js, ref.Js)
    assert np.array_equal(gen.Jo, ref.Jo) and np.array_equal(gen.K, ref.K)


def test_causality_and_spin_bounds(grid48, basis48):
    wf = smooth_state(grid48, basis48, seed=9, mix=(0.9, 0.5j))
    with decay_ignored():
        gen = pn.generators_photon_picture(wf)
    u = wf.grid.units
    assert np.linalg.norm(gen.P) <= gen.H / u.c * (1 + 1e-12)
    assert np.linalg.norm(gen.Js) <= u.hbar * gen.N * (1 + 1e-12)


def test_split_time_invariance(grid48, basis48):
    wf = smooth_state(grid48, basis48, seed=12, mix=(1.0, 0.3))
    with decay_ignored():
        photon = pn.generators_photon_picture(wf)
    Jo0, Js0 = photon.Jo, photon.Js
    omega0 = np.sqrt(3.0) * (grid48.dims[0] / 4.0) * grid48.dk[0]
    period = 2 * np.pi / omega0
    for t in (-10 * period, 0.4 * period, 10 * period):
        with decay_ignored():
            photon = pn.generators_photon_picture(pn.evolve(wf, t))
        Jo, Js = photon.Jo, photon.Js
        assert rel(Jo, Jo0) < 1e-10
        assert rel(Js, Js0) < 1e-10


def _default_bessel_beam(grid, m, helicity):
    """The `beam bessel` defaults at 96^3: k0 0.62 Nyquist, k_z/k 0.8, widths 3 k steps, chart x."""
    dk = grid.dk[0]
    k0 = 0.62 * np.pi / grid.spacing[0]
    kz0 = 0.8 * k0
    spec = pn.BesselSpec(k_perp0=np.sqrt(k0 ** 2 - kz0 ** 2), k_z0=kz0, m=m, helicity=helicity,
                         sigma_perp=3.0 * dk, sigma_z=3.0 * dk)
    return pn.bessel_beam(grid, pn.chart_basis(grid, (1.0, 0.0, 0.0)), spec)


@pytest.mark.parametrize("m", [-3, 1, 4])
@pytest.mark.parametrize("helicity", [1, -1])
def test_default_bessel_beam_is_a_jz_eigenstate(grid96, m, helicity):
    """The regularized Bessel beam is a J_z eigenstate: the photon picture's (Jo_z + Js_z)/N = m to 1e-12.

    Gated where the beam decays at the k edge, as it does from 96^3.
    """
    with decay_ignored():
        gen = pn.generators_photon_picture(_default_bessel_beam(grid96, m, helicity))
    assert gen.diagnostics["boundary_margin"] <= BOUNDARY_TOL
    assert abs((gen.Jo[2] + gen.Js[2]) / gen.N - m) <= 1e-12


def test_default_bessel_beam_split_matches_the_field_picture(grid96):
    """On the default m = 3 beam, Jo is the field's J - Js to 1e-12 and K the field's K to 1e-15 H L.

    The beam decays at both edges, k and r, so no route warns.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", BoundaryDecayWarning)
        wf = _default_bessel_beam(grid96, 3, 1)
        gen = pn.generators_photon_picture(wf)
        field = pn.generators_field_picture(pn.synthesize(wf))
    assert gen.diagnostics["boundary_margin_r"] <= BOUNDARY_TOL
    assert rel(gen.Jo, field.J - gen.Js) <= 1e-12
    assert np.linalg.norm(gen.K - field.K) <= 1e-15 * gen.H * grid96.box_length


def test_moment_of_energy_moves_with_the_momentum():
    """K(t) - K(0) = c^2 t P over +-10 periods, to 1e-15 H L, while Jo and Js stay bit for bit.

    An m = 1 packet displaced to r0 = (3, -2, 1.5), in units where c, hbar
    and eps0 are not 1, so that K is far from zero and c^2 is not 1.
    """
    g = pn.make_grid(64, units=pn.UnitsConfig(c=1.7, hbar=0.8, eps0=1.3))
    dk = g.dk[0]
    with decay_ignored():
        wf = pn.gaussian_vortex(g, pn.chart_basis(g), center=(16 * dk,) * 3, widths=2.5 * dk, m=1,
                                helicity=(1.0, 0.3j), r_offset=(3.0, -2.0, 1.5))
        gen0 = pn.generators_photon_picture(wf)
    period = 2.0 * np.pi / (np.sqrt(3.0) * 16 * dk * g.units.c)
    assert np.linalg.norm(gen0.K) > 0.1 * gen0.H * 3.0
    for t in (-10 * period, -2.7 * period, 0.6 * period, 10 * period):
        with decay_ignored():
            gen = pn.generators_photon_picture(pn.evolve(wf, t))
        drift = gen.K - gen0.K - g.units.c ** 2 * t * gen0.P
        assert np.linalg.norm(drift) <= 1e-15 * gen0.H * g.box_length, t
        assert np.array_equal(gen.Jo, gen0.Jo) and np.array_equal(gen.Js, gen0.Js)


def test_split_gauge_invariance(grid48, basis48):
    g = grid48
    wf = smooth_state(g, basis48, seed=13, mix=(0.6, 1.0))
    with decay_ignored():
        photon = pn.generators_photon_picture(wf)
    Jo0, Js0 = photon.Jo, photon.Js
    phi = 0.5 * g.kvec[0] - 0.3 * g.kvec[2]
    wf2 = pn.gauge_transform(wf, phi)
    with decay_ignored():
        photon = pn.generators_photon_picture(wf2)
    Jo, Js = photon.Jo, photon.Js
    assert rel(Jo, Jo0) < 1e-10
    assert rel(Js, Js0) < 1e-10


@settings(max_examples=8, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=10, max_size=10))
def test_gauge_invariance_over_smooth_phase_fields(grid48, coeffs):
    """A random smooth phase field (quadratic plus one plane wave in k) changes none of the generators.

    Each basis is built lazily, so its connection is first derived inside the
    photon picture, and the transformed basis derives its own.
    """
    g = grid48
    kx, ky, kz = (g.kvec[j] / (np.pi / g.spacing[j]) for j in range(3))    # in [-1, 1)
    c = coeffs
    phi = (c[0] + c[1] * kx + c[2] * ky + c[3] * kz + c[4] * kx * ky + c[5] * kz ** 2
           + c[6] * np.cos(np.pi * (c[7] * kx + c[8] * ky + c[9] * kz)))
    basis = pn.chart_basis(g)
    wf = smooth_state(g, basis, seed=5, mix=(0.8, 0.5j), m=1)
    wf2 = pn.gauge_transform(wf, phi)
    with decay_ignored():
        ref = pn.generators_photon_picture(smooth_state(g, pn.chart_basis(g), seed=5, mix=(0.8, 0.5j), m=1))
        gen = pn.generators_photon_picture(wf2)
    for name in ("N", "H", "P", "J", "Jo", "Js"):
        assert rel(getattr(gen, name), getattr(ref, name)) <= 1e-10, name
    L = max(n * d for n, d in zip(g.dims, g.spacing))
    assert np.linalg.norm(gen.K - ref.K) <= 1e-10 * ref.H * L


@settings(max_examples=6, deadline=None)
@given(st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1),
       st.floats(0.0, 0.7), st.floats(-np.pi, np.pi), st.sampled_from((0, 1, 2)),
       st.tuples(*[st.floats(-1.0, 1.0)] * 3))
@example(chart=(0.0, 1.0, 1.192092896e-07), weight=0.0, phase=0.0, m=0, r0=(0.0, 0.0, 0.0))
def test_chart_axis_independence_over_decaying_states(chart, weight, phase, m, r0):
    """A random decaying state re-expressed on a random unit chart is the same physical state.

    The re-expression projects E(k) onto the new circular basis, which
    multiplies each helicity amplitude by a pointwise phase only: N, H, P
    and Js agree to 1e-12 relative and the synthesized F to 1e-12 of its
    peak.  The finite-difference Jo is not gated: at 24^3 it moves by 2-12%
    with the chart, the error of the k-space finite difference across the
    chart's phase winding.
    """
    g = pn.make_grid(24)
    dk = g.dk[0]
    with decay_ignored():
        wf = pn.gaussian_vortex(g, pn.chart_basis(g), center=(5 * dk, 5 * dk, 5 * dk), widths=2.0 * dk, m=m,
                                helicity=(1.0, weight * np.exp(1j * phase)), r_offset=r0)
    b = np.asarray(chart) / np.linalg.norm(chart)
    wf2 = project_spectral_e(pn.spectral_e_from_wavefunction(wf), pn.chart_basis(g, tuple(b)))
    with decay_ignored():
        gen, gen2 = pn.generators_photon_picture(wf), pn.generators_photon_picture(wf2)
    for name in ("N", "H", "P", "Js"):
        assert rel(getattr(gen2, name), getattr(gen, name)) <= 1e-12, name
    F, F2 = pn.synthesize(wf).F, pn.synthesize(wf2).F
    assert np.abs(F2 - F).max() <= 1e-12 * np.abs(F).max()


def test_linear_polarization_has_no_spin(grid48):
    """Equal-weight L/R superposition: helicity weights cancel pointwise."""
    wf = circular_packet(grid48, helicity=(1.0, 1.0))
    with decay_ignored():
        gen = pn.generators_photon_picture(wf)
    assert np.linalg.norm(gen.Js) < 1e-14 * gen.N
    assert rel(gen.Jo, gen.J) < 1e-12


def test_darwin_spin_identical_to_helicity_form(grid48, basis48):
    wf = smooth_state(grid48, basis48, seed=14, mix=(1.0, 0.35j))
    Ek = pn.spectral_e_from_wavefunction(wf)
    with decay_ignored():
        Jo_d, Js_d, diag = pn.darwin_split(Ek)
        photon = pn.generators_photon_picture(wf)
    Jo_h, Js_h = photon.Jo, photon.Js
    assert rel(Js_d, Js_h) < 1e-10
    # the orbital functional is real up to the O(dk^2) stencil asymmetry
    assert diag["imag_residual_Jo"] < 1e-3


def test_darwin_spin_vanishes_for_real_spectrum(grid48):
    """E(k) proportional to a real field has E* x E = 0 identically."""
    E = random_transverse_e(pn.make_grid(48), seed=3, slope=0.0)
    E = SpectralEField(values=_readonly(E.values.real.astype(complex)), grid=E.grid)
    with decay_ignored():
        _, Js, _ = pn.darwin_split(E)
    assert np.linalg.norm(Js) < 1e-14


def test_darwin_orbital_converges_to_photon_route():
    """Darwin's FD Jo converges at second order to the FD photon picture of the same state (`fd_photon_picture`)."""
    errs = []
    for n in (48, 96):
        g = pn.make_grid(n)
        b = pn.build_basis(g)
        Ek = random_transverse_e(g)
        with decay_ignored():
            Jo_d, Js_d, _ = pn.darwin_split(Ek)
            wf = project_spectral_e(Ek, b)
            photon = fd_photon_picture(wf)
        Jo_h, Js_h = photon["Jo"], photon["Js"]
        assert rel(Js_d, Js_h) < 1e-10
        errs.append(rel(Jo_d, Jo_h))
    assert errs[0] < 3e-2          # finite-difference floor at 48^3
    assert errs[0] / errs[1] > 3.0  # second-order convergence


def test_textbook_split_matches_helicity_routes(grid64):
    wf = circular_packet(grid64)
    rs = pn.synthesize(wf)
    E = pn.electric_field(rs)
    B = pn.magnetic_field(rs)
    A = pn.vector_potential(B)
    Jo_t, Js_t = pn.textbook_split(E, A)
    with decay_ignored():
        photon = pn.generators_photon_picture(wf)
    Jo_h, Js_h = photon.Jo, photon.Js
    assert rel(Js_t, Js_h) < 1e-3
    assert rel(Jo_t, Jo_h) < 1e-3


def test_textbook_split_requires_transverse_A(grid16):
    g = grid16
    rng = np.random.default_rng(1)
    E = RealVectorField(values=_readonly(rng.standard_normal((3,) + g.dims)), role="E", grid=g)
    A = RealVectorField(values=_readonly(rng.standard_normal((3,) + g.dims)), role="A", grid=g)
    assert _textbook_moments(g, E.values, A.values)[1] > 0.1      # refused by far, not at the tolerance
    with pytest.raises(ValueError, match="transverse"):
        pn.textbook_split(E, A)


def test_textbook_split_refuses_a_nan_in_A(grid16, basis16):
    rs = pn.synthesize(smooth_state(grid16, basis16))
    A = pn.vector_potential(pn.magnetic_field(rs)).values.copy()
    A[2, 3, 4, 5] = np.nan
    with pytest.raises(ValueError, match="transverse"):
        pn.textbook_split(pn.electric_field(rs), RealVectorField(values=A, role="A", grid=grid16))


@pytest.mark.parametrize("twist", [0.0, 0.5, 1.0])
def test_textbook_divergence_ratio_matches_the_spectral_ratio(twist):
    """|div A| / |grad A| of the real-space derivatives is the spectral ratio of `_half_divergence`, by Parseval.

    On a decaying field the Nyquist bins, where the two may differ, hold
    nothing; `twist` mixes a divergence-free swirl into a gradient field.
    """
    g = pn.make_grid((32, 40, 32), spacing=(1.0, 0.8, 1.3))
    x, y, z = np.meshgrid(*g.x_axes, indexing="ij")
    gauss = np.exp(-(x ** 2 + (y - 0.7) ** 2 + (z + 1.1) ** 2) / (2 * 2.5 ** 2))
    A = np.stack([(x + twist * y) * gauss, (y - twist * x) * gauss, z * gauss])
    spectral = spectral_divergence(g, [real_forward_transform(g, A[i]) for i in range(3)], True, row_slabs(32)[0])
    ratio = _textbook_moments(g, np.zeros_like(A), A)[1]
    assert ratio > 0.1
    assert abs(ratio - spectral) <= 1e-12 * spectral


def test_textbook_zero_field(grid16):
    z = _readonly(np.zeros((3,) + grid16.dims))
    Jo, Js = pn.textbook_split(RealVectorField(values=z, role="E", grid=grid16),
                               RealVectorField(values=z, role="A", grid=grid16))
    assert np.all(Jo == 0) and np.all(Js == 0)


def test_nonlocal_spin_zero_b(grid16):
    z = _readonly(np.zeros((3,) + grid16.dims))
    rng = np.random.default_rng(2)
    E = RealVectorField(values=_readonly(rng.standard_normal((3,) + grid16.dims)),
                        role="E", grid=grid16)
    B = RealVectorField(values=z, role="B", grid=grid16)
    assert np.all(pn.spin_nonlocal_real(E, B) == 0)


def _nonlocal_pair_sum(E, B):
    """The nonlocal spin as the direct O(M^2) sum over pairs of grid points."""
    g = E.grid
    X = np.stack([x.ravel() for x in np.meshgrid(*g.x_axes, indexing="ij")], axis=1)
    d = X[:, None, :] - X[None, :, :]
    dist = np.sqrt(np.einsum("abi,abi->ab", d, d))
    np.fill_diagonal(dist, 1.0)
    kernel = g.dV / (4.0 * np.pi * dist)
    np.fill_diagonal(kernel, _cell_self_weight(g))
    C = kernel @ pn.spectral_curl(g, B.values).reshape(3, -1).T
    return g.units.eps0 * g.dV * np.sum(np.cross(E.values.reshape(3, -1).T, C), axis=0)


@pytest.mark.parametrize("dims, spacing", [((8, 10, 12), (1.0, 0.8, 1.3)), ((12, 8, 10), (0.5, 1.1, 0.9))])
def test_nonlocal_spin_equals_direct_pair_sum(dims, spacing):
    g = pn.make_grid(dims, spacing)
    rng = np.random.default_rng(7)
    E, B = (RealVectorField(values=_readonly(rng.standard_normal((3,) + dims)), role=role, grid=g)
            for role in "EB")
    assert rel(pn.spin_nonlocal_real(E, B), _nonlocal_pair_sum(E, B)) <= 1e-13


def test_nonlocal_spin_converges_under_refinement():
    # one physical state (box L = 24, fixed k-space packet) sampled ever finer in real space
    errors = []
    for n in (24, 48, 96):
        g = pn.make_grid(n, 24.0 / n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            wf = pn.gaussian_vortex(g, pn.build_basis(g, (1.0, 0.0, 0.0)), center=(np.pi / 3,) * 3,
                                    widths=2.5 * 2.0 * np.pi / 24.0)
        rs = pn.synthesize(wf)
        Js_nl = pn.spin_nonlocal_real(pn.electric_field(rs), pn.magnetic_field(rs))
        with decay_ignored():
            Js_h = pn.generators_photon_picture(wf).Js
        errors.append(rel(Js_nl, Js_h))
    assert errors[-1] <= 1e-2
    assert errors[-2] / errors[-1] >= 3.0, errors


def test_nonlocal_spin_matches_spectral_on_coarse_grid(grid16):
    g = grid16
    dk = g.dk[0]
    basis = pn.build_basis(g)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        wf = pn.gaussian_vortex(g, basis, center=(5 * dk, 5 * dk, 5 * dk),
                                widths=2.0 * dk, m=0, helicity="L")
    rs = pn.synthesize(wf)
    E = pn.electric_field(rs)
    B = pn.magnetic_field(rs)
    Js_nl = pn.spin_nonlocal_real(E, B)
    with decay_ignored():
        Js_h = pn.generators_photon_picture(wf).Js
    # direction and sign agree; magnitude within the coarse-kernel bound
    assert np.dot(Js_nl, Js_h) > 0
    assert rel(Js_nl, Js_h) < 0.05


def test_rotations_transform_generators_exactly(grid48):
    g = grid48
    dk = g.dk[0]
    basis = pn.build_basis(g)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        wf = pn.gaussian_vortex(g, basis, center=(11 * dk, 11 * dk, 11 * dk),
                                widths=2.0 * dk, m=1, helicity=(0.8, 0.4j))
    with decay_ignored():
        gen = pn.generators_photon_picture(wf)
    for axis in "xyz":
        for turns in (1, 2, 3):
            R = rotation_matrix(axis, turns)
            wfr = rotate_wavefunction(wf, axis, turns)
            with decay_ignored():
                genr = pn.generators_photon_picture(wfr)
            assert abs(genr.H - gen.H) / gen.H < 1e-12
            assert abs(genr.N - gen.N) / gen.N < 1e-12
            for a, b in ((genr.P, R @ gen.P), (genr.J, R @ gen.J),
                         (genr.Jo, R @ gen.Jo), (genr.Js, R @ gen.Js),
                         (genr.K, R @ gen.K)):
                assert rel(a, b) < 1e-12


@settings(max_examples=8, deadline=None)
@given(st.floats(0.0, 0.7), st.floats(-np.pi, np.pi), st.sampled_from((0, 1, 2)),
       st.tuples(*[st.floats(-1.0, 1.0)] * 3), st.sampled_from("xyz"), st.integers(1, 3))
def test_quarter_turn_covariance_over_smooth_states(grid48, weight, phase, m, r0, axis, turns):
    """A random smooth state on a lazily built basis, which `rotate_basis` must derive and then rotate.

    H and N stay, and P, J, Jo, Js and K rotate as vectors, each to 1e-12 of
    its natural scale (H/c for P, hbar N for the angular momenta, H L for K),
    so that a vector the random state makes small is not compared by its own
    rounding.
    """
    g = grid48
    dk = g.dk[0]
    basis = pn.chart_basis(g)
    with decay_ignored():
        wf = pn.gaussian_vortex(g, basis, center=(11 * dk, 11 * dk, 11 * dk), widths=2.0 * dk, m=m,
                                helicity=(1.0, weight * np.exp(1j * phase)), r_offset=r0)
        R = rotation_matrix(axis, turns)
        wfr = rotate_wavefunction(wf, axis, turns)
        assert basis.alpha_base is not None
        gen = pn.generators_photon_picture(wf)
        genr = pn.generators_photon_picture(wfr)
    u = g.units
    L = max(n * d for n, d in zip(g.dims, g.spacing))
    assert abs(genr.H - gen.H) / gen.H < 1e-12
    assert abs(genr.N - gen.N) / gen.N < 1e-12
    for name, scale in (("P", gen.H / u.c), ("J", u.hbar * gen.N), ("Jo", u.hbar * gen.N),
                        ("Js", u.hbar * gen.N), ("K", gen.H * L)):
        err = np.linalg.norm(getattr(genr, name) - R @ getattr(gen, name))
        assert err < 1e-12 * scale, name

