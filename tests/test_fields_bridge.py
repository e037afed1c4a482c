import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import photonam as pn
from photonam import fields_bridge
from photonam.fields_bridge import RealVectorField
from photonam.grids import (cross_component, forward_transform, inverse_transform, real_forward_transform,
                            _along, _over_slabs, _readonly)

from conftest import (basis_fold_spectrum, divergence_ratio, e_stack, materialized, maxwell_residual, rel,
                      row_slabs, smooth_state, spectral_divergence, wavefunction)


def test_synthesize_zero(grid16, basis16):
    z = np.zeros(grid16.dims, dtype=complex)
    wf = wavefunction(grid16, basis16, z, z)
    rs = pn.synthesize(wf)
    assert np.all(rs.F == 0)


def test_single_bin_plane_wave_oracle(grid16, basis16):
    """One left-handed bin must synthesize the matching circular plane wave."""
    g, b = grid16, basis16
    idx = (2, 3, 4)
    amp = 0.7 - 0.2j
    gL = np.zeros(g.dims, dtype=complex)
    gL[idx] = amp
    wf = wavefunction(g, b, gL, np.zeros(g.dims))
    rs = pn.synthesize(wf, t=0.37)

    kvec = np.stack(g.kvec)[:, idx[0], idx[1], idx[2]]
    om = g.omega()[idx]
    e = e_stack(b)[:, idx[0], idx[1], idx[2]]
    x, y, z = np.meshgrid(*g.x_axes, indexing="ij")
    phase = np.exp(1j * (kvec[0] * x + kvec[1] * y + kvec[2] * z - om * 0.37))
    expected = (g.dVk / (2 * np.pi) ** 1.5) * amp * e[:, None, None, None] * phase
    assert rel(rs.F, expected) < 1e-12
    assert divergence_ratio(g, rs.F) < 1e-12


def test_synthesized_fields_are_divergence_free(state48):
    rs = pn.synthesize(state48)
    assert divergence_ratio(state48.grid, rs.F) < 1e-10


def test_analyze_roundtrip(state48):
    rs = pn.synthesize(state48)
    back = pn.analyze(rs, state48.basis)
    assert rel(back.gL, state48.gL) < 1e-10
    assert rel(back.gR, state48.gR) < 1e-10


def test_analyze_single_bin_helicity(grid16, basis16):
    g, b = grid16, basis16
    idx = (3, 2, 5)
    gR = np.zeros(g.dims, dtype=complex)
    gR[idx] = 1.1 + 0.3j
    wf = wavefunction(g, b, np.zeros(g.dims), gR)
    rs = pn.synthesize(wf)
    back = pn.analyze(rs, b)
    assert rel(back.gR, wf.gR) < 1e-12
    assert np.abs(back.gL).max() < 1e-12 * np.abs(gR[idx])


def test_analyze_rejects_nonradiative_field(grid16, basis16):
    g = grid16
    x, y, z = np.meshgrid(*g.x_axes, indexing="ij")
    r2 = x ** 2 + y ** 2 + z ** 2 + 1.0
    coulombish = np.stack([x, y, z]) * np.exp(-r2 / 18.0)   # strongly longitudinal
    rs = pn.RSField(F=_readonly(coulombish.astype(complex)), grid=g)
    with pytest.raises(ValueError, match="non-radiative"):
        pn.analyze(rs, basis16)


@settings(max_examples=25, deadline=None)
@given(st.tuples(*[st.sampled_from((8, 10, 12, 14, 16))] * 3),
       st.one_of(st.sampled_from(((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.6, 0.8, 0.0))),
                 st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3)),
       st.floats(-50.0, 50.0), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_analyze_inverts_synthesize(dims, axis, t, regauge, seed):
    """analyze(synthesize(wf, t)) is wf evolved by t, for any amplitudes, chart, time and gauge.

    The Nyquist planes are zeroed (k = 0 is, by `wavefunction`): there -k
    aliases onto k, the only place where e*(k).e(-k) does not vanish.
    """
    grid = pn.make_grid(dims)
    basis = pn.chart_basis(grid, np.asarray(axis) / np.linalg.norm(axis))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2,) + dims) + 1j * rng.standard_normal((2,) + dims)
    for ax, n in enumerate(dims):
        g[(slice(None),) + (slice(None),) * ax + (n // 2,)] = 0.0
    wf = wavefunction(grid, basis, g[0], g[1])
    if regauge:
        wf = pn.gauge_transform(wf, rng.uniform(-np.pi, np.pi, dims))
    back = pn.analyze(pn.synthesize(wf, t), wf.basis)
    expected = materialized(pn.evolve(wf, t))
    peak = np.abs(g).max()
    assert back.time == 0.0
    assert np.abs(back.gL - expected.gL).max() <= 1e-12 * peak
    assert np.abs(back.gR - expected.gR).max() <= 1e-12 * peak


@settings(max_examples=25, deadline=None)
@given(st.tuples(*[st.sampled_from((8, 10, 12, 14, 16))] * 3),
       st.one_of(st.sampled_from(((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.6, 0.8, 0.0))),
                 st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3)),
       st.one_of(st.just(0.0), st.floats(-50.0, 50.0)), st.tuples(*[st.floats(0.5, 2.0)] * 3),
       st.integers(0, 2 ** 32 - 1))
@example((8, 8, 8), (0.0, 1.0, 2.4e-7), 0.0, (1.0, 1.0, 1.0), 0)     # pole points off the chart axis
def test_synthesis_from_e_of_k_equals_the_basis_fold(dims, axis, t, units, seed):
    """F(k) = sqrt(eps0/2) [(E + R[E]) + i n x (E - R[E])] of a re-gauged state's E(k) is e gL + R[e* gR], and so is F.

    Random amplitudes on any chart, in non-unit c, hbar and eps0, at t = 0
    and, from a state at time 0.3, t != 0, against the basis fold
    (`conftest.basis_fold_spectrum`): both the spectrum of the slab pass and
    the field `synthesize` returns, from the state and from its E(k).  The
    Nyquist planes are zeroed, as in
    `test_analyze_inverts_synthesize`: there -k aliases onto k, and
    n(-k) != -n(k).
    """
    grid = pn.make_grid(dims, (0.9, 1.1, 1.3), pn.UnitsConfig(*units))
    basis = pn.chart_basis(grid, np.asarray(axis) / np.linalg.norm(axis))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2,) + dims) + 1j * rng.standard_normal((2,) + dims)
    for ax, n in enumerate(dims):
        g[(slice(None),) + (slice(None),) * ax + (n // 2,)] = 0.0
    wf = pn.gauge_transform(wavefunction(grid, basis, g[0], g[1], time=0.3 if t else 0.0),
                            rng.uniform(-np.pi, np.pi, dims))
    expected = basis_fold_spectrum(wf, t)
    Ek = pn.spectral_e_from_wavefunction(wf)
    spectrum = np.empty((3,) + dims, dtype=complex)
    _over_slabs(grid, 0, partial(fields_bridge._field_rows, grid, Ek.values, spectrum, wf.time + t))
    assert np.abs(spectrum - expected).max() <= 1e-14 * np.abs(expected).max()
    field = inverse_transform(grid, expected)
    for rs in (pn.synthesize(wf, t), pn.synthesize(Ek, t)):
        assert rs.time == wf.time + t
        assert np.abs(rs.F - field).max() <= 1e-14 * np.abs(field).max()


def test_synthesize_evolve_bookkeeping(state48):
    a = pn.synthesize(pn.evolve(state48, 0.9), 0.0)
    b = pn.synthesize(state48, 0.9)
    assert a.time == b.time
    assert rel(a.F, b.F) < 1e-14


def test_maxwell_residual_second_order(state48):
    rs0 = pn.synthesize(state48, 0.0)
    r1 = maxwell_residual(rs0, pn.synthesize(state48, 0.08))
    r2 = maxwell_residual(rs0, pn.synthesize(state48, 0.04))
    assert 3.7 < r1 / r2 < 4.3


def test_maxwell_residual_zero_and_negative_control(grid16, basis16, state48):
    z = np.zeros(grid16.dims, dtype=complex)
    zero = wavefunction(grid16, basis16, z, z)
    a = pn.synthesize(zero, 0.0)
    b = pn.synthesize(zero, 0.1)
    assert maxwell_residual(a, b) == 0.0

    rng = np.random.default_rng(0)
    g = state48.grid
    F1 = pn.synthesize(state48, 0.0)
    junk = pn.RSField(F=rng.standard_normal((3,) + g.dims)
                      + 1j * rng.standard_normal((3,) + g.dims), grid=g, time=0.05)
    assert maxwell_residual(F1, junk) > 0.5


def test_spectral_curl_refuses_a_complex_field(grid16):
    with pytest.raises(ValueError, match="real field"):
        pn.spectral_curl(grid16, np.zeros((3,) + grid16.dims, dtype=complex))


def test_a_basis_on_another_grid_is_refused(grid32, basis32, basis16):
    """Same dims, another spacing: the amplitudes would be read on the wrong k points without an error."""
    wf = smooth_state(grid32, basis32, m=1)
    foreign = pn.chart_basis(pn.make_grid(32, (1.0, 1.0, 0.5)))
    dk = grid32.dk[0]
    spec = pn.BesselSpec(k_perp0=9.0 * dk, k_z0=6.0 * dk, m=1, helicity=1, sigma_perp=2.0 * dk, sigma_z=2.0 * dk)
    for make in (lambda: wavefunction(grid32, foreign, wf.gL, wf.gR),
                 lambda: wavefunction(grid32, basis16, wf.gL, wf.gR),
                 lambda: pn.analyze(pn.synthesize(wf), foreign),
                 lambda: pn.bessel_beam(grid32, foreign, spec),
                 lambda: pn.bessel_beam(grid32, basis16, spec)):
        with pytest.raises(ValueError, match="different grids"):
            make()


def test_maxwell_residual_requires_time_order(state48):
    rs0 = pn.synthesize(state48, 0.0)
    rs1 = pn.synthesize(state48, 0.1)
    with pytest.raises(ValueError, match="time ordered"):
        maxwell_residual(rs1, rs0)


def test_vector_potential_cosine_oracle(grid16):
    """B = B0 y_hat cos(k z) has the closed-form transverse potential."""
    g = grid16
    kz = g.k_axes[2][3]
    x, y, z = np.meshgrid(*g.x_axes, indexing="ij")
    B0 = 1.7
    B = np.zeros((3,) + g.dims)
    B[1] = B0 * np.cos(kz * z)
    A = pn.vector_potential(RealVectorField(values=_readonly(B), role="B", grid=g))
    expected = np.zeros((3,) + g.dims)
    expected[0] = (B0 / kz) * np.sin(kz * z)
    assert rel(A.values, expected) < 1e-12


def test_vector_potential_from_packet(state48):
    rs = pn.synthesize(state48)
    B = pn.magnetic_field(rs)
    A = pn.vector_potential(B)
    g = state48.grid
    assert rel(pn.spectral_curl(g, A.values), B.values) < 1e-10
    assert divergence_ratio(g, A.values) < 1e-10


def test_vector_potential_zero_field(grid16):
    B = RealVectorField(values=_readonly(np.zeros((3,) + grid16.dims)), role="B", grid=grid16)
    A = pn.vector_potential(B)
    assert np.all(A.values == 0)


def test_vector_potential_rejects_uniform_mode(grid16):
    B = np.zeros((3,) + grid16.dims)
    B[2] = 1.0
    with pytest.raises(ValueError, match="zero-mode"):
        pn.vector_potential(RealVectorField(values=_readonly(B), role="B", grid=grid16))


def test_vector_potential_rejects_divergent_field(grid16):
    g = grid16
    kx = g.k_axes[0][2]
    x, _, _ = np.meshgrid(*g.x_axes, indexing="ij")
    B = np.zeros((3,) + g.dims)
    B[0] = np.sin(kx * x)      # d_x B_x != 0
    with pytest.raises(ValueError, match="divergence"):
        pn.vector_potential(RealVectorField(values=_readonly(B), role="B", grid=g))


@pytest.mark.parametrize("component", [0, 1, 2])
def test_vector_potential_refuses_a_nan_in_b(grid16, basis16, component):
    """One NaN spreads over its component's whole spectrum, the k=0 bin included, and fails the zero-mode check."""
    B = pn.magnetic_field(pn.synthesize(smooth_state(grid16, basis16))).values.copy()
    B[component, 3, 4, 5] = np.nan
    with pytest.raises(ValueError, match="zero-mode"):
        pn.vector_potential(RealVectorField(values=B, role="B", grid=grid16))


def test_vector_potential_refuses_nan_divergence_sums(grid16, basis16, monkeypatch):
    """NaN divergence sums fail the divergence check; a NaN in B itself stops at the zero-mode check first."""
    B = pn.magnetic_field(pn.synthesize(smooth_state(grid16, basis16)))
    pn.vector_potential(B)
    shares = fields_bridge._half_divergence
    monkeypatch.setattr(fields_bridge, "_half_divergence", lambda *args: (np.nan, shares(*args)[1]))
    with pytest.raises(ValueError, match="not divergence free"):
        pn.vector_potential(B)


def _transverse_noise(grid, rng):
    """White noise made transverse at every bin of the full grid, Nyquist bins included.

    A Nyquist bin aliases onto its own mirror -k, so there a real transverse
    field has no component along that axis, and is perpendicular to k with
    that component of k zeroed.
    """
    Vk = np.fft.fftn(rng.normal(size=(3,) + grid.dims), axes=(1, 2, 3))
    inner = [_along(np.arange(n) != n // 2, ax) for ax, n in enumerate(grid.dims)]
    k = [inner[a] * _along(grid.k_axes[a], a) for a in range(3)]
    for a in range(3):
        Vk[a] *= inner[a]
    k2 = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
    along_k = sum(k[a] * Vk[a] for a in range(3)) / np.where(k2 > 0.0, k2, 1.0)
    for a in range(3):
        Vk[a] -= k[a] * along_k
        Vk[a][k2 == 0.0] = 0.0
    return np.fft.ifftn(Vk, axes=(1, 2, 3)).real


def _random_b(grid, rng, nyquist):
    """B of a state with random amplitudes; without `nyquist` its Nyquist planes are empty, so B is transverse."""
    g = [rng.normal(size=grid.dims) + 1j * rng.normal(size=grid.dims) for _ in range(2)]
    if not nyquist:
        for a in g:
            for ax, n in enumerate(grid.dims):
                np.moveaxis(a, ax, 0)[n // 2] = 0.0
    wf = wavefunction(grid, pn.chart_basis(grid), *g)
    return pn.magnetic_field(pn.synthesize(wf)).values


def _complex_curl(grid, V, denominator=1.0):
    """Reference: i k x V(k) / denominator through the full complex transforms, real part kept."""
    Vk = forward_transform(grid, V)
    return np.stack([inverse_transform(grid, 1j * cross_component(grid.kvec, Vk, j) / denominator).real
                     for j in range(3)])


def _complex_potential(grid, B):
    """Reference: A(k) = i k x B(k) / |k|^2, zero at k = 0."""
    k2 = grid.kmag() ** 2
    k2[grid.excluded_index] = np.inf
    return _complex_curl(grid, B, k2)


@settings(max_examples=25, deadline=None)
@given(st.tuples(*[st.sampled_from((8, 10, 12, 14, 16))] * 3), st.tuples(*[st.floats(0.5, 2.0)] * 3),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_real_transforms_match_the_complex_reference(dims, spacing, nyquist, seed):
    """curl and A of a real field equal the full complex formulas, and the divergence sum of its
    half spectra and of its full spectra each equals the plain-FFT reference, summed whole and
    in slabs of one k_x row (the Nyquist row alone among them)."""
    grid = pn.make_grid(dims, spacing)
    rng = np.random.default_rng(seed)
    B = _transverse_noise(grid, rng) if nyquist else _random_b(grid, rng, nyquist=False)
    for V, ref in ((pn.spectral_curl(grid, B), _complex_curl(grid, B)),
                   (pn.vector_potential(RealVectorField(values=_readonly(B), role="B", grid=grid)).values,
                    _complex_potential(grid, B))):
        assert np.abs(V - ref).max() <= 1e-14 * np.abs(ref).max()
    for field in (_random_b(grid, rng, nyquist=True), rng.normal(size=(3,) + dims)):
        ref = divergence_ratio(grid, field)
        for transform, half in ((real_forward_transform, True), (forward_transform, False)):
            spectra = [transform(grid, field[i]) for i in range(3)]
            for regions in row_slabs(dims[0]):
                ratio = spectral_divergence(grid, spectra, half, regions)
                assert abs(ratio - ref) <= 1e-12 * ref, (transform.__name__, len(regions))


def test_divergence_only_at_the_mirrors_of_the_nyquist_rows():
    """A real B with k.B(k) = 0 at every bin of its half spectrum, divergent only at the mirrors of three bins.

    Beside a transverse part, B holds one bin on the k_x Nyquist plane, one
    on a k_y Nyquist row and one at their corner, all on interior k_z planes.
    The mirror of such a bin keeps the Nyquist momenta, so k.B(-k) !=
    conj k.B(k) there, and each is built with k.B = 0 and k_m.B != 0.
    """
    grid = pn.make_grid((8, 12, 10), (0.7, 1.2, 0.9))
    n0, n1 = grid.dims[0] // 2, grid.dims[1] // 2
    Bk = np.zeros((3,) + grid.half_dims, dtype=complex)
    for idx, c in (((1, 2, 1), (0.3, -1.0, 0.5j)), ((6, 9, 3), (1.0j, 0.2, -0.7))):
        k = [a[i] for a, i in zip(grid.half_k_axes, idx)]
        Bk[(slice(None),) + idx] = np.cross(k, c)           # transverse: k.B = 0 at k and at -k
    for idx, (p, q) in (((n0, 2, 1), (0, 1)), ((1, n1, 2), (0, 1)), ((n0, n1, 4), (0, 2))):
        k = [a[i] for a, i in zip(grid.half_k_axes, idx)]
        Bk[(p,) + idx], Bk[(q,) + idx] = k[q], -k[p]        # k.B = 0; one of k_p, k_q keeps its sign at -k
    B = np.fft.irfftn(Bk, s=grid.dims, axes=(1, 2, 3))
    ref = divergence_ratio(grid, B)
    assert ref > 0.1
    spectra = [real_forward_transform(grid, B[i]) for i in range(3)]
    for regions in row_slabs(grid.dims[0]):
        assert abs(spectral_divergence(grid, spectra, True, regions) - ref) <= 1e-12 * ref, len(regions)
    with pytest.raises(ValueError, match=f"relative residual {ref:.2e}"):
        pn.vector_potential(RealVectorField(values=_readonly(B), role="B", grid=grid))


def test_gaussian_beyond_the_k_edge_is_refused_with_its_full_grid_ratio():
    """A centre component of -Nyquist/3 puts a 24^3 Gaussian one bin nearer the -Nyquist edge of the k grid."""
    grid = pn.make_grid(24)
    c = np.pi / 3.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        wf = pn.gaussian_vortex(grid, pn.chart_basis(grid), center=(-c, c, c), widths=2.5 * grid.dk[0])
    B = pn.magnetic_field(pn.synthesize(wf))
    with pytest.raises(ValueError, match="relative residual 1.42e-03"):
        pn.vector_potential(B)
    assert divergence_ratio(grid, B.values) == pytest.approx(1.4224101508950994e-03, rel=1e-12)


def test_greens_kernel_against_coulomb(grid64):
    rep = pn.greens_function_check(grid64)
    assert rep["max_rel_mismatch"] <= 0.02
    # the fitted periodic offset reproduces the lattice constant
    assert rep["offset_fitted"] == pytest.approx(rep["offset_expected"], rel=0.05)


def test_greens_kernel_improves_with_grid(grid64, grid96):
    # the box-size part of the error shrinks with L; probe it on the diagonal
    # samples (the on-axis cutoff ripple is fixed in cell units by design)
    def diag_max(rep):
        return max(abs(s["rel_mismatch"]) for s in rep["samples"] if s["kind"] == "diag")

    assert diag_max(pn.greens_function_check(grid96)) < diag_max(pn.greens_function_check(grid64))


def test_potential_transforms_each_component_once_and_textbook_split_none(state48, monkeypatch):
    """`vector_potential` transforms each component once each way; `textbook_split` takes no 3-d transform.

    The potential's three components go back in one stacked inverse
    transform, which writes A without a copy.

    The textbook route differentiates along one axis at a time
    (`grids._real_derivative_axis`), so none of the 3-d transforms, the
    package's or numpy's, is called from it.
    """
    from photonam import fields_bridge, grids, observables
    rs = pn.synthesize(state48)
    E, B = pn.electric_field(rs), pn.magnetic_field(rs)
    calls = []

    def counted(name, transform):
        def call(*args, **kwargs):
            calls.extend([name] * int(np.prod(np.shape(args[-1])[:-3])))     # one per component
            return transform(*args, **kwargs)
        return call

    for name in ("forward_transform", "inverse_transform", "real_forward_transform", "real_inverse_transform"):
        wrapped = counted(name, getattr(grids, name))
        for module in (grids, fields_bridge, observables):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    for name in ("fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, counted(f"np.fft.{name}", getattr(np.fft, name)))
    A = pn.vector_potential(B)
    # B, whose spectra also give the divergence check, and one inverse per component of A
    assert sorted(calls) == ["real_forward_transform"] * 3 + ["real_inverse_transform"] * 3
    calls.clear()
    pn.textbook_split(E, A)
    assert calls == []


def test_analyze_transforms_each_component_once(state48, monkeypatch):
    from photonam import fields_bridge, grids
    rs = pn.synthesize(state48)
    calls = []

    def counted(grid, f):
        calls.append(np.shape(f))
        return grids.forward_transform(grid, f)

    monkeypatch.setattr(fields_bridge, "forward_transform", counted)
    pn.analyze(rs, state48.basis)
    assert calls == [state48.grid.dims] * 3     # F, whose spectra also give the divergence check
