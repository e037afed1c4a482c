from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import photonam as pn
from photonam import algebra_checks, grids, photon_state
from photonam.algebra_checks import OperatorTag
from photonam.grids import _readonly

from conftest import decay_ignored, fd_photon_picture, rel, smooth_state


def test_operator_tag_parsing():
    assert OperatorTag.parse("H").kind == "H"
    assert OperatorTag.parse("Jy") == OperatorTag("J", 1)
    assert str(OperatorTag.parse("Kz")) == "Kz"
    with pytest.raises(ValueError, match="unknown"):
        OperatorTag.parse("Qx")
    with pytest.raises(ValueError, match="unknown"):
        OperatorTag.parse("Jw")


def test_energy_on_single_bin(grid16, basis16):
    g = grid16
    idx = (4, 2, 6)
    gL = np.zeros(g.dims, dtype=complex)
    gL[idx] = 2.0 - 1.0j
    wf = pn.wavefunction(g, basis16, gL, np.zeros(g.dims))
    out = pn.apply_generator("H", wf)
    expect = g.units.hbar * g.omega()[idx] * gL[idx]
    assert out.gL[idx] == pytest.approx(expect, rel=1e-14)
    assert np.count_nonzero(out.gL) == 1


def test_jz_expectation_matches_observables(grid48, basis48):
    """<Jz> of the generator algebra equals the FD photon picture's J_z: both take the FD covariant derivative."""
    wf = smooth_state(grid48, basis48, seed=4, mix=(1.0, 0.4), m=1)
    gen = fd_photon_picture(wf)
    jz = pn.scalar_product(wf, pn.apply_generator("Jz", wf))
    assert jz.real == pytest.approx(gen["J"][2], rel=1e-10)
    # imaginary part is the reported stencil diagnostic, O(dk^2)
    assert abs(jz.imag) < 2e-2 * abs(jz.real)


def test_momentum_commutators_exact(state48):
    rep = pn.check_commutator("Px", "Py", state48)
    assert rep.exact and rep.residual < 1e-12
    rep = pn.check_commutator("H", "Pz", state48)
    assert rep.exact and rep.residual < 1e-12


def test_commutator_reports_never_throw_on_bad_states(grid16, basis16):
    # even a rough state yields a report, with whatever residual it earns
    rng = np.random.default_rng(0)
    raw = rng.standard_normal(grid16.dims) + 1j * rng.standard_normal(grid16.dims)
    wf = pn.wavefunction(grid16, basis16, raw, raw)
    rep = pn.check_commutator("Jx", "Jy", wf)
    assert rep.residual >= 0


def test_unknown_relation_rejected(state48):
    with pytest.raises(ValueError, match="unknown operator"):
        pn.check_commutator("Qx", "Jy", state48)


def test_derivative_commutators_second_order(grid48, grid96, basis48, basis96):
    # the same physical state on both grids: width fixed by the coarse step
    sig = 2.0 * grid48.dk[0]
    results = {}
    for g, b in ((grid48, basis48), (grid96, basis96)):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            kc = (g.dims[0] / 4.0) * g.dk[0]
            wf = pn.gaussian_vortex(g, b, center=(kc, kc, kc), widths=sig,
                                    m=0, helicity=(1.0, 0.6), r_offset=(0.4, -0.7, 0.2))
        results[g.dims[0]] = {
            "JJ": pn.check_commutator("Jx", "Jy", wf).residual,
            "KP": pn.check_commutator("Kx", "Px", wf).residual,
            "HK": pn.check_commutator("H", "Kx", wf).residual,
            "curv": pn.check_curvature(wf).residual,
        }
    for key in results[48]:
        assert results[48][key] / results[96][key] > 3.0, key


def test_reversed_pair_uses_antisymmetry(state48):
    ab = pn.check_commutator("Kx", "Px", state48)
    ba = pn.check_commutator("Px", "Kx", state48)
    assert ab.residual == pytest.approx(ba.residual, rel=1e-12)
    assert ba.expected.startswith("-(")


def test_curvature_negative_control(grid48, basis48):
    """A global sign flip of the connection must break the curvature relation."""
    wf = smooth_state(grid48, basis48, seed=8, mix=(1.0, 0.0))
    good = pn.check_curvature(wf).residual
    flipped_basis = replace(basis48, alpha_base=_readonly(-basis48.alpha_base))
    wf_bad = replace(wf, basis=flipped_basis)
    bad = pn.check_curvature(wf_bad).residual
    assert good < 0.2
    assert bad > 0.5


def test_run_suite_covers_all_families(state48):
    reports = pn.run_suite(state48)
    pairs = {r.pair for r in reports}
    assert "[Px, Py]" in pairs and "[Jx, Jy]" in pairs and "[Dx, Dy]" in pairs
    assert len(reports) == len(algebra_checks.DEFAULT_SUITE) + 1
    for r in reports:
        assert np.isfinite(r.residual)


def test_run_suite_is_identical_for_any_thread_count(monkeypatch, grid16, basis16):
    """The base derivatives, then the pairs, run on the shared THREADS helper: inline at THREADS=1, two pools of two at THREADS=2."""
    workers = []

    class Pool(grids.ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            workers.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(grids, "ThreadPoolExecutor", Pool)
    wf = smooth_state(grid16, basis16, seed=5)
    runs, pools = [], []
    for threads in ("1", "2"):
        monkeypatch.setenv("THREADS", threads)
        runs.append(pn.run_suite(wf))
        pools.append(workers[:])
        del workers[:]
    assert pools == [[], [2, 2]]
    assert runs[0] == runs[1]


def test_run_suite_derives_a_lazy_connection_once(monkeypatch, grid16, basis16, gradient_calls):
    """On a basis whose connection is not yet derived, six workers share one derivation."""
    wf = smooth_state(grid16, pn.chart_basis(grid16), seed=5)
    del gradient_calls[:]
    monkeypatch.setenv("THREADS", "6")
    reports = pn.run_suite(wf)
    assert len(gradient_calls) == 3 and wf.basis.alpha_base is not None
    assert reports == pn.run_suite(smooth_state(grid16, basis16, seed=5))


@pytest.mark.parametrize("threads", ["1", "2"])
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4), st.floats(-3.0, 3.0), st.integers(0, 2 ** 16))
def test_run_suite_equals_each_check_alone(monkeypatch, grid16, basis16, threads, coefficients, t, seed):
    """The derivatives the suite shares give the reports each relation gives on its own, bit for bit.

    On a re-gauged state at any time, so the construction gauge and the
    evolution-phase gradient of D are both in play.
    """
    monkeypatch.setenv("THREADS", threads)
    kx, ky, kz = np.meshgrid(*grid16.k_axes, indexing="ij")
    a, b, c, d = coefficients
    phase = a + b * kx + c * ky * kz + d * np.cos(kz)
    wf = pn.evolve(pn.gauge_transform(smooth_state(grid16, basis16, seed=seed, mix=(1.0, 0.5j), m=1), phase), t)
    alone = [pn.check_commutator(p, q, wf) for p, q in algebra_checks.DEFAULT_SUITE] + [pn.check_curvature(wf)]
    assert pn.run_suite(wf) == alone


def test_run_suite_derives_each_base_derivative_once(monkeypatch, state48):
    """Of the 39 D axes the suite applies, the three of the state itself are derived once: 20 axes, 40 stencils."""
    calls, stencil = [], photon_state._gradient_k_axis

    def counted(*args, **kwargs):
        calls.append(args[2])
        return stencil(*args, **kwargs)

    monkeypatch.setattr(photon_state, "_gradient_k_axis", counted)
    pn.run_suite(state48)
    assert len(calls) == 40
