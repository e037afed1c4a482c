from dataclasses import replace

import numpy as np
import pytest

import photonam as pn
from photonam import algebra_checks, grids
from photonam.algebra_checks import OperatorTag
from photonam.grids import _readonly

from conftest import decay_ignored, rel, smooth_state


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
    wf = smooth_state(grid48, basis48, seed=4, mix=(1.0, 0.4), m=1)
    with decay_ignored():
        gen = pn.generators_photon_picture(wf)
    jz = pn.scalar_product(wf, pn.apply_generator("Jz", wf))
    assert jz.real == pytest.approx(gen.J[2], rel=1e-10)
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
    """The pairs run on the shared THREADS helper: one thread at THREADS=1, a pool of two at THREADS=2."""
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
    assert pools == [[], [2]]
    assert runs[0] == runs[1]


def test_run_suite_derives_a_lazy_connection_once(monkeypatch, grid16, basis16, gradient_calls):
    """On a basis whose connection is not yet derived, six workers share one derivation."""
    wf = smooth_state(grid16, pn.chart_basis(grid16), seed=5)
    del gradient_calls[:]
    monkeypatch.setenv("THREADS", "6")
    reports = pn.run_suite(wf)
    assert len(gradient_calls) == 3 and wf.basis.alpha_base is not None
    assert reports == pn.run_suite(smooth_state(grid16, basis16, seed=5))
