"""Tests of the benchmark's tracer and gates.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import threading
import time
import warnings

import numpy as np
import pytest

import run
import tracer


def _span(id, parent, start, end, name="f", thread=1):
    return {"id": id, "parent": parent, "name": name, "start": start, "end": end,
            "thread": thread, "thread_root": parent is None}


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        _span(1, None, 0.0, 10.0, "outer"),
        _span(2, 1, 1.0, 4.0, "worker", thread=2),   # two pool workers overlap
        _span(3, 1, 3.0, 6.0, "worker", thread=3),
        _span(4, 1, 8.0, 9.0, "inner"),
        _span(5, 4, 8.2, 8.7, "leaf"),
    ]
    own = tracer.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)
    assert own[5] == pytest.approx(0.5)
    stats = tracer.summarize(spans)
    assert stats["worker"]["calls"] == 2
    assert stats["worker"]["self_s"] == pytest.approx(6.0)
    assert stats["outer"]["total_s"] == pytest.approx(10.0)


def test_pool_worker_spans_link_to_submitter_and_count_as_busy():
    tr = tracer.Tracer()
    pool_cls = tr.pool_class()
    nap = tr.wrap("m.nap", lambda s: time.sleep(s))

    def submit_two():
        with pool_cls(max_workers=2) as pool:
            list(pool.map(nap, [0.2, 0.2]))

    outer = tr.wrap("m.outer", submit_two)
    outer()
    by_name = {}
    for s in tr.spans:
        by_name.setdefault(s["name"], []).append(s)
    (outer_span,) = by_name["m.outer"]
    naps = by_name["m.nap"]
    assert len(naps) == 2
    assert all(s["parent"] == outer_span["id"] for s in naps)
    assert all(s["thread"] != threading.get_ident() for s in naps)
    own = tracer.self_times(tr.spans)
    # the naps run side by side, so the outer span's self time is pool overhead only
    assert own[outer_span["id"]] < 0.1
    assert tracer.summarize(tr.spans)["m.nap"]["self_s"] == pytest.approx(0.4, abs=0.1)
    assert tracer.pool_busy_share(tr.spans, tr.pools, tr.main_thread) > 0.7


def test_rebinding_reaches_every_from_import_alias():
    import photonam
    from photonam import fields_bridge, grids, observables, photon_state, polarization

    original = grids.spectral_gradient_k
    tr = tracer.Tracer()
    uninstall = tracer.install(tr)
    try:
        assert polarization.spectral_gradient_k is not original
        assert polarization.spectral_gradient_k is photon_state.spectral_gradient_k
        assert observables.spectral_gradient_k is photonam.spectral_gradient_k
        grid = photonam.make_grid((24, 24, 24))
        basis = photonam.build_basis(grid, (1.0, 0.0, 0.0))
        c = np.pi / 3.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            wf = photonam.gaussian_vortex(grid, basis, center=(c, c, c), widths=2.5 * grid.dk[0])
            photon_state.covariant_derivative(wf)
            observables.darwin_split(fields_bridge.spectral_e_from_wavefunction(wf))
    finally:
        uninstall()
    assert polarization.spectral_gradient_k is original
    assert not hasattr(photonam.build_basis, "__wrapped__")

    by_id = {s["id"]: s for s in tr.spans}
    callers = {}
    for s in tr.spans:
        if s["name"] == "grids.spectral_gradient_k":
            name = by_id[s["parent"]]["name"]
            callers[name] = callers.get(name, 0) + 1
    assert callers == {"polarization.build_basis": 3,
                       "photon_state.covariant_derivative": 2,
                       "observables.darwin_split": 3}


def _observables_report(**deltas):
    base = {"H_field_vs_photon": 1e-16, "P_field_vs_photon": 1e-16, "J_field_vs_photon": 1e-3,
            "K_field_vs_photon": 10.0, "Js_darwin_vs_photon": 4e-16, "Js_textbook_vs_photon": 1e-15}
    base.update(deltas)
    return json.dumps({"deltas": base, "n_photons": 2.0,
                       "routes": {"field": {"J": [0.0, 0.0, 6.0]}}})


def _outcome(step, stdout, inputs):
    o = run.Outcome(step, 0, 1.0, 10.0, stdout, "")
    o.gates, o.values = step.check(stdout, inputs)
    return o


@pytest.mark.parametrize("perturbed", [
    {"H_field_vs_photon": 2e-6},
    {"P_field_vs_photon": float("nan")},
    {"Js_textbook_vs_photon": 5e-3},
])
def test_perturbed_report_fails_its_gate_and_raises_failed_ratio(perturbed):
    step = run.Step("observables", [], check=run.check_observables)
    inputs = {"m": 3, "helicity": 1}
    tally = run.Tally()
    tally.add([_outcome(step, _observables_report(), inputs)])
    assert tally.failed_ratio == 0.0
    tally.add([_outcome(step, _observables_report(**perturbed), inputs)])
    assert tally.failed == 1 and tally.failed_ratio == 0.5


def test_perturbed_split_ratio_and_angular_momentum_fail():
    inputs = {"m": 3, "helicity": 1}
    ratio = run.bessel_ratio(3, 1)
    good = json.dumps({"Jo": [0, 0, ratio * 1.001], "Js": [0, 0, 1.0]})
    bad = json.dumps({"Jo": [0, 0, ratio * 1.02], "Js": [0, 0, 1.0]})
    assert all(g.ok for g in run.check_split(good, inputs)[0])
    assert not all(g.ok for g in run.check_split(bad, inputs)[0])
    off = json.loads(_observables_report())
    off["routes"]["field"]["J"][2] = 6.0 + 1e-8
    gates, _ = run.check_observables(json.dumps(off), inputs)
    assert [g.name for g in gates if not g.ok] == ["field_Jz_per_photon_minus_m"]


def test_perturbed_file_fails_round_trip_gate(tmp_path):
    import photonam
    from photonam import fileio

    grid = photonam.make_grid((24, 24, 24))
    basis = photonam.build_basis(grid, (1.0, 0.0, 0.0))
    c = np.pi / 3.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        wf = photonam.gaussian_vortex(grid, basis, center=(c, c, c), widths=2.5 * grid.dk[0])
    first, second = tmp_path / "a.pnam", tmp_path / "b.pnam"
    fileio.write_wavefunction(str(first), wf)
    fileio.write_wavefunction(str(second), wf)
    assert run.check_round_trip(first, second).ok

    manifest, g = run.read_container(second)
    assert np.array_equal(g[0], wf.gL) and np.array_equal(g[1], wf.gR)
    raw = bytearray(second.read_bytes())
    i = int(np.abs(wf.gL).argmax())                # perturb the largest sample of gL
    offset = len(raw) - g.size * 16 + i * 16
    value = np.frombuffer(raw, "<f8", count=1, offset=offset)[0]
    raw[offset:offset + 8] = np.float64(value * (1 + 1e-8)).tobytes()
    second.write_bytes(bytes(raw))
    assert not run.check_round_trip(first, second).ok
