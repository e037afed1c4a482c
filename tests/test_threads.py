"""Threaded kernels give the same bits for any THREADS.

Each test runs a kernel three times and compares the results with
``np.array_equal``: whole (one slab, as a kernel runs on a small grid), in
slabs at THREADS=1, and in slabs on more threads.  The `threaded` fixture
sets the slab size below which a kernel stays whole, so these small grids
take the slab paths, and counts the pools that ran, so no comparison is made
between two single-threaded runs.
"""

import json
import threading

import numpy as np
import pytest

import photonam as pn
from photonam import grids, photon_state
from photonam.cli import main

from conftest import decay_ignored, e_stack, smooth_state


@pytest.fixture()
def threaded(monkeypatch):
    """``run(threads, fn, slabs)`` calls ``fn()`` at that THREADS, in slabs or whole; `pools` lists the worker counts."""
    pools = []

    class Pool(grids.ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(grids, "ThreadPoolExecutor", Pool)

    def run(threads, fn, slabs=True):
        monkeypatch.setenv("THREADS", str(threads))
        monkeypatch.setattr(grids, "_MIN_SLAB_POINTS", 1 if slabs else 2 ** 62)
        return fn()

    run.pools = pools
    return run


def _same(a, b):
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _compare(threaded, fn, threads=2):
    whole = threaded(threads, fn, slabs=False)
    one = threaded(1, fn)
    assert threaded.pools == [], "a whole kernel or THREADS=1 started a pool"
    out = threaded(threads, fn)
    assert threaded.pools and set(threaded.pools) <= set(range(2, threads + 1))
    assert _same(one, whole) and _same(out, whole)
    return out


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("transform", ["forward", "inverse", "real_forward", "real_inverse"])
def test_transforms_are_identical_for_any_thread_count(threaded, transform, lead):
    grid = pn.make_grid((16, 12, 10))
    rng = np.random.default_rng(7)
    f = rng.standard_normal(lead + grid.dims) + 1j * rng.standard_normal(lead + grid.dims)
    axes = (-3, -2, -1)
    calls = {
        "forward": lambda: pn.forward_transform(grid, f),
        "inverse": lambda: pn.inverse_transform(grid, f),
        "real_forward": lambda: grids.real_forward_transform(grid, f.real),
        "real_inverse": lambda: grids.real_inverse_transform(grid, f[..., :grid.half_dims[2]]),
    }
    out = _compare(threaded, calls[transform])
    # the real pair is numpy's, bit for bit
    if transform == "real_forward":
        assert np.array_equal(out, np.fft.rfftn(f.real, axes=axes))
    if transform == "real_inverse":
        assert np.array_equal(out, np.fft.irfftn(f[..., :grid.half_dims[2]], s=grid.dims, axes=axes))


@pytest.mark.parametrize("dtype", [float, complex])
def test_spectral_gradient_k_is_identical_for_any_thread_count(threaded, dtype):
    grid = pn.make_grid((16, 12, 10))
    f = np.random.default_rng(8).standard_normal(grid.dims).astype(dtype)
    out = _compare(threaded, lambda: pn.spectral_gradient_k(grid, f))
    for ax in range(3):
        assert np.array_equal(out[ax], grids._gradient_k_axis(grid, f, ax, np.empty_like(f)))


@pytest.mark.parametrize("chart", [(1.0, 0.0, 0.0), (0.0, np.cos(1e-7), np.sin(1e-7)), tuple(np.ones(3) / np.sqrt(3.0))])
def test_basis_e_is_identical_for_any_thread_count(threaded, chart):
    """The x chart puts a pole point in every k_x slab, away from the slab of k = 0."""
    grid = pn.make_grid(16)
    basis = pn.chart_basis(grid, chart)
    if chart[0] == 1.0:
        poles = np.argwhere(basis.pole_mask())
        assert set(poles[:, 0]) == set(range(16))
    _compare(threaded, lambda: (e_stack(basis), pn.build_basis(grid, chart).alpha_base))


@pytest.mark.parametrize("time", [0.0, 0.7])
@pytest.mark.parametrize("gauged", [False, True])
def test_photon_picture_is_identical_for_any_thread_count(threaded, grid32, basis32, time, gauged):
    wf = pn.evolve(smooth_state(grid32, basis32, seed=4, mix=(1.0, 0.5j), m=1), time)
    if gauged:
        kx, ky, kz = grid32.kvec
        wf = pn.gauge_transform(wf, 0.4 * kx * ky + 0.2 * kz + 0.1)

    def run():
        with decay_ignored():
            gen = pn.generators_photon_picture(wf)
        terms = [(j, t.copy()) for j, t in photon_state._covariant_terms(wf)]
        return [gen.H, gen.N, gen.P, gen.J, gen.K, gen.Jo, gen.Js, gen.diagnostics], terms

    _compare(threaded, run)


def test_five_route_observables_are_identical_for_any_thread_count(threaded, tmp_path, capsys):
    beam = tmp_path / "beam.pam"
    with decay_ignored():
        assert main(["beam", "gaussian", "--grid", "32", "-o", str(beam)]) == 0
    capsys.readouterr()

    def run():
        with decay_ignored():
            assert main(["observables", str(beam), "--routes", "photon,field,darwin,textbook,nonlocal", "--json"]) == 0
        return capsys.readouterr().out

    text = _compare(threaded, run)
    assert set(json.loads(text)["routes"]) == {"photon", "field", "darwin", "textbook", "nonlocal"}


def test_a_grid_with_fewer_rows_than_workers(threaded):
    """Six workers on 8 rows: every kernel still covers each row once."""
    grid = pn.make_grid(8)
    f = np.random.default_rng(9).standard_normal((3,) + grid.dims) + 0j

    def run():
        F = pn.forward_transform(grid, f)
        half = grids.real_forward_transform(grid, f.real)
        basis = pn.build_basis(grid, (1.0, 0.0, 0.0))
        return (F, pn.inverse_transform(grid, F), half, grids.real_inverse_transform(grid, half),
                pn.spectral_gradient_k(grid, f[0]), e_stack(basis), basis.alpha_base)

    out = _compare(threaded, run, threads=6)
    assert 6 in threaded.pools
    assert np.allclose(out[1], f) and np.allclose(out[3], f.real)


def test_a_call_from_a_worker_runs_inline(threaded):
    """A helper call made on a worker runs on that worker: one pool, no nested threads."""
    def outer(item):
        inner = grids._map_threads(lambda _: threading.current_thread().name, range(4))
        return threading.current_thread().name, inner

    results = threaded(2, lambda: grids._map_threads(outer, range(2)))
    assert threaded.pools == [2]
    for name, inner in results:
        assert name.startswith(grids._WORKER_NAME) and inner == [name] * 4


def test_a_threads_value_that_is_no_integer_is_refused(monkeypatch, grid16):
    monkeypatch.setenv("THREADS", "two")
    with pytest.raises(ValueError, match="THREADS must be an integer, not 'two'"):
        pn.forward_transform(grid16, np.zeros(grid16.dims))
