"""Threaded kernels give the same bits for any THREADS.

Each test runs a kernel three times: whole (one slab, as a kernel runs on a
small grid), in slabs at THREADS=1, and in slabs on more threads.  The
`threaded` fixture sets the slab size below which a kernel stays whole, so
these small grids take the slab paths, and counts the pools that ran, so no
comparison is made between two single-threaded runs.

Elementwise outputs (transforms, gradients, e(k), alpha, E(k), beams) are
equal in all three runs, by ``np.array_equal``.  A sum is added up slab by
slab, in slab order, so it equals the whole run's only to rounding
(`REDUCED`), and the two slabbed runs bit for bit.
"""

import json
import threading
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import photonam as pn
from photonam import grids
from photonam.cli import _generator_dict, build_report, main
from photonam.fields_bridge import SpectralEField
from photonam.observables import _textbook_moments

from conftest import decay_ignored, e_stack, project_spectral_e, smooth_state


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


#: relative agreement of a sum added up in slabs with the same sum taken whole
REDUCED = 1e-14


def _same(a, b, rtol=0.0, scale=None):
    """`a` equals `b` leaf by leaf: exactly, or to `rtol` times the largest magnitude of the leaf (or `scale`)."""
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y, rtol, scale) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k], rtol, scale) for k in a)
    if a is None or b is None:
        return a is b
    if not rtol:
        return np.array_equal(a, b)
    a, b = np.asarray(a), np.asarray(b)
    size = np.abs(b).max() if scale is None else scale
    return a.shape == b.shape and np.abs(a - b).max() <= rtol * size


def _compare(threaded, fn, threads=2, close=_same):
    """Run `fn` whole, in slabs at THREADS=1 and in slabs on `threads` threads; return the last result.

    The two slabbed runs are equal bit for bit; ``close(slabbed, whole)``
    compares them with the whole run, exactly by default.
    """
    threaded.pools.clear()
    whole = threaded(threads, fn, slabs=False)
    one = threaded(1, fn)
    assert threaded.pools == [], "a whole kernel or THREADS=1 started a pool"
    out = threaded(threads, fn)
    assert threaded.pools and set(threaded.pools) <= set(range(2, threads + 1))
    assert _same(out, one), "the slabbed runs differ"
    assert close(one, whole), "the slabbed run differs from the whole run"
    return out


def _reduced(a, b):
    """``(values, ratios)`` pairs agree: values to REDUCED of their size, ratios (dimensionless) to REDUCED."""
    return _same(a[0], b[0], REDUCED) and _same(a[1], b[1], REDUCED, scale=1.0)


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


def test_slab_regions_depend_on_the_grid_alone(monkeypatch):
    """The transforms and e(k) hand `_map_threads` the same regions at any THREADS: a slab per row, then per column."""
    grid = pn.make_grid((16, 12, 10))
    f = np.random.default_rng(10).standard_normal((3,) + grid.dims) + 0j
    basis = pn.chart_basis(grid, (1.0, 0.0, 0.0))
    monkeypatch.setattr(grids, "_MIN_SLAB_POINTS", 1)
    seen, mapped = [], grids._map_threads

    def recorded(fn, items):
        seen.append(list(items))
        return mapped(fn, seen[-1])

    monkeypatch.setattr(grids, "_map_threads", recorded)

    def regions(threads):
        monkeypatch.setenv("THREADS", str(threads))
        seen.clear()
        for x in (f[0], f):
            pn.forward_transform(grid, x)
            pn.inverse_transform(grid, x)
            grids.real_forward_transform(grid, x.real)
            grids.real_inverse_transform(grid, x[..., :grid.half_dims[2]])
        basis.e(0)
        return list(seen)

    rows = [(slice(i, i + 1), slice(None), slice(None)) for i in range(16)]
    columns = [(slice(None), slice(j, j + 1), slice(None)) for j in range(12)]
    transforms = [rows, columns] * 3 + [columns, rows]     # real_inverse_transform runs its columns first
    assert regions(1) == regions(2) == regions(5) == transforms * 2 + [rows]


@pytest.mark.parametrize("dtype", [float, complex])
def test_spectral_gradient_k_is_identical_for_any_thread_count(threaded, dtype):
    grid = pn.make_grid((16, 12, 10))
    f = np.random.default_rng(8).standard_normal(grid.dims).astype(dtype)
    out = _compare(threaded, lambda: pn.spectral_gradient_k(grid, f))
    for ax in range(3):
        assert np.array_equal(out[ax], grids._gradient_k_axis(grid, f, ax, np.empty_like(f)))


def _regauged(basis):
    """`basis` carrying a smooth chart phase."""
    grid = basis.grid
    kx, ky, kz = grid.kvec
    zero = np.zeros(grid.dims)
    return pn.gauge_transform(pn.wavefunction(grid, basis, zero, zero), 0.3 * kx * kz - 0.2 * ky).basis


CHARTS = [(1.0, 0.0, 0.0), (0.0, np.cos(1e-7), np.sin(1e-7)), tuple(np.ones(3) / np.sqrt(3.0))]


@pytest.mark.parametrize("chart", CHARTS)
def test_basis_e_is_identical_for_any_thread_count(threaded, chart):
    """The x chart puts a pole point in every k_x slab, away from the slab of k = 0; the phase is applied per slab."""
    grid = pn.make_grid(16)
    basis = pn.chart_basis(grid, chart)
    if chart[0] == 1.0:
        poles = np.argwhere(basis.pole_mask())
        assert set(poles[:, 0]) == set(range(16))
    gauged = _regauged(basis)
    _compare(threaded, lambda: (e_stack(basis), e_stack(gauged)))


@pytest.mark.parametrize("chart", CHARTS)
def test_connection_is_identical_for_any_thread_count(threaded, chart):
    """alpha's products e* d_j e and their subtraction run in k_x slabs and equal them taken whole."""
    grid = pn.make_grid((16, 12, 10))
    alpha = _compare(threaded, lambda: pn.build_basis(grid, chart).alpha_base)
    basis = pn.chart_basis(grid, chart)
    oracle = np.zeros((3,) + grid.dims)
    for c in range(3):
        e = basis.e(c)
        oracle -= (pn.spectral_gradient_k(grid, e) * np.conjugate(e)).imag
    assert np.array_equal(alpha, oracle)


def _gauged_state(grid, basis, time, gauged):
    wf = pn.evolve(smooth_state(grid, basis, seed=4, mix=(1.0, 0.5j), m=1), time)
    if gauged:
        kx, ky, kz = grid.kvec
        wf = pn.gauge_transform(wf, 0.4 * kx * ky + 0.2 * kz + 0.1)
    return wf


def _report(gen):
    """The reduced values of a GeneratorSet, and its diagnostics (dimensionless ratios: scale 1)."""
    return [gen.H, gen.N, gen.P, gen.J, gen.K, gen.Jo, gen.Js], gen.diagnostics


@pytest.mark.parametrize("time", [0.0, 0.7])
@pytest.mark.parametrize("gauged", [False, True])
def test_photon_picture_is_identical_for_any_thread_count(threaded, grid32, basis32, time, gauged):
    """Each exact derivative d_a E_i of the snapshot's E(k) exactly, and the sums N, H, P, Js, K and Jo in slabs.

    The derivative along a runs in slabs of another axis, as the photon
    picture runs it; the real-space margin of its inverse passes is one of
    the diagnostics.
    """
    wf = _gauged_state(grid32, basis32, time, gauged)
    E = pn.spectral_e_from_wavefunction(replace(wf, time=0.0)).values

    def derivatives():
        out = np.empty((3, 3) + grid32.dims, dtype=complex)

        def slab(i, a, region):
            out[(a, i) + region] = grids._exact_gradient_k_axis(grid32, E[i], a, region)[0]

        for i in range(3):
            for a in range(3):
                grids._over_slabs(grid32, 1 if a == 0 else 0, partial(slab, i, a))
        return out

    def sums():
        with decay_ignored():
            return _report(pn.generators_photon_picture(wf))

    _compare(threaded, derivatives)
    _compare(threaded, sums, close=_reduced)


@pytest.mark.parametrize("time", [0.0, 0.7])
@pytest.mark.parametrize("gauged", [False, True])
def test_spectral_e_is_identical_for_any_thread_count(threaded, grid32, basis32, time, gauged):
    """E(k) from a state, filled in k_x slabs."""
    wf = _gauged_state(grid32, basis32, time, gauged)
    _compare(threaded, lambda: pn.spectral_e_from_wavefunction(wf).values)


def test_darwin_split_is_identical_for_any_thread_count(threaded, grid32, basis32):
    Ek = pn.spectral_e_from_wavefunction(_gauged_state(grid32, basis32, 0.7, True))

    def run():
        with decay_ignored():
            Jo, Js, diagnostics = pn.darwin_split(Ek)
        return [Jo, Js], diagnostics

    _compare(threaded, run, close=_reduced)


def test_build_report_hands_one_e_of_k_to_the_photon_and_darwin_routes(threaded, grid32, basis32):
    """The photon route fed the report's E(k) equals the route alone, bit for bit, at t = 0 and 0.7.

    E(k) is the snapshot's, so darwin's Jo and Js of the free field are the
    same at both times.
    """
    reports = {}
    for time in (0.0, 0.7):
        wf = _gauged_state(grid32, basis32, time, True)
        with decay_ignored():
            reports[time] = threaded(2, lambda: build_report(wf, ("photon", "darwin")))
            alone = threaded(2, lambda: _generator_dict(pn.generators_photon_picture(wf)))
        assert reports[time]["routes"]["photon"] == alone
    for key in ("Jo", "Js"):
        now, later = (np.array(reports[t]["routes"]["darwin"][key]) for t in (0.0, 0.7))
        assert np.abs(later - now).max() <= 1e-13 * np.abs(now).max()


def test_textbook_split_is_identical_for_any_thread_count(threaded, grid32, basis32):
    """Each one-axis derivative d_b A_i and its sums, and the sums of E x A, run in slabs of another axis.

    Four workers, more than the cores, write their slabs of the shared div A
    buffer; a lost update would move the divergence check.
    """
    rs = pn.synthesize(_gauged_state(grid32, basis32, 0.7, False))
    E, A = pn.electric_field(rs), pn.vector_potential(pn.magnetic_field(rs))
    _compare(threaded, lambda: (pn.textbook_split(E, A), _textbook_moments(grid32, E.values, A.values)[1]),
             threads=4, close=_reduced)


def test_field_picture_is_identical_for_any_thread_count(threaded, grid32, basis32):
    rs = pn.synthesize(_gauged_state(grid32, basis32, 0.7, False))

    def run():
        with decay_ignored():
            return _report(pn.generators_field_picture(rs))

    _compare(threaded, run, close=_reduced)


def test_nonlocal_spin_is_identical_for_any_thread_count(threaded, grid32, basis32):
    """The convolution's last inverse transform and its sums with E run in x slabs."""
    rs = pn.synthesize(_gauged_state(grid32, basis32, 0.7, False))
    E, B = pn.electric_field(rs), pn.magnetic_field(rs)
    _compare(threaded, lambda: pn.spin_nonlocal_real(E, B), close=lambda one, whole: _same(one, whole, REDUCED))


def _whole_bessel_beam(grid, basis, spec):
    """The beam built whole, as one (3,) + dims E(k) projected by `conftest.project_spectral_e`: the slabbed beam's oracle."""
    kx, ky, kz = grid.kvec
    kperp = np.hypot(kx, ky)
    ep = np.exp(-((kperp - spec.k_perp0) ** 2) / (2.0 * spec.sigma_perp ** 2)
                - ((kz - spec.k_z0) ** 2) / (2.0 * spec.sigma_z ** 2))
    winding = np.divide(kx + 1j * np.sign(spec.m) * ky, kperp, out=np.ones(grid.dims, dtype=complex),
                        where=kperp > 0.0)
    ep = -np.sqrt(2.0) * ep * winding ** abs(spec.m)
    e_z = pn.chart_basis(grid, (0.0, 0.0, 1.0))
    Ek = np.empty((3,) + grid.dims, dtype=complex)
    for i in range(3):
        e_z.e(i, out=Ek[i])
        if spec.helicity < 0:
            np.conjugate(Ek[i], out=Ek[i])
        Ek[i] *= ep
    return project_spectral_e(SpectralEField(values=Ek, grid=grid), basis)


@pytest.mark.parametrize("m, helicity", [(3, 1), (2, -1), (-4, 1), (1, -1), (0, 1)])
@pytest.mark.parametrize("gauged", [False, True])
def test_bessel_beam_is_identical_for_any_thread_count(threaded, m, helicity, gauged):
    """Envelope, e_z column and projection per k_x slab equal the whole E(k) projected at once, bit for bit."""
    grid = pn.make_grid((28, 26, 26))
    sigma = 2.0 * max(grid.dk)
    spec = pn.BesselSpec(k_perp0=2.05, k_z0=2.0, m=m, helicity=helicity, sigma_perp=sigma, sigma_z=sigma)
    basis = pn.chart_basis(grid, (1.0, 0.0, 0.0))
    if gauged:
        basis = _regauged(basis)

    def run():
        with decay_ignored():
            wf = pn.bessel_beam(grid, basis, spec, photons=None)
        return wf.gL, wf.gR

    gL, gR = _compare(threaded, run)
    with decay_ignored():
        oracle = threaded(1, lambda: _whole_bessel_beam(grid, basis, spec), slabs=False)
    assert np.array_equal(gL, oracle.gL) and np.array_equal(gR, oracle.gR)


def test_beam_file_is_identical_for_any_thread_count(threaded, tmp_path, capsys):
    beam = tmp_path / "beam.pnam"

    def run():
        with decay_ignored():
            assert main(["beam", "bessel", "--grid", "48", "--m", "3", "--chart-axis=1,0,0", "-o", str(beam)]) == 0
        capsys.readouterr()
        return np.frombuffer(beam.read_bytes(), dtype=np.uint8)

    _compare(threaded, run)


def _json_leaves(value, path=()):
    """Each number of a JSON report as ``(path, list of numbers)``, a vector as one leaf."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_leaves(item, path + (key,))
    elif isinstance(value, list) and all(isinstance(x, (int, float)) for x in value):
        yield path, value
    elif isinstance(value, list):
        for n, item in enumerate(value):
            yield from _json_leaves(item, path + (n,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, [value]


def test_five_route_observables_are_identical_for_any_thread_count(threaded, tmp_path, capsys):
    """The report's text is the same for any THREADS; its numbers agree with the whole run to rounding.

    A delta or a diagnostic is itself a ratio, so it agrees to REDUCED; any
    other number to REDUCED of the largest entry of its vector.
    """
    beam = tmp_path / "beam.pam"
    with decay_ignored():
        assert main(["beam", "gaussian", "--grid", "32", "-o", str(beam)]) == 0
    capsys.readouterr()

    def run():
        with decay_ignored():
            assert main(["observables", str(beam), "--routes", "photon,field,darwin,textbook,nonlocal", "--json"]) == 0
        return capsys.readouterr().out

    def close(text, whole):
        leaves, whole = (dict(_json_leaves(json.loads(t))) for t in (text, whole))
        return leaves.keys() == whole.keys() and all(
            _same(np.array(value), np.array(whole[path]), REDUCED,
                  scale=1.0 if "deltas" in path or "diagnostics" in path else None)
            for path, value in leaves.items())

    text = _compare(threaded, run, close=close)
    assert set(json.loads(text)["routes"]) == {"photon", "field", "darwin", "textbook", "nonlocal"}


def test_a_grid_with_fewer_rows_than_workers(threaded):
    """Six workers on 8 rows: every kernel still covers each row once."""
    grid = pn.make_grid(8)
    f = np.random.default_rng(9).standard_normal((3,) + grid.dims) + 0j

    def run():
        F = pn.forward_transform(grid, f)
        half = grids.real_forward_transform(grid, f.real)
        basis = pn.build_basis(grid, (1.0, 0.0, 0.0))
        Ek = pn.spectral_e_from_wavefunction(pn.wavefunction(grid, basis, f[1], f[2]))
        return (F, pn.inverse_transform(grid, F), half, grids.real_inverse_transform(grid, half),
                pn.spectral_gradient_k(grid, f[0]), e_stack(basis), basis.alpha_base, Ek.values)

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
