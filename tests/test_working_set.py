"""Working sets of the stages, in complex grid arrays at 64^3.

Each stage streams over components and axes instead of building (3, N)
complex stacks it only reduces or transforms, and derives the grid metadata
it uses; these budgets hold it there.  The peaks are tracemalloc peaks above
the size at the call, so inputs prepared beforehand do not count, while the
stage's own result does.  tracemalloc sees every thread, and every test runs
at THREADS=2, so the budgets hold on the threaded paths on any machine.
"""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import photonam as pn
from photonam import fileio
from photonam.cli import build_report, main

from conftest import smooth_state, traced_peak


@pytest.fixture(autouse=True)
def two_threads(monkeypatch):
    monkeypatch.setenv("THREADS", "2")


BUDGETS = {
    "build_basis": 6.1,
    "basis.e": 1.0,
    "generators_photon_picture": 3.2,
    "generators_photon_picture_lazy_basis": 3.2,     # derives no alpha: the same route as on a built basis
    "darwin_split": 5.1,
    "vector_potential": 5.0,
    # B passed as a temporary is freed once its spectra exist: 4.60 measured, and 6.1 if it were held
    "vector_potential_temporary_B": 5.0,
    # one real buffer for div A (0.5) and, on each of two workers, the 1-d spectrum and
    # derivative of a half-grid slab (0.51): 1.52 measured
    "textbook_split": 1.6,
    "bessel_beam": 7.1,
    # gL and gR, written in place per slab and scaled there, and the decay margin's |g|: 4.00 measured
    "gaussian_vortex": 4.6,
    # E(k) and F(k), transformed in place (6.0), and a few k_x planes of scratch per worker: 6.27 measured
    "synthesize": 6.6,
    # a state passed as a temporary is freed once its E(k) exists: 6.27 measured, and 8.3 if it were held
    "synthesize_temporary_state": 6.6,
    # the four default routes on a state passed as a temporary: darwin's peak, E(k) and its stacked
    # gradient (6.0) and the slab scratch of two workers (1.58), once the state is freed: 7.58 measured
    "build_report": 8.0,
    "generators_field_picture": 2.0,
    "spectral_e_from_wavefunction": 5.0,
    "analyze": 7.0,
    # F passed as a temporary is freed once its spectra exist: 6.11 measured, and 9.07 while it was held
    "analyze_temporary_field": 6.6,
    "spin_nonlocal_real": 9.1,
    # one helicity at a time: its shared omega, w and D_a g (4.0), and on each of two
    # workers a relation reduced slab by slab, a 64^3 slab being half the grid, [Jx, Jy]
    # with its whole BA g: 8.86-9.05 measured
    "run_suite": 9.5,
    # e(k) filled whole (3.0) and, on each of two workers, a half-grid slab's conj(e), n, the mirror
    # buffer and the temporaries of one dyad entry: 12.70 measured, and 36.13 on whole stacks
    "identity_residuals": 13.3,
    # the file's F (3.0) is freed once B (1.5) is copied out, and B once its spectra
    # exist: 4.62 measured, and 9.12 if F and B were held through `vector_potential`
    "cmd_potential": 4.9,
}


@pytest.fixture(scope="module")
def stages64(grid64, basis64, tmp_path_factory):
    wf = smooth_state(grid64, basis64, seed=6, mix=(1.0, 0.4j), m=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rs = pn.synthesize(wf)
    files = tmp_path_factory.mktemp("files")
    field, potential = str(files / "field.rs"), str(files / "A.real")
    fileio.write_rs_field(field, rs)
    E, B = pn.electric_field(rs), pn.magnetic_field(rs)
    A = pn.vector_potential(B)
    Ek = pn.spectral_e_from_wavefunction(wf)
    k0 = 0.62 * np.pi
    sigma = 2.5 * grid64.dk[0]
    spec = pn.BesselSpec(k_perp0=0.6 * k0, k_z0=0.8 * k0, m=3, helicity=1, sigma_perp=sigma, sigma_z=sigma)
    e_i = np.empty(grid64.dims, dtype=complex)
    wf_lazy = smooth_state(grid64, pn.chart_basis(grid64), seed=6, mix=(1.0, 0.4j), m=1)
    return {
        "build_basis": lambda: pn.build_basis(grid64, (1.0, 0.0, 0.0)),
        "basis.e": lambda: basis64.e(1, out=e_i),
        "generators_photon_picture": lambda: pn.generators_photon_picture(wf),
        "generators_photon_picture_lazy_basis": lambda: pn.generators_photon_picture(wf_lazy),
        "darwin_split": lambda: pn.darwin_split(Ek),
        "vector_potential": lambda: pn.vector_potential(B),
        "vector_potential_temporary_B": lambda: pn.vector_potential(replace(B, values=B.values.copy())),
        "textbook_split": lambda: pn.textbook_split(E, A),
        "bessel_beam": lambda: pn.bessel_beam(grid64, basis64, spec),
        "gaussian_vortex": lambda: smooth_state(grid64, basis64, seed=6, mix=(1.0, 0.4j), m=1, photons=1.0),
        "synthesize": lambda: pn.synthesize(wf),
        "synthesize_temporary_state": lambda: pn.synthesize(smooth_state(grid64, basis64, seed=6, mix=(1.0, 0.4j), m=1)),
        "build_report": lambda: build_report(smooth_state(grid64, basis64, seed=6, mix=(1.0, 0.4j), m=1),
                                             ("photon", "field", "darwin", "textbook")),
        "generators_field_picture": lambda: pn.generators_field_picture(rs),
        "spectral_e_from_wavefunction": lambda: pn.spectral_e_from_wavefunction(wf),
        "analyze": lambda: pn.analyze(rs, basis64),
        "analyze_temporary_field": lambda: pn.analyze(replace(rs, F=rs.F.copy()), basis64),
        "spin_nonlocal_real": lambda: pn.spin_nonlocal_real(E, B),
        "run_suite": lambda: pn.run_suite(wf),
        "identity_residuals": lambda: pn.identity_residuals(pn.chart_basis(grid64)),
        "cmd_potential": lambda: main(["potential", field, "-o", potential]),
    }


@pytest.mark.parametrize("stage", sorted(BUDGETS))
def test_stage_working_set(stage, stages64, grid64):
    unit = np.dtype(complex).itemsize * grid64.npoints
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, peak = traced_peak(stages64[stage])
    assert peak / unit <= BUDGETS[stage], f"{stage}: {peak / unit:.2f} complex grid arrays"


def test_basis_retains_only_the_connection(grid64):
    """A basis keeps its connection (1.5 complex grid arrays) and derives e and the poles on request."""
    unit = np.dtype(complex).itemsize * grid64.npoints
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        basis = pn.build_basis(grid64, (1.0, 0.0, 0.0))
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert basis.alpha_base.nbytes == 1.5 * unit
    assert retained / unit <= 1.6, f"build_basis retained {retained / unit:.2f} complex grid arrays"


def test_chart_basis_retains_no_grid_array(grid64):
    """Until its connection is derived, a basis holds only its chart axis."""
    unit = np.dtype(complex).itemsize * grid64.npoints
    basis, peak = traced_peak(lambda: pn.chart_basis(grid64, (1.0, 0.0, 0.0)))
    assert peak <= 0.01 * unit, f"chart_basis allocated {peak / unit:.3f} complex grid arrays"
    assert basis.gauge_phase is None and basis.alpha_base is None


def test_grid_holds_no_3d_array():
    pn.make_grid(8)     # first use imports numpy's fft helpers; keep that out of the peak
    grid, peak = traced_peak(lambda: pn.make_grid(64))
    unit = np.dtype(complex).itemsize * grid.npoints
    assert peak < 0.01 * unit, f"make_grid(64) allocated {peak} bytes"


def test_run_suite_adds_less_than_an_array_per_worker(grid96, basis96, monkeypatch):
    """At 96^3 (six slabs) a worker holds a relation's slab scratch: THREADS=3 peaks less than 2 arrays above THREADS=1.

    Measured: 5.60 and 6.86 arrays; a relation formed on whole arrays adds
    about 3 arrays a worker (8.03 and 14.10).
    """
    unit = np.dtype(complex).itemsize * grid96.npoints
    wf = smooth_state(grid96, basis96, seed=6, mix=(1.0, 0.4j), m=1)
    peaks = {}
    for threads in ("1", "3"):
        monkeypatch.setenv("THREADS", threads)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, peaks[threads] = traced_peak(lambda: pn.run_suite(wf))
    assert (peaks["3"] - peaks["1"]) / unit < 2.0, {t: f"{p / unit:.2f}" for t, p in peaks.items()}
