import contextlib
import tracemalloc
import warnings

import numpy as np
import pytest

import photonam as pn
from photonam.grids import BoundaryDecayWarning


def rel(a, b):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    den = max(np.linalg.norm(b.ravel()), 1e-300)
    return float(np.linalg.norm((a - b).ravel()) / den)


def nhat_stack(grid):
    """The unit vectors k/|k| as one (3,) + dims array, from the per-component accessor."""
    return np.stack([grid.nhat(j) for j in range(3)])


def e_stack(basis):
    """The polarization vectors e(k) as one (3,) + dims array, from the per-component accessor."""
    return np.stack([basis.e(i) for i in range(3)])


@contextlib.contextmanager
def decay_ignored():
    """Silence `BoundaryDecayWarning`, for a route run on a state that does not decay at the grid edge."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryDecayWarning)
        yield


@pytest.fixture()
def gradient_calls(monkeypatch):
    """The list of calls of `spectral_gradient_k` made through any module that imports it."""
    from photonam import grids, observables, photon_state, polarization
    calls, gradient = [], grids.spectral_gradient_k

    def counted(*args, **kwargs):
        calls.append(args)
        return gradient(*args, **kwargs)

    for module in (grids, polarization, photon_state, observables, pn):
        monkeypatch.setattr(module, "spectral_gradient_k", counted)
    return calls


def traced_peak(fn):
    """Run ``fn()``; return its result and the tracemalloc peak, in bytes, above the size at the start.

    numpy reports its array buffers to tracemalloc, so the peak is the
    working set of the call, deterministic unlike RSS.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


@pytest.fixture(scope="session")
def grid16():
    return pn.make_grid(16)


@pytest.fixture(scope="session")
def grid32():
    return pn.make_grid(32)


@pytest.fixture(scope="session")
def grid48():
    return pn.make_grid(48)


@pytest.fixture(scope="session")
def grid64():
    return pn.make_grid(64)


@pytest.fixture(scope="session")
def grid96():
    return pn.make_grid(96)


@pytest.fixture(scope="session")
def basis16(grid16):
    return pn.build_basis(grid16)


@pytest.fixture(scope="session")
def basis32(grid32):
    return pn.build_basis(grid32)


@pytest.fixture(scope="session")
def basis48(grid48):
    return pn.build_basis(grid48)


@pytest.fixture(scope="session")
def basis64(grid64):
    return pn.build_basis(grid64)


@pytest.fixture(scope="session")
def basis96(grid96):
    return pn.build_basis(grid96)


def smooth_state(grid, basis, seed=0, mix=(1.0, 0.6), m=0):
    """Stock smooth decaying state: off-axis, off-origin, sub-Nyquist."""
    rng = np.random.default_rng(seed)
    dk = grid.dk[0]
    n = grid.dims[0]
    # diagonal placement keeps every margin at >= 6 widths for n >= 48
    kc = (n / 4.0) * dk
    sig = max(2.0 * dk, n / 29.0 * dk)
    r0 = rng.uniform(-1.0, 1.0, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryDecayWarning)
        return pn.gaussian_vortex(
            grid, basis, center=(kc, kc, kc), widths=sig, m=m,
            helicity=mix, r_offset=r0,
        )


@pytest.fixture()
def state48(grid48, basis48):
    return smooth_state(grid48, basis48, seed=3)
