import contextlib
import tracemalloc
import warnings

import numpy as np
import pytest

import photonam as pn
from photonam.grids import BoundaryDecayWarning, cross_component


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


def project_spectral_e(Ek, basis):
    """The wavefunction ``gL = sqrt(2 eps0) e*.E(k)``, ``gR = sqrt(2 eps0) e.E(k)`` of the `SpectralEField` Ek.

    Projected whole, one component of e(k) at a time, with the operations
    and order `bessel_beam` takes in each of its k_x slabs: the oracle of
    the beam, and of any re-expression of a state on another basis.
    """
    grid = basis.grid
    gL = np.zeros(grid.dims, dtype=complex)
    gR = np.zeros(grid.dims, dtype=complex)
    for i, E_i in enumerate(Ek.values):
        e_i = basis.e(i)
        gL += np.conjugate(e_i) * E_i
        e_i *= E_i
        gR += e_i
    s = np.sqrt(2.0 * grid.units.eps0)
    gL *= s
    gR *= s
    return pn.wavefunction(grid, basis, gL, gR)


def divergence_ratio(grid, V):
    """Reference ``|div V| / | |k| V |`` of a real or complex (3,) + dims field, summed over the full k grid.

    Plain ``np.fft.fftn`` of each component; the transform phase and scale
    multiply every component alike and cancel in the ratio.
    """
    Vk = np.fft.fftn(V, axes=(1, 2, 3))
    k = np.ix_(*grid.k_axes)
    div = k[0] * Vk[0] + k[1] * Vk[1] + k[2] * Vk[2]
    k2 = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
    return float(np.sqrt(np.sum(np.abs(div) ** 2) / np.sum(k2 * np.abs(Vk) ** 2)))


def maxwell_residual(rs1, rs2):
    """Relative residual of dF/dt + i c curl F across two snapshots: the oracle of the time-evolution tests.

    Symmetric differencing about the midpoint; second order in the snapshot
    separation for exact solutions.
    """
    grid = rs1.grid
    grid.require_same(rs2.grid, "the snapshots")
    dt = rs2.time - rs1.time
    if dt <= 0:
        raise ValueError("snapshots must be time ordered")
    mid = 0.5 * (rs1.F + rs2.F)
    dF = (rs2.F - rs1.F) / dt
    resid = dF + 1j * grid.units.c * (pn.spectral_curl(grid, mid.real) + 1j * pn.spectral_curl(grid, mid.imag))
    num = np.linalg.norm(resid)
    den = np.linalg.norm(mid)
    return float(num / den) if den > 0 else float(num)


def fd_photon_picture(wf):
    """Oracle of finite-difference (FD) order: the photon picture from the FD `covariant_derivative`.

    ``Jo = hbar sum_chi sum w g* i (D g x k)`` and ``K = hbar sum_chi sum w
    g* i omega D g``, one component at a time from the stacked derivative:
    the photon picture as it was before it took its Jo and K from E(k) with
    an exact derivative, kept as the FD reference that second-order tests
    converge against.  Returns a dict with N, H, P, Js, Jo, J, K and the
    imaginary residuals.
    """
    grid = wf.grid
    hbar = grid.units.hbar
    w, k, omega = grid.w_invariant(), grid.kvec, grid.omega()
    absL2, absR2 = np.abs(wf.gL) ** 2, np.abs(wf.gR) ** 2
    dens = absL2 + absR2
    D = pn.covariant_derivative(wf)
    Jo, K = np.zeros(3, dtype=complex), np.zeros(3, dtype=complex)
    for chi, g in wf.components.items():
        Dg = [D[j].components[chi] for j in range(3)]
        weight = 1j * w * np.conj(g)
        for j in range(3):
            Jo[j] += np.sum(weight * cross_component(Dg, k, j))
            K[j] += np.sum(weight * omega * Dg[j])
    Jo, K = hbar * Jo, hbar * K
    H = float(np.sum(grid.dVk * dens))
    Js = hbar * np.array([np.sum(w * grid.nhat(j) * (absL2 - absR2)) for j in range(3)])
    L = max(size * d for size, d in zip(grid.dims, grid.spacing))
    return dict(
        N=float(np.sum(w * dens)), H=H,
        P=hbar * np.array([np.sum(w * k[j] * dens) for j in range(3)]),
        Js=Js, Jo=Jo.real, J=Jo.real + Js, K=K.real,
        imag_residual_Jo=np.linalg.norm(Jo.imag) / max(np.linalg.norm(Jo.real), np.linalg.norm(Js)),
        imag_residual_K=np.linalg.norm(K.imag) / (H * L),
    )


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
