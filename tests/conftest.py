import contextlib
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import photonam as pn
from photonam import photon_state
from photonam.fields_bridge import _divergence, _half_divergence, _ratio
from photonam.grids import LEVI_CIVITA, BoundaryDecayWarning, cross_component, _nhat, _readonly, _reflected, _WHOLE
from photonam.polarization import _chart_geometry


def rel(a, b):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    den = max(np.linalg.norm(b.ravel()), 1e-300)
    return float(np.linalg.norm((a - b).ravel()) / den)


def nhat(grid, j):
    """Component `j` of the unit vector k/|k| on the whole grid; the k=0 bin holds the placeholder z."""
    return _nhat(grid, j, _WHOLE)


def nhat_stack(grid):
    """The unit vectors k/|k| as one (3,) + dims array, from the per-component accessor."""
    return np.stack([nhat(grid, j) for j in range(3)])


def cross(a, b):
    """Cross product over the leading component axis; components may broadcast."""
    return np.stack([cross_component(a, b, j) for j in range(3)])


def reflect_conjugate(F):
    """``R[F] = conj(F(-k))`` of `F`, whole over its trailing three axes (Nyquist bins map to themselves)."""
    F = np.asarray(F)
    return _reflected(F, _WHOLE, np.empty_like(F))


def pole_mask(basis):
    """Boolean grid mask of the chart poles of `basis`, the excluded k=0 bin included."""
    kmag, cnorm, scratch = (np.empty(basis.grid.dims) for _ in range(3))
    return _chart_geometry(basis.grid, basis.chart_axis, _WHOLE, kmag, cnorm, scratch)[1]


def whole_identity_residuals(basis):
    """Oracle of `identity_residuals`: the seven residuals formed on whole (3,) + dims and (3, 3) + dims stacks.

    e(k) and n are stacked whole, the dyad e_i* e_j and its expectation are
    (3, 3) + dims arrays, and the pair mask of the reflection row reflects
    the pole mask itself: the check as it was before it ran in slabs.
    """
    grid = basis.grid
    poles = pole_mask(basis)
    ok = ~poles
    e = e_stack(basis)
    n = nhat_stack(grid)

    res = {}
    res["k_cross_e"] = np.abs(cross(n, e) + 1j * e)[:, ok].max()
    res["e_dot_e"] = np.abs(np.einsum("i...,i...->...", e, e))[ok].max()
    res["estar_dot_e"] = np.abs(np.einsum("i...,i...->...", np.conj(e), e) - 1.0)[ok].max()
    res["estar_cross_e"] = np.abs(cross(np.conj(e), e) - 1j * n)[:, ok].max()
    res["e_cross_e"] = np.abs(cross(e, e))[:, ok].max()

    dyad = np.einsum("i...,j...->ij...", np.conj(e), e)
    expect = 0.5 * (
        np.eye(3)[:, :, None, None, None]
        - np.einsum("i...,j...->ij...", n, n)
        + 1j * np.einsum("ijl,l...->ij...", LEVI_CIVITA, n)
    )
    res["dyadic"] = np.abs(dyad - expect)[:, :, ok].max()

    e_neg = np.conj(reflect_conjugate(e))
    ok_pair = ok & (reflect_conjugate(poles.astype(float)) == 0.0)       # no pole at -k either
    for ax, nn in enumerate(grid.dims):
        sl = [slice(None)] * 3
        sl[ax] = nn // 2
        ok_pair[tuple(sl)] = False
    res["reflection"] = np.abs(np.einsum("i...,i...->...", np.conj(e), e_neg))[ok_pair].max()
    return {k: float(v) for k, v in res.items()}


def e_stack(basis):
    """The polarization vectors e(k) as one (3,) + dims array, from the per-component accessor."""
    return np.stack([basis.e(i) for i in range(3)])


def wavefunction(grid, basis, gL, gR, time=0.0):
    """The state of copies of the raw amplitude arrays `gL` and `gR`: the tests' constructor.

    The package builds its states in place (`photon_state._adopted`); this
    copies, so a test may go on using its arrays.  The k=0 bin is zeroed, a
    basis on another grid or arrays of another shape are refused, and the
    decay of the state is not measured.
    """
    grid.require_same(basis.grid, "the amplitudes and their polarization basis")
    gL = np.array(gL, dtype=complex)
    gR = np.array(gR, dtype=complex)
    if gL.shape != grid.dims or gR.shape != grid.dims:
        raise ValueError("amplitude shape does not match grid")
    return photon_state._adopted(grid, basis, gL, gR, time=time)


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
    return wavefunction(grid, basis, gL, gR)


def scalar_product(wf1, wf2):
    """Oracle: the Lorentz-invariant product sum over dVk/(hbar omega) of g1* g2, whole-array.

    Two snapshots at different times pick up their relative evolution
    phase.  The factories sum the photon number per slab as they fill
    (`photon_state._photons_on`); this is their reference.
    """
    wf1.grid.require_same(wf2.grid, "the wavefunctions")
    integrand = np.conj(wf1.gL) * wf2.gL + np.conj(wf1.gR) * wf2.gR
    if wf1.time != wf2.time:
        integrand = integrand * np.exp(-1j * wf1.grid.omega() * (wf2.time - wf1.time))
    return complex(np.sum(wf1.grid.w_invariant() * integrand))


def norm(wf):
    return float(np.sqrt(max(scalar_product(wf, wf).real, 0.0)))


def photon_number(wf):
    """Oracle: the total photon number N = <g|g>; real and nonnegative."""
    return scalar_product(wf, wf).real


def materialized(wf):
    """Oracle: the state with its evolution phase e^{-i w t} baked into the amplitudes, and time 0."""
    if wf.time == 0.0:
        return wf
    phase = np.exp(-1j * wf.grid.omega() * wf.time)
    return replace(wf, gL=_readonly(wf.gL * phase), gR=_readonly(wf.gR * phase), time=0.0)


def basis_fold_spectrum(wf, t=0.0):
    """Oracle of the spectrum F(k) that `synthesize` transforms: e gL + R[e* gR] of the amplitudes evolved by `t`.

    The negative-frequency term e* gR is folded onto the grid by
    R[.](k) = conj(.(-k)), whole-array, one component of e(k) at a time:
    the synthesis through the basis, which `synthesize` replaced by its
    pass over E(k).  The two agree to rounding off the Nyquist planes;
    on them -k aliases onto k, and n(-k) != -n(k).
    """
    grid = wf.grid
    wf = materialized(pn.evolve(wf, t))
    F = np.empty((3,) + grid.dims, dtype=complex)
    for i in range(3):
        e_i = wf.basis.e(i)
        F[i] = e_i * wf.gL + reflect_conjugate(np.conjugate(e_i) * wf.gR)
    return F


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


def spectral_divergence(grid, spectra, half, regions):
    """The relative divergence `fields_bridge` sums from the three component `spectra`, region by region.

    `half` says they are half spectra (`real_forward_transform`), summed by
    `_half_divergence`; full spectra are summed by `_divergence`.
    `regions` are slab regions (three slices of the grid axes) that cover
    the grid, taken in order.
    """
    num2 = den2 = 0.0
    shares = _half_divergence if half else _divergence
    for region in regions:
        parts = shares(grid, spectra, region, np.empty((2,) + spectra[0][region].shape, dtype=complex))
        num2, den2 = num2 + parts[0], den2 + parts[1]
    return _ratio(num2, den2)


def row_slabs(n):
    """The regions of one k_x row each, in order, and the whole grid as one region."""
    whole = (slice(None),) * 3
    return [(slice(i, i + 1), slice(None), slice(None)) for i in range(n)], [whole]


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
    Js = hbar * np.array([np.sum(w * nhat(grid, j) * (absL2 - absR2)) for j in range(3)])
    L = max(size * d for size, d in zip(grid.dims, grid.spacing))
    return dict(
        N=float(np.sum(w * dens)), H=H,
        P=hbar * np.array([np.sum(w * k[j] * dens) for j in range(3)]),
        Js=Js, Jo=Jo.real, J=Jo.real + Js, K=K.real,
        imag_residual_Jo=np.linalg.norm(Jo.imag) / max(np.linalg.norm(Jo.real), np.linalg.norm(Js)),
        imag_residual_K=np.linalg.norm(K.imag) / (H * L),
    )


def two_helicity_residuals(wf):
    """Oracle: the residuals of the DEFAULT_SUITE relations and of [Dx, Dy] on `wf`, both helicities at once.

    AB psi, BA psi and the expected state are whole states made by
    `apply_generator`, the curvature's second derivatives come from the
    stacked `covariant_derivative`, and each norm is
    ``sqrt(sum w (|gL|^2 + |gR|^2))`` over both helicities together: the
    reduction `run_suite` made before it checked one helicity at a time.
    """
    from photonam import algebra_checks
    units, w = wf.grid.units, wf.grid.w_invariant()

    def norm(gL, gR):
        return float(np.sqrt(np.sum(w * (np.abs(gL) ** 2 + np.abs(gR) ** 2))))

    out = []
    for a, b in algebra_checks.DEFAULT_SUITE:
        A, B = algebra_checks.OperatorTag.parse(a), algebra_checks.OperatorTag.parse(b)
        found, sign = algebra_checks._expected(A, B, units), 1.0
        if found is None:
            found, sign = algebra_checks._expected(B, A, units), -1.0
        AB = pn.apply_generator(A, pn.apply_generator(B, wf))
        BA = pn.apply_generator(B, pn.apply_generator(A, wf))
        diff_L, diff_R = AB.gL - BA.gL, AB.gR - BA.gR
        scales = [norm(AB.gL, AB.gR), norm(BA.gL, BA.gR)]
        if found[1] is not None:
            tag, factor = found[1]
            g = pn.apply_generator(tag, wf)
            diff_L = diff_L - sign * (factor * g.gL)
            diff_R = diff_R - sign * (factor * g.gR)
            scales.append(norm(factor * g.gL, factor * g.gR))
        out.append(norm(diff_L, diff_R) / max(max(scales), 1e-300))

    grid = wf.grid
    D = pn.covariant_derivative(wf)
    DxDy, DyDx = pn.covariant_derivative(D[1])[0], pn.covariant_derivative(D[0])[1]
    safe = grid.kmag() ** 2
    safe[grid.excluded_index] = 1.0
    curv = nhat(grid, 2) / safe
    res = {chi: DxDy.components[chi] - DyDx.components[chi] - 1j * chi * curv * wf.components[chi]
           for chi in photon_state.HELICITIES}
    out.append(norm(res[+1], res[-1]) / max(norm(curv * wf.gL, curv * wf.gR), 1e-300))
    return out


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


def smooth_state(grid, basis, seed=0, mix=(1.0, 0.6), m=0, photons=None):
    """Stock smooth decaying state: off-axis, off-origin, sub-Nyquist; normalized to `photons` if given."""
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
            helicity=mix, r_offset=r0, photons=photons,
        )


@pytest.fixture()
def state48(grid48, basis48):
    return smooth_state(grid48, basis48, seed=3)
