import warnings

import numpy as np
import pytest

import photonam as pn
from photonam.fields_bridge import RealVectorField, relative_divergence
from photonam.grids import _readonly

from conftest import e_stack, rel, smooth_state


def test_synthesize_zero(grid16, basis16):
    z = np.zeros(grid16.dims, dtype=complex)
    wf = pn.wavefunction(grid16, basis16, z, z, warn=False)
    rs = pn.synthesize(wf)
    assert np.all(rs.F == 0)


def test_single_bin_plane_wave_oracle(grid16, basis16):
    """One left-handed bin must synthesize the matching circular plane wave."""
    g, b = grid16, basis16
    idx = (2, 3, 4)
    amp = 0.7 - 0.2j
    gL = np.zeros(g.dims, dtype=complex)
    gL[idx] = amp
    wf = pn.wavefunction(g, b, gL, np.zeros(g.dims), warn=False)
    rs = pn.synthesize(wf, t=0.37)

    kvec = np.stack(g.kvec)[:, idx[0], idx[1], idx[2]]
    om = g.omega()[idx]
    e = e_stack(b)[:, idx[0], idx[1], idx[2]]
    x, y, z = np.meshgrid(*g.x_axes, indexing="ij")
    phase = np.exp(1j * (kvec[0] * x + kvec[1] * y + kvec[2] * z - om * 0.37))
    expected = (g.dVk / (2 * np.pi) ** 1.5) * amp * e[:, None, None, None] * phase
    assert rel(rs.F, expected) < 1e-12
    assert relative_divergence(g, rs.F) < 1e-12


def test_synthesized_fields_are_divergence_free(state48):
    rs = pn.synthesize(state48)
    assert relative_divergence(state48.grid, rs.F) < 1e-10


def test_analyze_roundtrip(state48):
    rs = pn.synthesize(state48)
    back = pn.analyze(pn.electric_field(rs), pn.magnetic_field(rs), state48.basis)
    assert rel(back.gL, state48.gL) < 1e-10
    assert rel(back.gR, state48.gR) < 1e-10


def test_analyze_single_bin_helicity(grid16, basis16):
    g, b = grid16, basis16
    idx = (3, 2, 5)
    gR = np.zeros(g.dims, dtype=complex)
    gR[idx] = 1.1 + 0.3j
    wf = pn.wavefunction(g, b, np.zeros(g.dims), gR, warn=False)
    rs = pn.synthesize(wf)
    back = pn.analyze(pn.electric_field(rs), pn.magnetic_field(rs), b)
    assert rel(back.gR, wf.gR) < 1e-12
    assert np.abs(back.gL).max() < 1e-12 * np.abs(gR[idx])


def test_analyze_rejects_nonradiative_field(grid16, basis16):
    g = grid16
    x, y, z = np.meshgrid(*g.x_axes, indexing="ij")
    r2 = x ** 2 + y ** 2 + z ** 2 + 1.0
    coulombish = np.stack([x, y, z]) * np.exp(-r2 / 18.0)   # strongly longitudinal
    E = RealVectorField(values=_readonly(coulombish), role="E", grid=g)
    B = RealVectorField(values=_readonly(np.zeros((3,) + g.dims)), role="B", grid=g)
    with pytest.raises(ValueError, match="non-radiative"):
        pn.analyze(E, B, basis16)


def test_synthesize_evolve_bookkeeping(state48):
    a = pn.synthesize(pn.evolve(state48, 0.9), 0.0)
    b = pn.synthesize(state48, 0.9)
    assert a.time == b.time
    assert rel(a.F, b.F) < 1e-14


def test_maxwell_residual_second_order(state48):
    rs0 = pn.synthesize(state48, 0.0)
    r1 = pn.maxwell_residual(rs0, pn.synthesize(state48, 0.08))
    r2 = pn.maxwell_residual(rs0, pn.synthesize(state48, 0.04))
    assert 3.7 < r1 / r2 < 4.3


def test_maxwell_residual_zero_and_negative_control(grid16, basis16, state48):
    z = np.zeros(grid16.dims, dtype=complex)
    zero = pn.wavefunction(grid16, basis16, z, z, warn=False)
    a = pn.synthesize(zero, 0.0)
    b = pn.synthesize(zero, 0.1)
    assert pn.maxwell_residual(a, b) == 0.0

    rng = np.random.default_rng(0)
    g = state48.grid
    F1 = pn.synthesize(state48, 0.0)
    junk = pn.RSField(F=rng.standard_normal((3,) + g.dims)
                      + 1j * rng.standard_normal((3,) + g.dims), grid=g, time=0.05)
    assert pn.maxwell_residual(F1, junk) > 0.5


def test_maxwell_residual_requires_time_order(state48):
    rs0 = pn.synthesize(state48, 0.0)
    rs1 = pn.synthesize(state48, 0.1)
    with pytest.raises(ValueError, match="time ordered"):
        pn.maxwell_residual(rs1, rs0)


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
    assert relative_divergence(g, A.values) < 1e-10


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


def test_potential_and_textbook_split_transform_each_component_once(state48, monkeypatch):
    from photonam import fields_bridge, grids, observables
    rs = pn.synthesize(state48)
    E, B = pn.electric_field(rs), pn.magnetic_field(rs)
    calls = []

    def counted(grid, f):
        calls.append(np.shape(f))
        return grids.forward_transform(grid, f)

    monkeypatch.setattr(fields_bridge, "forward_transform", counted)
    monkeypatch.setattr(observables, "forward_transform", counted)
    A = pn.vector_potential(B)
    assert len(calls) == 3          # B, whose spectra also give the divergence check
    calls.clear()
    pn.textbook_split(E, A)
    assert len(calls) == 3          # A, whose spectra also give the divergence check
