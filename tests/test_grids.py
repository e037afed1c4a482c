import warnings

import numpy as np
import pytest

import photonam as pn
from photonam.grids import (
    BoundaryDecayWarning,
    boundary_margin,
    check_boundary_decay,
    real_forward_transform,
    real_inverse_transform,
    _over_slabs,
    _real_derivative_axis,
    _reflected,
    _slabs,
)

from conftest import nhat, nhat_stack, reflect_conjugate, rel


def test_units_defaults():
    u = pn.UnitsConfig()
    assert u.c == u.hbar == u.eps0 == 1.0


@pytest.mark.parametrize("bad", [dict(c=0.0), dict(hbar=-1.0), dict(eps0=0.0),
                                 dict(c=np.nan), dict(hbar=np.inf), dict(eps0=np.nan)])
def test_units_must_be_positive(bad):
    with pytest.raises(ValueError):
        pn.UnitsConfig(**bad)


def test_grid_spacing_and_weights():
    g = pn.make_grid((8, 8, 8))
    assert g.dk == pytest.approx((np.pi / 4,) * 3)
    assert g.dVk == pytest.approx((np.pi / 4) ** 3)
    assert g.dV == 1.0
    # exactly one excluded point, at the zero bin
    assert g.excluded_index == (0, 0, 0)
    w = g.w_invariant()
    assert w[0, 0, 0] == 0.0
    assert np.count_nonzero(w == 0.0) == 1
    assert np.all(np.isfinite(w))


def test_grid_rejects_odd_and_tiny_dims():
    with pytest.raises(ValueError, match="odd dimension"):
        pn.make_grid((7, 8, 8))
    with pytest.raises(ValueError, match="too small"):
        pn.make_grid((8, 8, 6))
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="spacing"):
            pn.make_grid((8, 8, 8), (1.0, bad, 1.0))


def test_kfields_unit_vectors(grid16):
    n = nhat_stack(grid16)
    norms = np.sqrt(np.einsum("i...,i...->...", n, n))
    assert np.allclose(norms, 1.0, atol=1e-14)
    assert np.all(grid16.omega()[grid16.w_invariant() > 0] > 0)


def test_round_trip_and_parseval(grid16):
    rng = np.random.default_rng(1)
    f = rng.standard_normal(grid16.dims) + 1j * rng.standard_normal(grid16.dims)
    F = pn.forward_transform(grid16, f)
    back = pn.inverse_transform(grid16, F)
    assert rel(back, f) < 1e-12
    a = np.sum(np.abs(f) ** 2) * grid16.dV
    b = np.sum(np.abs(F) ** 2) * grid16.dVk
    assert abs(a - b) / a < 1e-12


@pytest.mark.parametrize("ax", [0, 1, 2])
def test_one_axis_derivative_equals_the_3d_derivative(ax, monkeypatch):
    """The 1-d pair along one axis, on the whole grid or in one-plane slabs of another, equals the 3-d pair's i k derivative."""
    monkeypatch.setattr(pn.grids, "_MIN_SLAB_POINTS", 1)
    grid = pn.make_grid((12, 10, 16), spacing=(1.0, 0.8, 1.3))
    f = np.random.default_rng(3).standard_normal(grid.dims)
    spectrum = real_forward_transform(grid, f)
    spectrum *= 1j * grid.derivative_kvec[ax]
    reference = real_inverse_transform(grid, spectrum)
    whole = _real_derivative_axis(grid, f, ax, (slice(None),) * 3)
    slabbed = np.empty(grid.dims)

    def slab(region):
        slabbed[region] = _real_derivative_axis(grid, f, ax, region)

    _over_slabs(grid, (ax + 1) % 3, slab)
    scale = np.abs(reference).max()
    assert np.abs(whole - reference).max() <= 1e-14 * scale
    assert np.abs(slabbed - reference).max() <= 1e-14 * scale


def test_transform_of_zero_is_zero(grid16):
    z = np.zeros(grid16.dims, dtype=complex)
    assert np.all(pn.forward_transform(grid16, z) == 0)
    assert np.all(pn.inverse_transform(grid16, z) == 0)


def test_plane_wave_lands_in_single_bin(grid16):
    g = grid16
    idx = (3, 14, 5)
    kx = g.k_axes[0][idx[0]]
    ky = g.k_axes[1][idx[1]]
    kz = g.k_axes[2][idx[2]]
    x, y, z = np.meshgrid(*g.x_axes, indexing="ij")
    F = pn.forward_transform(g, np.exp(1j * (kx * x + ky * y + kz * z)))
    expected = (2 * np.pi) ** 1.5 / g.dVk
    assert F[idx] == pytest.approx(expected, rel=1e-12)
    off = F.copy()
    off[idx] = 0.0
    assert np.abs(off).max() < 1e-12 * expected


def test_transform_shape_mismatch(grid16):
    with pytest.raises(ValueError, match="does not match"):
        pn.forward_transform(grid16, np.zeros((8, 8, 8)))


def test_gradient_constant_and_linear(grid16):
    g = grid16
    const = np.full(g.dims, 2.5 + 0j)
    grad = pn.spectral_gradient_k(g, const)
    assert np.abs(grad).max() < 1e-13
    a = np.array([0.3, -1.2, 0.7])
    lin = a[0] * g.kvec[0] + a[1] * g.kvec[1] + a[2] * g.kvec[2]
    grad = pn.spectral_gradient_k(g, lin.astype(complex))
    # centered and one-sided second-order stencils are exact on affine data
    for j in range(3):
        assert np.abs(grad[j] - a[j]).max() < 1e-12


def _shifted_gradient(grid, F):
    """Reference stencil: monotone order, np.gradient(edge_order=2), back to FFT order."""
    out = np.empty((3,) + F.shape, dtype=F.dtype if np.iscomplexobj(F) else float)
    for ax in range(3):
        mono = np.fft.fftshift(F, axes=ax)
        out[ax] = np.fft.ifftshift(np.gradient(mono, grid.dk[ax], axis=ax, edge_order=2), axes=ax)
    return out


@pytest.mark.parametrize("dims", [(8, 10, 12), (12, 8, 16)])
@pytest.mark.parametrize("is_complex", [False, True])
def test_fft_order_stencil_matches_shifted_gradient(dims, is_complex):
    g = pn.make_grid(dims, (0.7, 1.3, 1.0))
    rng = np.random.default_rng(sum(dims))
    F = rng.standard_normal(dims)
    if is_complex:
        F = F + 1j * rng.standard_normal(dims)
    got = pn.spectral_gradient_k(g, F)
    ref = _shifted_gradient(g, F)
    assert got.dtype == ref.dtype
    for ax in range(3):
        assert np.abs(got[ax] - ref[ax]).max() <= 1e-15 * np.abs(F).max() / g.dk[ax]

    # affine data: the one-sided formulas at both monotone ends are exact too
    a = np.array([0.3, -1.2, 0.7])
    lin = 0.4 + a[0] * g.kvec[0] + a[1] * g.kvec[1] + a[2] * g.kvec[2]
    if is_complex:
        lin = lin * (1.0 - 2.0j)
    grad = pn.spectral_gradient_k(g, lin)
    scale = 1.0 - 2.0j if is_complex else 1.0
    for ax, n in enumerate(dims):
        for end in (n // 2, n // 2 - 1):
            plane = np.take(grad[ax], end, axis=ax)
            assert np.abs(plane - a[ax] * scale).max() < 1e-12


def test_gradient_gaussian_second_order():
    errs = []
    for n in (32, 64):
        g = pn.make_grid(n)
        kc, sig = 1.1, 0.45
        kx, ky, kz = g.kvec
        r2 = (kx - kc) ** 2 + (ky - kc) ** 2 + (kz - kc) ** 2
        f = np.exp(-r2 / (2 * sig ** 2))
        grad = pn.spectral_gradient_k(g, f)
        exact = -(np.stack([kx - kc, ky - kc, kz - kc]) / sig ** 2) * f
        errs.append(np.abs(grad - exact).max())
    assert errs[0] / errs[1] > 3.0


def test_gradient_boundary_modes(grid16):
    """The stencil checks nothing; `check_boundary_decay` measures against one shared peak, in k or in r."""
    g = grid16
    mask = _stored_metadata(g)["mask_k"]
    bad = np.ones(g.dims, dtype=complex)  # no decay at all
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pn.spectral_gradient_k(g, bad)
    with pytest.warns(BoundaryDecayWarning, match="does not decay at the momentum-grid boundary") as record:
        assert check_boundary_decay(bad, "array", "k") == 1.0
    assert len(record) == 1
    assert boundary_margin(bad, "k") == 1.0
    with pytest.warns(BoundaryDecayWarning, match="does not decay at the real-space boundary"):
        assert check_boundary_decay(bad, "array", "r") == 1.0
    with pytest.raises(ValueError, match="space"):
        boundary_margin(bad, "x")

    # rounding noise beside a decaying array: no failure against the joint peak
    decaying = np.where(mask, 0.0, 1.0)
    noise = np.full(g.dims, 1e-15)
    assert boundary_margin(noise, "k") == 1.0
    assert boundary_margin((decaying, noise), "k") == boundary_margin(np.stack([decaying, noise]), "k") == 1e-15
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_boundary_decay((decaying, noise), "pair", "k") == 1e-15


@pytest.mark.parametrize("dims", [(8, 10, 12), (16, 16, 16)])
@pytest.mark.parametrize("space", ["k", "r"])
def test_edge_plane_margin_equals_the_masked_max(dims, space):
    """The margin read off the edge planes is the max over the shell mask of `_stored_metadata`, bit for bit.

    The arrays decay from the centre of their space (k = 0 in FFT order, or
    r = 0), and a spike on each edge plane in turn, off the edges of the
    other two axes, sets the margin: reading any other planes changes it.
    The three components differ in scale, so the margin takes their joint
    peak, as a tuple of arrays and as one (3,) + dims stack.
    """
    g = pn.make_grid(dims)
    mask = _stored_metadata(g)["mask_k" if space == "k" else "mask_r"]
    axes, width, centre = ((g.k_axes, 1.0, [0, 0, 0]) if space == "k"
                           else (g.x_axes, 1.5, [n // 2 for n in dims]))
    r2 = sum(np.reshape(a, [-1 if ax == n else 1 for n in range(3)]) ** 2 for ax, a in enumerate(axes))
    rng = np.random.default_rng(12)
    parts = tuple(scale * np.exp(-r2 / (2 * width ** 2)) * rng.uniform(0.9, 1.0, dims)
                  * np.exp(2j * np.pi * rng.uniform(size=dims)) for scale in (1.0, 0.5, 2.0))

    def check(arrays):
        want = max(np.abs(a)[mask].max() for a in arrays) / max(np.abs(a).max() for a in arrays)
        assert boundary_margin(arrays, space) == want
        assert boundary_margin(np.stack(arrays), space) == want
        return want

    decayed = check(parts)
    assert 0.0 < decayed < 0.5
    for ax in range(3):
        planes = np.nonzero(mask[tuple(slice(None) if a == ax else c for a, c in enumerate(centre))])[0]
        assert len(planes) == 4
        for plane in planes:
            spiked = tuple(a.copy() for a in parts)
            at = list(centre)
            at[ax] = plane
            spiked[1][tuple(at)] = 1.5
            assert check(spiked) > decayed


def test_reflect_conjugate_is_conj_at_negated_k(grid16):
    g = grid16
    rng = np.random.default_rng(2)
    f = rng.standard_normal(g.dims) + 1j * rng.standard_normal(g.dims)
    out = reflect_conjugate(f)
    n = g.dims[0]
    for idx in [(0, 0, 0), (1, 2, 3), (5, 0, 9), (15, 15, 15)]:
        neg = tuple((-i) % n for i in idx)
        assert out[idx] == np.conj(f[neg])


@pytest.mark.parametrize("lead, dims", [((), (8, 10, 12)), ((), (16, 12, 10)), ((3,), (16, 12, 10))])
def test_mirrored_rows_are_the_rolled_flip_bit_for_bit(lead, dims):
    """`_reflected` on any slab region of any axis equals conj of the flipped array rolled by one, bit for bit.

    The regions are each partition `_slabs` makes of the axis: whole, in
    three uneven slabs, and in slabs of one row each, so row 0 and the
    Nyquist row n/2 are read alone.  `reflect_conjugate`, the whole grid
    as one region, equals the same oracle.
    """
    grid = pn.make_grid(dims)
    rng = np.random.default_rng(12)
    F = rng.standard_normal(lead + dims) + 1j * rng.standard_normal(lead + dims)
    axes = (-3, -2, -1)
    oracle = np.conjugate(np.roll(np.flip(F, axis=axes), (1, 1, 1), axis=axes))
    assert np.array_equal(reflect_conjugate(F), oracle)
    for ax, n in enumerate(dims):
        partitions = [_slabs(n, points) for points in (grid.npoints, 3 * 2 ** 17, 2 ** 62)]
        assert [len(p) for p in partitions] == [1, 3, n]
        for partition in partitions:
            for s in partition:
                region = tuple(s if a == ax else slice(None) for a in range(3))
                index = (Ellipsis,) + region
                out = np.full(oracle[index].shape, np.nan + 0j)
                assert _reflected(F, region, out) is out
                assert np.array_equal(out, oracle[index]), (ax, s)


def _stored_metadata(g):
    """The 3-d metadata as make_grid used to store it, built the same way here as an oracle."""
    kvec = np.empty((3,) + g.dims)
    for ax in range(3):
        sl = [None, None, None]
        sl[ax] = slice(None)
        kvec[ax] = np.broadcast_to(g.k_axes[ax][tuple(sl)], g.dims)
    kmag = np.sqrt(kvec[0] ** 2 + kvec[1] ** 2 + kvec[2] ** 2)
    nhat = kvec / np.where(kmag == 0.0, 1.0, kmag)
    nhat[:, 0, 0, 0] = (0.0, 0.0, 1.0)
    omega = g.units.c * kmag
    w_inv = np.zeros(g.dims)
    nz = kmag > 0
    w_inv[nz] = g.dVk / (g.units.hbar * omega[nz])
    masks = []
    for fft_order in (True, False):
        mask = np.zeros(g.dims, dtype=bool)
        for ax, n in enumerate(g.dims):
            pos = (np.arange(n) + n // 2) % n if fft_order else np.arange(n)
            sl = [None, None, None]
            sl[ax] = slice(None)
            mask |= ((pos < 2) | (pos >= n - 2))[tuple(sl)]
        masks.append(mask)
    phase = np.ones(g.dims)
    for ax, n in enumerate(g.dims):
        sl = [None, None, None]
        sl[ax] = slice(None)
        phase = phase * ((-1.0) ** np.arange(n))[tuple(sl)]
    return dict(kvec=kvec, kmag=kmag, nhat=nhat, omega=omega, w_invariant=w_inv,
                mask_k=masks[0], mask_r=masks[1], phase=phase)


@pytest.mark.parametrize("dims", [(8, 10, 12), (16, 16, 16)])
def test_derived_metadata_equals_stored_arrays(dims):
    g = pn.make_grid(dims, (1.0, 0.7, 1.3), pn.UnitsConfig(c=2.0, hbar=0.5))
    ref = _stored_metadata(g)
    for j in range(3):
        assert np.array_equal(g.kvec[j], ref["kvec"][j])
        assert g.kvec[j].strides.count(0) == 2 and not g.kvec[j].flags.writeable
        assert np.array_equal(nhat(g, j), ref["nhat"][j])
    assert nhat(g, 2)[0, 0, 0] == 1.0 and nhat(g, 0)[0, 0, 0] == nhat(g, 1)[0, 0, 0] == 0.0
    assert np.array_equal(g.kmag(), ref["kmag"])
    assert np.array_equal(g.omega(), ref["omega"])
    assert np.array_equal(g.w_invariant(), ref["w_invariant"])
    assert np.array_equal(np.multiply(*g.fft_phase()), ref["phase"])
    # the transforms apply that phase and their prefactors bit for bit as the stored form did
    rng = np.random.default_rng(4)
    f = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    fwd = (g.dV / (2 * np.pi) ** 1.5 * ref["phase"]) * np.fft.fftn(f)
    inv = (g.dVk * g.npoints / (2 * np.pi) ** 1.5) * np.fft.ifftn(ref["phase"] * f)
    assert np.array_equal(pn.forward_transform(g, f), fwd)
    assert np.array_equal(pn.forward_transform(g, f.real), (g.dV / (2 * np.pi) ** 1.5 * ref["phase"]) * np.fft.fftn(f.real))
    assert np.array_equal(pn.inverse_transform(g, f), inv)


def test_grid_beyond_physical_memory_is_refused(monkeypatch):
    from photonam import grids
    unit = 16 * 64 ** 3
    monkeypatch.setattr(grids, "physical_memory", lambda: grids.WORKING_SET_ARRAYS * unit - 1)
    with pytest.raises(ValueError, match="physical memory"):
        pn.make_grid(64)
    pn.make_grid((64, 64, 62))      # just under the estimate


def test_grid_is_built_where_memory_is_unknown(monkeypatch):
    """Without `os.sysconf` the memory refusal is skipped, not an error."""
    from photonam import grids
    monkeypatch.delattr(grids.os, "sysconf")
    assert grids.physical_memory() is None
    assert pn.make_grid(16).dims == (16, 16, 16)
