import json
import os
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import photonam as pn
from photonam import fileio, polarization
from photonam.cli import ROUTES, build_report, main

from conftest import decay_ignored, materialized, rel, smooth_state, traced_peak, wavefunction


# ---------------------------------------------------------------------------
# field file container

def test_wavefunction_file_roundtrip(tmp_path, grid32, basis32):
    wf = smooth_state(grid32, basis32, seed=1, mix=(0.9, 0.4j))
    wf = pn.evolve(wf, 0.35)
    path = tmp_path / "state.pam"
    fileio.write_wavefunction(path, wf, provenance={"note": "test"})
    back, manifest = fileio.read(path)
    assert manifest["kind"] == "wavefunction"
    assert manifest["time"] == 0.35
    assert manifest["provenance"] == {"note": "test"}
    assert np.array_equal(back.gL, wf.gL)
    assert np.array_equal(back.gR, wf.gR)
    assert back.time == wf.time


def test_reading_a_file_allocates_its_payload_once(tmp_path, grid32, basis32):
    """The payload is read straight into the arrays the objects hold, read-only, with no copy of the file's bytes."""
    wf = smooth_state(grid32, basis32, seed=1)
    rs = pn.synthesize(wf)
    writes = {"wavefunction": lambda path: fileio.write_wavefunction(path, wf),
              "rs_field": lambda path: fileio.write_rs_field(path, rs),
              "real_field": lambda path: fileio.write_real_field(path, pn.electric_field(rs))}
    for kind, write in writes.items():
        path = tmp_path / f"{kind}.pam"
        write(path)
        payload = path.stat().st_size
        (obj, manifest), peak = traced_peak(lambda: fileio.read(path))
        assert manifest["kind"] == kind
        assert payload < peak < 1.2 * payload, f"{kind}: {peak} bytes allocated for a {payload}-byte file"
        arrays = (obj.gL, obj.gR) if kind == "wavefunction" else (obj.F if kind == "rs_field" else obj.values,)
        assert not any(a.flags.writeable for a in arrays)


def test_a_re_gauged_state_reads_back_as_the_same_physical_state(tmp_path):
    grid = pn.make_grid(24)
    dk = grid.dk[0]
    with decay_ignored():
        wf = pn.gaussian_vortex(grid, pn.chart_basis(grid), center=(4 * dk,) * 3, widths=2.0 * dk, m=1)
    kx, ky = np.meshgrid(grid.k_axes[0], grid.k_axes[1], indexing="ij")
    wf = pn.gauge_transform(wf, np.broadcast_to((0.7 * kx * ky)[..., None], grid.dims))
    path = tmp_path / "regauged.pam"
    fileio.write_wavefunction(path, wf)
    back, _ = fileio.read(path)
    assert back.basis.gauge_phase is None
    Ek, Ek_back = pn.spectral_e_from_wavefunction(wf), pn.spectral_e_from_wavefunction(back)
    assert rel(Ek_back.values, Ek.values) < 1e-14
    with decay_ignored():
        Jo, Jo_back = pn.generators_photon_picture(wf).Jo, pn.generators_photon_picture(back).Jo
    assert np.abs(Jo_back - Jo).max() <= 1e-12 * np.abs(Jo).max()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(("wavefunction", "regauged", "rs_field", "E", "B", "A")),
       st.tuples(*[st.sampled_from((8, 10, 12, 14, 16))] * 3),
       st.floats(allow_nan=False, allow_infinity=False),
       st.dictionaries(st.text(), _JSON, max_size=4),
       st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3),
       st.integers(0, 2 ** 32 - 1))
def test_write_read_write_is_byte_identical(tmp_path, kind, dims, time, provenance, axis, seed):
    grid = pn.make_grid(dims)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((3,) + dims) + 1j * rng.standard_normal((3,) + dims)
    if kind in ("wavefunction", "regauged"):
        basis = pn.chart_basis(grid, np.asarray(axis) / np.linalg.norm(axis))
        obj = wavefunction(grid, basis, data[0], data[1], time=time)
        if kind == "regauged":
            obj = pn.gauge_transform(obj, rng.uniform(-np.pi, np.pi, dims))
        write = fileio.write_wavefunction
    elif kind == "rs_field":
        obj, write = pn.RSField(F=data, grid=grid, time=time), fileio.write_rs_field
    else:
        obj, write = pn.RealVectorField(values=data.real, role=kind, grid=grid, time=time), fileio.write_real_field
    first, second = tmp_path / "first.pam", tmp_path / "second.pam"
    write(first, obj, provenance=provenance)
    back, manifest = fileio.read(first)
    assert manifest["time"] == time and manifest.get("provenance", {}) == provenance
    write(second, back, provenance=manifest.get("provenance"))
    assert first.read_bytes() == second.read_bytes()


def test_rs_and_real_field_files(tmp_path, grid32, basis32):
    wf = smooth_state(grid32, basis32, seed=3)
    rs = pn.synthesize(wf, 0.2)
    prs = tmp_path / "field.pam"
    fileio.write_rs_field(prs, rs)
    back, man = fileio.read(prs)
    assert man["kind"] == "rs_field"
    assert np.array_equal(back.F, rs.F)

    B = pn.magnetic_field(rs)
    pb = tmp_path / "b.pam"
    fileio.write_real_field(pb, B)
    back_b, man_b = fileio.read(pb)
    assert man_b["role"] == "B"
    assert np.array_equal(back_b.values, B.values)


def test_corrupt_files_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.pam"
    bad.write_bytes(b"NOTAFILE" + b"\x00" * 64)
    with pytest.raises(fileio.FieldFileError, match="not a photonam"):
        fileio.read(bad)

    grid = pn.make_grid(8)
    basis = pn.build_basis(grid)
    z = np.zeros(grid.dims, dtype=complex)
    wf = wavefunction(grid, basis, z, z)
    good = tmp_path / "good.pam"
    fileio.write_wavefunction(good, wf)
    truncated = tmp_path / "trunc.pam"
    truncated.write_bytes(good.read_bytes()[:-16])
    with pytest.raises(fileio.FieldFileError, match="truncated|payload"):
        fileio.read(truncated)

    # cut at every byte, from the last one down to an empty file
    raw = good.read_bytes()
    for n in range(len(raw) - 1, -1, -1):
        os.truncate(truncated, n)
        with pytest.raises(fileio.FieldFileError):
            fileio.read(truncated)

    # every manifest key the reader needs, dropped in turn, then bad values
    (mlen,) = struct.unpack("<Q", raw[8:16])
    manifest = json.loads(raw[16:16 + mlen])

    def rewrite(m):
        blob = json.dumps(m).encode()
        bad.write_bytes(b"PHOTONAM" + struct.pack("<Q", len(blob)) + blob + raw[16 + mlen:])

    for key in ("kind", "components", "complex", "dims", "spacing", "units", "time", "chart_axis"):
        rewrite({k: v for k, v in manifest.items() if k != key})
        with pytest.raises(fileio.FieldFileError, match=key):
            fileio.read(bad)
    for change in ({"components": ["gL"]}, {"units": {}}, {"spacing": [1.0, 1.0, -1.0]},
                   {"time": float("nan")}, {"time": float("inf")}, {"time": "0"},
                   {"time": True}, {"time": 10 ** 400},
                   {"dims": [8.0, 8, 8]}, {"dims": "888"}, {"dims": [-8, -8, 8]},
                   {"dims": [True, 8, 8]}, {"dims": [8, 8]}, {"components": 2},
                   {"chart_axis": [1, 0]}, {"chart_axis": "x"}, {"chart_axis": [1.0, 0.0, None]},
                   {"chart_axis": [2.0, 0.0, 0.0]}, {"complex": "yes"}, {"complex": 1}):
        rewrite({**manifest, **change})
        with pytest.raises(fileio.FieldFileError):
            fileio.read(bad)

    # a "complex" flag that contradicts the file kind, the payload length made to match it
    for kind, path in (("wavefunction", good), ("real_field", tmp_path / "real.pam")):
        if kind == "real_field":
            fileio.write_real_field(path, pn.RealVectorField(values=np.zeros((3,) + grid.dims), role="E", grid=grid))
        raw_k = path.read_bytes()
        (mlen_k,) = struct.unpack("<Q", raw_k[8:16])
        flipped = {**json.loads(raw_k[16:16 + mlen_k]), "complex": kind != "wavefunction"}
        payload = np.zeros(2 * 8 ** 3 * (1 if kind == "wavefunction" else 6), dtype="<f8").tobytes()
        blob = json.dumps(flipped).encode()
        bad.write_bytes(b"PHOTONAM" + struct.pack("<Q", len(blob)) + blob
                        + struct.pack("<Q", len(payload)) + payload)
        with pytest.raises(fileio.FieldFileError, match=f'a {kind} file has "complex": '):
            fileio.read(bad)
        if kind == "wavefunction":
            code, out, err = run_cli(capsys, "observables", str(bad), "--routes", "photon", "--json")
            assert code == 2 and out == "" and json.loads(err)["type"] == "FieldFileError"

    rewrite({**manifest, "dims": [8.0, 8, 8]})
    code, out, err = run_cli(capsys, "split", str(bad), "--json")
    assert code == 2 and out == ""
    assert json.loads(err)["type"] == "FieldFileError"

    bad.write_bytes(b"PHOTONAM\x05\x00")
    code, out, err = run_cli(capsys, "observables", str(bad), "--json")
    assert code == 2 and out == ""
    assert json.loads(err)["type"] == "FieldFileError"


def _parse_float64_container(path):
    """Independent reader: header by struct, payload as interleaved little-endian float64."""
    raw = path.read_bytes()
    assert raw[:8] == b"PHOTONAM"
    (mlen,) = struct.unpack("<Q", raw[8:16])
    manifest = json.loads(raw[16:16 + mlen])
    (plen,) = struct.unpack("<Q", raw[16 + mlen:24 + mlen])
    flat = np.frombuffer(raw, "<f8", offset=24 + mlen)
    assert flat.size * 8 == plen
    if manifest["complex"]:
        pairs = flat
        flat = np.empty(pairs.size // 2, dtype=complex)
        flat.real, flat.imag = pairs[0::2], pairs[1::2]
    return manifest, flat.reshape((len(manifest["components"]),) + tuple(manifest["dims"]))


def test_on_disk_layout_is_interleaved_float64(tmp_path, grid32, basis32):
    wf = smooth_state(grid32, basis32, seed=4, mix=(0.7, 0.2j))
    pw, pe = tmp_path / "wf.pam", tmp_path / "e.pam"
    fileio.write_wavefunction(pw, wf)
    manifest, data = _parse_float64_container(pw)
    assert manifest["complex"] and manifest["components"] == ["gL", "gR"]
    assert np.array_equal(data[0], wf.gL) and np.array_equal(data[1], wf.gR)

    E = pn.electric_field(pn.synthesize(wf, 0.1))
    fileio.write_real_field(pe, E)
    manifest, data = _parse_float64_container(pe)
    assert not manifest["complex"] and manifest["role"] == "E"
    assert np.array_equal(data, E.values)


# ---------------------------------------------------------------------------
# commands

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_beam_split_and_observables(tmp_path, capsys):
    out = tmp_path / "beam.pam"
    code, _, _ = run_cli(capsys, "beam", "bessel", "--m", "2", "--grid", "48",
                         "--helicity", "+1", "-o", str(out))
    assert code == 0

    code, text, _ = run_cli(capsys, "split", str(out), "--json")
    assert code == 0
    split = json.loads(text)
    jz_per_photon = split["J"][2] / split["n_photons"]
    assert jz_per_photon == pytest.approx(2.0, abs=0.06)

    code, text, _ = run_cli(capsys, "observables", str(out), "--json",
                            "--routes", "photon,field,darwin,textbook")
    assert code == 0
    rep = json.loads(text)
    assert rep["deltas"]["H_field_vs_photon"] < 1e-10
    assert rep["deltas"]["Js_darwin_vs_photon"] < 1e-10
    assert rep["deltas"]["Js_textbook_vs_photon"] < 1e-3
    assert rep["provenance"]["family"] == "bessel"
    photon = rep["routes"]["photon"]
    assert set(photon["diagnostics"]) == {"boundary_margin", "boundary_margin_r", "imag_residual_Jo", "imag_residual_K"}
    assert all(np.isfinite(v) for v in photon["diagnostics"].values())
    assert split["Jo"] == photon["Jo"] and split["Js"] == photon["Js"]


def test_k_delta_of_centred_beam_is_noise_scaled_by_energy_times_box(tmp_path, capsys):
    """Both K are ~1e-17 on the default 96^3 beam; the delta must not magnify that noise."""
    out = tmp_path / "beam96.pam"
    code, _, _ = run_cli(capsys, "beam", "bessel", "--m", "3", "-o", str(out))
    assert code == 0
    code, text, _ = run_cli(capsys, "observables", str(out), "--json", "--routes", "photon,field")
    assert code == 0
    assert json.loads(text)["deltas"]["K_field_vs_photon"] < 1e-12


def test_report_commands_derive_no_connection(tmp_path, capsys, monkeypatch):
    """split, observables and check polarization run without the connection alpha: deriving it would raise."""
    beam = tmp_path / "beam.pam"
    with decay_ignored():
        assert run_cli(capsys, "beam", "bessel", "--grid", "48", "--m", "2", "-o", str(beam))[0] == 0

    def refused(grid, axis):
        raise AssertionError("a report derived the connection")

    monkeypatch.setattr(polarization, "_derive_connection", refused)
    with decay_ignored():
        code, text, _ = run_cli(capsys, "split", str(beam), "--json")
        assert code == 0 and json.loads(text)["Js"][2] > 0
        code, text, _ = run_cli(capsys, "observables", str(beam), "--json")
    assert code == 0 and set(json.loads(text)["routes"]) == {"photon", "field", "darwin", "textbook"}
    code, text, _ = run_cli(capsys, "check", "polarization", "--grid", "16", "--json")
    rep = json.loads(text)
    assert code == 0 and rep["pass"] is True and rep["berry_loop"]["abs_error"] <= 1e-12


def test_k_delta_is_scaled_by_energy_times_box(grid48, basis48):
    """Off-centre packet: K is far from zero, and the delta is |dK| / (H L)."""
    wf = smooth_state(grid48, basis48, seed=4)
    rep = build_report(wf, ("photon", "field"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        gen_p = pn.generators_photon_picture(wf)
        gen_f = pn.generators_field_picture(pn.synthesize(wf))
    L = max(n * d for n, d in zip(grid48.dims, grid48.spacing))
    assert np.linalg.norm(gen_p.K) > 1e-2 * gen_p.H
    expect = np.linalg.norm(gen_f.K - gen_p.K) / (gen_p.H * L)
    assert rep["deltas"]["K_field_vs_photon"] == pytest.approx(expect, rel=1e-12)


def test_units_scale_every_route():
    """At c=2, hbar=3, eps0=5 the five routes scale as their dimensions say, and no delta moves.

    A packet of one photon: N stays, H and K scale by hbar c, and P, J, Jo
    and Js by hbar, each to 1e-12 of its size; every delta, a ratio of two
    routes, agrees to 1e-14.
    """
    reports = []
    for units in (pn.UnitsConfig(), pn.UnitsConfig(c=2.0, hbar=3.0, eps0=5.0)):
        grid = pn.make_grid(24, units=units)
        dk = grid.dk[0]
        with decay_ignored():       # the narrowest packet off the chart axis still reaches 5e-3 at the boundary
            wf = pn.gaussian_vortex(grid, pn.chart_basis(grid), center=(3.0 * dk, 3.0 * dk, 0.0), widths=2.0 * dk,
                                    m=1, helicity=(1.0, 0.6j), r_offset=(0.4, -0.7, 0.2), photons=1)
            reports.append(build_report(wf, ROUTES))
    base, scaled = reports
    hbar_c = 3.0 * 2.0
    factors = {"H": hbar_c, "K": hbar_c, "P": 3.0, "J": 3.0, "Jo": 3.0, "Js": 3.0}
    assert scaled["n_photons"] == pytest.approx(base["n_photons"], rel=1e-12)
    assert base["routes"].keys() == scaled["routes"].keys() == set(ROUTES)
    for route, values in base["routes"].items():
        for key, factor in factors.items():
            if values.get(key) is not None:
                want = factor * np.asarray(values[key])
                err = np.linalg.norm(np.asarray(scaled["routes"][route][key]) - want)
                assert err <= 1e-12 * np.linalg.norm(want), (route, key)
    assert base["deltas"].keys() == scaled["deltas"].keys()
    for key, delta in base["deltas"].items():
        assert abs(scaled["deltas"][key] - delta) <= 1e-14, key


def test_beam_usage_error_exit_2(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["beam", "bessel", "--grid", "16", "-o", str(tmp_path / "x.pam")])
    assert exc.value.code == 2


def test_beam_validation_error_json_on_stderr(tmp_path, capsys):
    # sigma below the resolvability floor must fail with machine-readable JSON
    code, _, err = run_cli(capsys, "beam", "bessel", "--m", "1", "--grid", "16",
                           "--sigma-perp", "0.5", "-o", str(tmp_path / "x.pam"))
    assert code == 2
    payload = json.loads(err.strip())
    assert "error" in payload and "unresolvable" in payload["error"]


def test_grid_too_large_for_memory_exits_2_before_allocating(tmp_path, capsys, monkeypatch):
    from photonam import grids
    monkeypatch.setattr(grids, "physical_memory", lambda: grids.WORKING_SET_ARRAYS * 16 * 16 ** 3 - 1)
    built = []
    monkeypatch.setattr(pn.beams, "gaussian_vortex", lambda *a, **k: built.append(a))
    code, _, err = run_cli(capsys, "beam", "gaussian", "--grid", "16", "-o", str(tmp_path / "x.pam"))
    assert code == 2 and not built
    payload = json.loads(err.strip())
    assert payload["type"] == "ValueError" and "physical memory" in payload["error"]


@pytest.mark.parametrize("argv, message", [
    (("bessel", "--m", "1", "--photons", "-1"), "photons"),
    (("bessel", "--m", "1", "--k0", "nan"), "finite"),
    (("gaussian", "--sigma", "nan"), "finite"),
])
def test_beam_input_is_refused_before_the_first_grid_sized_allocation(tmp_path, capsys, argv, message):
    out = tmp_path / "x.pam"
    (code, _, err), peak = traced_peak(lambda: run_cli(capsys, "beam", *argv, "--grid", "64", "-o", str(out)))
    assert code == 2 and not out.exists()
    assert peak < 0.1 * 16 * 64 ** 3, f"{peak} bytes allocated before the refusal"
    payload = json.loads(err.strip())
    assert payload["type"] == "ValueError" and message in payload["error"]


def test_a_ring_whose_tail_crosses_the_grid_edge_is_refused_before_allocation(tmp_path, capsys):
    """At k_z = 0 the default ring, k_perp0 = 0.62 pi, and 4 sigma_perp of its tail cross the Nyquist edge of 32^3."""
    out = tmp_path / "x.pam"
    (code, _, err), peak = traced_peak(lambda: run_cli(
        capsys, "beam", "bessel", "--kz-over-k", "0", "--chart-axis", "0,0,1", "--grid", "32", "--m", "1",
        "-o", str(out)))
    assert code == 2 and not out.exists()
    assert peak < 0.25 * 16 * 32 ** 3, f"{peak} bytes allocated before the refusal"
    assert "crosses the transverse grid boundary" in json.loads(err.strip())["error"]


@pytest.mark.parametrize("n", [48, 64, 96, 128])
def test_the_default_bessel_beam_fits_its_grid(tmp_path, capsys, n):
    out = tmp_path / "b.pam"
    with decay_ignored():
        assert run_cli(capsys, "beam", "bessel", "--grid", str(n), "--m", "3", "-o", str(out))[0] == 0
    assert out.stat().st_size > 2 * 16 * n ** 3


def _kz_zero_split(tmp_path, capsys):
    """The `split --json` report of an m=1 Bessel beam at k_z = 0, on the z chart (the x chart cuts its ring).

    From 64^3 the default ring and its tail fit the grid at k_z = 0.
    """
    beam = tmp_path / "kz0.pam"
    with decay_ignored():
        assert run_cli(capsys, "beam", "bessel", "--kz-over-k", "0", "--chart-axis", "0,0,1", "--grid", "64",
                       "--m", "1", "-o", str(beam))[0] == 0
        code, out, _ = run_cli(capsys, "split", str(beam), "--json")
    assert code == 0
    return json.loads(out)


def test_bessel_kz_over_k_zero_records_a_null_ratio(tmp_path, capsys):
    """At k_z = 0 the spin has no z component: the beam is written, and its Jo_z/Js_z oracle is null."""
    rep = _kz_zero_split(tmp_path, capsys)
    assert rep["provenance"]["kz_over_k"] == 0.0 and rep["provenance"]["ratio_analytic"] is None
    # all of J_z is orbital
    assert abs(rep["Js"][2]) <= 1e-12 * abs(rep["Jo"][2])
    assert rep["Jo"][2] == pytest.approx(rep["n_photons"], rel=0.05)


def test_plotdata_leaves_an_undefined_oracle_empty(tmp_path, capsys):
    rep = _kz_zero_split(tmp_path, capsys)
    rep["routes"] = {"photon": {"Jo": rep["Jo"], "Js": rep["Js"]}}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep))
    code, out, _ = run_cli(capsys, "plotdata", "bessel", str(path))
    assert code == 0
    sigma, ratio, analytic, abs_error = out.strip().splitlines()[1].split(",")
    assert float(sigma) == rep["provenance"]["sigma_perp"] and float(ratio) == rep["Jo"][2] / rep["Js"][2]
    assert analytic == abs_error == ""


def test_gaussian_too_close_to_the_chart_axis_names_both_lengths(tmp_path, capsys):
    """A centre at pi/3 on each axis sits sqrt(2) pi / 3 = 1.481 from the x axis; at 16^3 two widths are 5 dk = 1.963."""
    out = tmp_path / "x.pam"
    center = ",".join([repr(np.pi / 3.0)] * 3)
    code, _, err = run_cli(capsys, "beam", "gaussian", "--grid", "16", f"--center={center}", "-o", str(out))
    assert code == 2 and not out.exists()
    message = json.loads(err.strip())["error"]
    assert "packet center too close to the chart axis" in message
    assert f"{np.sqrt(2.0) * np.pi / 3.0:.4g}" in message and f"{5 * 2 * np.pi / 16:.4g}" in message
    with decay_ignored():
        assert run_cli(capsys, "beam", "gaussian", "--grid", "24", "-o", str(out))[0] == 0
    assert out.exists()


@pytest.mark.parametrize("n", [8, 12, 16, 20])
def test_default_gaussian_builds_on_small_grids(tmp_path, capsys, n):
    """The default centre moves off 1/3 Nyquist where that lies within two widths of the default x chart axis."""
    out = tmp_path / "x.pam"
    with decay_ignored():       # so broad a packet reaches the edge of a small grid
        assert run_cli(capsys, "beam", "gaussian", "--grid", str(n), "-o", str(out))[0] == 0
    center = fileio.read(str(out))[1]["provenance"]["center"]
    assert center[0] == center[1] == center[2] >= np.pi / 3.0
    assert np.hypot(center[1], center[2]) >= 2 * 2.5 * 2 * np.pi / n      # two default widths from the x axis


@pytest.mark.parametrize("name, sign", [("L", "+1"), ("R", "-1"), ("r", "-1")])
def test_bessel_helicity_letter_equals_its_sign(tmp_path, capsys, name, sign):
    files = [tmp_path / "letter.pam", tmp_path / "sign.pam"]
    with decay_ignored():       # the default ring is not resolved to BOUNDARY_TOL at 48^3
        for helicity, path in zip((name, sign), files):
            assert run_cli(capsys, "beam", "bessel", "--grid", "48", "--m", "2",
                           "--helicity", helicity, "-o", str(path))[0] == 0
    assert files[0].read_bytes() == files[1].read_bytes()


@pytest.mark.parametrize("name, sign", [("L", "+1"), ("R", "-1"), ("r", "-1")])
def test_gaussian_helicity_letter_equals_its_sign(tmp_path, capsys, name, sign):
    """Both beam families read --helicity alike; the file records the sign."""
    files = [tmp_path / "letter.pam", tmp_path / "sign.pam"]
    with decay_ignored():
        for helicity, path in zip((name, sign), files):
            assert run_cli(capsys, "beam", "gaussian", "--grid", "24", "--helicity", helicity,
                           "-o", str(path))[0] == 0
    assert files[0].read_bytes() == files[1].read_bytes()
    assert fileio.read(files[0])[1]["provenance"]["helicity"] == int(sign)


def test_failed_allocation_exits_2_with_error_json(tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.00 TiB for an array")
    # the beam factory is the first grid-sized step; the chart basis allocates no grid array
    monkeypatch.setattr(pn.beams, "gaussian_vortex", no_memory)
    code, _, err = run_cli(capsys, "beam", "gaussian", "--grid", "16", "-o", str(tmp_path / "x.pam"))
    assert code == 2
    payload = json.loads(err.strip())
    assert payload["type"] == "MemoryError" and "allocate" in payload["error"]


def test_zero_state_report(tmp_path, capsys, grid16, basis16):
    z = np.zeros(grid16.dims, dtype=complex)
    wf = wavefunction(grid16, basis16, z, z)
    path = tmp_path / "zero.pam"
    fileio.write_wavefunction(path, wf)
    code, text, _ = run_cli(capsys, "observables", str(path), "--json",
                            "--routes", "photon,field,darwin,textbook")
    assert code == 0
    rep = json.loads(text)
    assert rep["n_photons"] == 0.0
    assert rep["routes"]["photon"]["H"] == 0.0
    assert all(v == 0.0 for v in rep["routes"]["photon"]["Js"])


def test_nonlocal_route_runs_on_a_64_grid(tmp_path, capsys):
    out = tmp_path / "beam64.pam"
    code, _, _ = run_cli(capsys, "beam", "gaussian", "--grid", "64", "-o", str(out))
    assert code == 0
    code, text, _ = run_cli(capsys, "observables", str(out), "--routes", "nonlocal", "--json")
    assert code == 0
    rep = json.loads(text)
    assert set(rep["routes"]) == {"photon", "nonlocal"}
    # about 3.5 cells per wavelength: the sampled kernel is 8.5% off at this dx
    assert rep["deltas"]["Js_nonlocal_vs_photon"] < 0.1
    assert np.dot(rep["routes"]["nonlocal"]["Js"], rep["routes"]["photon"]["Js"]) > 0


@pytest.mark.parametrize("argv", [
    ("gaussian", "--grid", "16", "--chart-axis", "0,0,0"),
    ("gaussian", "--grid", "16", "--chart-axis", "nan,0,1"),
    ("gaussian", "--grid", "16", "--chart-axis", "1,0"),
    ("gaussian", "--grid", "16", "--dx", "nan"),
    ("gaussian", "--grid", "16", "--dx", "inf"),
    ("gaussian", "--grid", "32", "--sigma", "nan"),
    ("gaussian", "--grid", "32", "--center", "nan,1,1"),
    ("gaussian", "--grid", "32", "--photons", "nan"),
    ("bessel", "--grid", "64", "--m", "1", "--photons", "-1"),
    ("bessel", "--grid", "64", "--m", "1", "--photons", "nan"),
    ("bessel", "--grid", "64", "--m", "1", "--photons", "inf"),
    ("bessel", "--grid", "64", "--m", "1", "--k0", "nan"),
    ("bessel", "--grid", "64", "--m", "1", "--sigma-perp", "nan"),
    ("bessel", "--grid", "64", "--m", "1", "--kz-over-k", "nan"),
])
def test_non_finite_or_negative_beam_input_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "x.pam"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = run_cli(capsys, "beam", *argv, "-o", str(out))
    assert code == 2
    assert json.loads(err.strip())["type"] == "ValueError"
    assert not out.exists()


@pytest.mark.parametrize("t", ["nan", "inf", "1e308", "-1e308"])
def test_non_finite_synthesis_time_exits_2(tmp_path, capsys, grid16, basis16, t):
    beam = tmp_path / "beam.pam"
    fileio.write_wavefunction(beam, smooth_state(grid16, basis16))
    out = tmp_path / "rs.pam"
    code, _, err = run_cli(capsys, "synthesize", str(beam), f"--t={t}", "-o", str(out))     # "--t", "-1e308" reads as a flag
    assert code == 2
    assert "finite" in json.loads(err.strip())["error"]
    assert not out.exists()


@pytest.mark.parametrize("command, kind, message", [
    ("synthesize", "rs_field", "synthesize needs a file of kind wavefunction, not rs_field"),
    ("analyze", "wavefunction", "analyze needs a file of kind rs_field, not wavefunction"),
    ("observables", "real_field", "observables needs a file of kind wavefunction or rs_field, not real_field"),
], ids=("synthesize", "analyze", "observables"))
def test_file_of_the_wrong_kind_exits_2(tmp_path, capsys, grid16, basis16, command, kind, message):
    wf = smooth_state(grid16, basis16)
    path = tmp_path / f"{kind}.pam"
    if kind == "wavefunction":
        fileio.write_wavefunction(path, wf)
    elif kind == "rs_field":
        fileio.write_rs_field(path, pn.synthesize(wf))
    else:
        fileio.write_real_field(path, pn.magnetic_field(pn.synthesize(wf)))
    out = tmp_path / "out.pam"
    argv = (command, str(path)) + (() if command == "observables" else ("-o", str(out)))
    code, text, err = run_cli(capsys, *argv)
    assert code == 2 and text == "" and not out.exists()
    payload = json.loads(err.strip())
    assert payload["type"] == "ValueError" and payload["error"] == f"{path}: {message}"


def test_analyze_of_a_non_transverse_field_exits_2(tmp_path, capsys, grid16):
    x, y, z = np.meshgrid(*grid16.x_axes, indexing="ij")
    coulombish = np.stack([x, y, z]) * np.exp(-(x ** 2 + y ** 2 + z ** 2 + 1.0) / 18.0)
    path = tmp_path / "coulomb.pam"
    fileio.write_rs_field(path, pn.RSField(F=coulombish.astype(complex), grid=grid16))
    out = tmp_path / "out.pam"
    code, text, err = run_cli(capsys, "analyze", str(path), "-o", str(out))
    assert code == 2 and text == "" and not out.exists()
    payload = json.loads(err.strip())
    assert payload["type"] == "ValueError" and "non-radiative" in payload["error"]


def test_analyze_of_a_field_with_a_nan_exits_2(tmp_path, capsys):
    grid = pn.make_grid(24)
    F = pn.synthesize(smooth_state(grid, pn.chart_basis(grid))).F.copy()
    F[0, 3, 4, 5] = np.nan
    path = tmp_path / "nan.pam"
    fileio.write_rs_field(path, pn.RSField(F=F, grid=grid))
    out = tmp_path / "out.pam"
    code, text, err = run_cli(capsys, "analyze", str(path), "-o", str(out))
    assert code == 2 and text == "" and not out.exists()
    payload = json.loads(err.strip())
    assert payload["type"] == "ValueError" and "non-radiative" in payload["error"]


def test_unknown_route_is_refused_before_the_file_is_read(tmp_path, capsys):
    code, _, err = run_cli(capsys, "observables", str(tmp_path / "missing.pam"), "--routes", "photon,bogus")
    assert code == 2
    assert "unknown route" in json.loads(err.strip())["error"]


def test_file_commands_take_no_k_derivative(tmp_path, capsys, gradient_calls):
    """No file command differentiates by FD or builds the connection: split takes the exact E(k) route."""
    paths = {name: str(tmp_path / name) for name in ("bessel", "beam", "rs", "back", "a")}
    c = repr(np.pi / 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for argv in (("beam", "bessel", "--grid", "48", "--m", "2", "-o", paths["bessel"]),
                     ("beam", "gaussian", "--grid", "24", f"--center={c},{c},{c}", "-o", paths["beam"]),
                     ("synthesize", paths["beam"], "--t", "0.1", "-o", paths["rs"]),
                     ("analyze", paths["rs"], "-o", paths["back"]),
                     ("potential", paths["rs"], "-o", paths["a"])):
            assert run_cli(capsys, *argv)[0] == 0, argv
        assert gradient_calls == []
        code, _, _ = run_cli(capsys, "split", paths["bessel"], "--json")
    assert code == 0 and gradient_calls == []


def test_synthesize_analyze_potential_pipeline(tmp_path, capsys):
    beam = tmp_path / "beam.pam"
    rs = tmp_path / "rs.pam"
    wf2 = tmp_path / "back.pam"
    apath = tmp_path / "a.pam"
    assert run_cli(capsys, "beam", "gaussian", "--grid", "32", "--m", "1",
                   "-o", str(beam))[0] == 0
    assert run_cli(capsys, "synthesize", str(beam), "--t", "0.1", "-o", str(rs))[0] == 0
    assert run_cli(capsys, "analyze", str(rs), "-o", str(wf2))[0] == 0
    assert run_cli(capsys, "potential", str(rs), "-o", str(apath))[0] == 0

    orig, _ = fileio.read(beam)
    back, _ = fileio.read(wf2)
    evolved = materialized(pn.evolve(orig, 0.1))
    assert rel(back.gL, evolved.gL) < 1e-10

    A, man = fileio.read(apath)
    assert man["role"] == "A"
    field, _ = fileio.read(rs)
    B = pn.magnetic_field(field)
    assert rel(pn.spectral_curl(A.grid, A.values), B.values) < 1e-10


def test_check_polarization_and_greens(capsys, tmp_path):
    csv_path = tmp_path / "pol.csv"
    code, out, _ = run_cli(capsys, "check", "polarization", "--grid", "16",
                           "--csv", str(csv_path))
    assert code == 0
    assert "pass: True" in out
    assert csv_path.read_text().splitlines()[0].startswith("identity,")

    code, out, _ = run_cli(capsys, "check", "greens", "--grid", "64", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True and rep["max_rel_mismatch"] <= 0.02


@pytest.mark.parametrize("argv, message", [
    (("polarization", "--grid", "16,48"), "one grid size"),
    (("greens", "--grid", "16,64"), "one grid size"),
    (("greens", "--grid", "16"), "12 cells"),
    (("greens", "--grid", "24"), "12 cells"),
])
def test_check_refuses_sizes_its_suite_cannot_use(capsys, argv, message):
    code, out, err = run_cli(capsys, "check", *argv, "--json")
    assert code == 2 and out == ""
    assert message in json.loads(err.strip())["error"]


def test_check_has_no_grid_step_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "polarization", "--grid", "16", "--dx", "2"])
    assert exc.value.code == 2


def test_plotdata_bessel_series(tmp_path, capsys):
    reports = []
    for i, sig in enumerate(("2.1", "2.0")):
        beam = tmp_path / f"b{i}.pam"
        assert run_cli(capsys, "beam", "bessel", "--m", "3", "--grid", "48",
                       "--sigma-perp", sig, "--sigma-z", sig, "-o", str(beam))[0] == 0
        code, out, _ = run_cli(capsys, "split", str(beam), "--json")
        assert code == 0
        rep = json.loads(out)
        rep["routes"] = {"photon": {"Jo": rep["Jo"], "Js": rep["Js"]}}
        p = tmp_path / f"rep{i}.json"
        p.write_text(json.dumps(rep))
        reports.append(str(p))

    code, out, _ = run_cli(capsys, "plotdata", "bessel", *reports)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "sigma,ratio,analytic,abs_error"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[2]) == pytest.approx(2.75)


def test_plotdata_empty_input(capsys):
    code, out, _ = run_cli(capsys, "plotdata", "bessel")
    assert code == 0
    assert out.strip() == "sigma,ratio,analytic,abs_error"


@pytest.fixture()
def chart_files(tmp_path, capsys):
    """A 24^3 gaussian wavefunction file and its rs_field file."""
    paths = {name: str(tmp_path / name) for name in ("beam", "rs")}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run_cli(capsys, "beam", "gaussian", "--grid", "24", "-o", paths["beam"])[0] == 0
        assert run_cli(capsys, "synthesize", paths["beam"], "-o", paths["rs"])[0] == 0
    return paths


def test_beam_normalizes_a_non_unit_chart_axis(tmp_path, capsys):
    out = tmp_path / "z.pam"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, _, _ = run_cli(capsys, "beam", "gaussian", "--grid", "24", "--chart-axis", "0,0,2", "-o", str(out))
    assert code == 0
    assert fileio.read(out)[1]["chart_axis"] == [0.0, 0.0, 1.0]


def test_rs_field_chart_axis_is_normalized_and_defaults_to_x(chart_files, capsys):
    def split(*flag):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, text, _ = run_cli(capsys, "split", chart_files["rs"], "--json", *flag)
        assert code == 0
        return json.loads(text)

    assert split("--chart-axis", "0,0,2") == split("--chart-axis", "0,0,1")
    assert split() == split("--chart-axis", "1,0,0")


def test_chart_axis_on_a_wavefunction_file_exits_2(chart_files, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run_cli(capsys, "split", chart_files["beam"], "--json")[0] == 0
        code, _, err = run_cli(capsys, "split", chart_files["beam"], "--chart-axis", "0,0,2", "--json")
    assert code == 2
    assert "fixes its own chart axis" in json.loads(err.strip())["error"]


def test_check_algebra_beyond_memory_exits_2_before_any_grid(capsys, monkeypatch):
    """Half an array short of the suite's estimate, 12 fine-grid arrays and one a worker running a relation, exits 2 before any grid.

    At THREADS=16 the estimate, 22 arrays, exceeds `make_grid`'s 16.
    """
    from photonam import cli, grids

    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    unit = 16 * 96 ** 3
    monkeypatch.setattr(cli, "make_grid", no_grid)
    for threads in (1, 3, 16):
        monkeypatch.setenv("THREADS", str(threads))
        need = cli._algebra_working_set()
        assert need == cli.ALGEBRA_WORKING_SET_ARRAYS + min(threads, 10)
        monkeypatch.setattr(grids, "physical_memory", lambda: (need - 0.5) * unit)
        (code, _, err), peak = traced_peak(lambda: run_cli(capsys, "check", "algebra", "--grid", "48,96"))
        assert code == 2
        assert "physical memory" in json.loads(err.strip())["error"]
        assert peak < 0.1 * unit, f"{peak} bytes allocated before the refusal"
    assert grids.WORKING_SET_ARRAYS < cli.ALGEBRA_WORKING_SET_ARRAYS + 10


@pytest.mark.parametrize("sizes", ["96,48", "48,64,96", "48,48"])
def test_check_algebra_refuses_grids_it_cannot_compare(capsys, monkeypatch, sizes):
    """Anything but two sizes, coarse < fine, is a usage error (exit 2), refused before any grid is built."""
    from photonam import cli

    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(cli, "make_grid", no_grid)
    code, out, err = run_cli(capsys, "check", "algebra", "--grid", sizes)
    assert code == 2 and out == ""
    assert "two grid sizes" in json.loads(err.strip())["error"]


@pytest.mark.parametrize("sizes", ["32,64", "46"])
def test_check_algebra_refuses_grids_too_coarse_for_its_state(capsys, monkeypatch, sizes):
    """A coarse grid below 48, too coarse for the 0.27 width of the test state, exits 2 naming 48, before any grid is built."""
    from photonam import cli

    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(cli, "make_grid", no_grid)
    code, out, err = run_cli(capsys, "check", "algebra", "--grid", sizes)
    assert code == 2 and out == ""
    assert cli.ALGEBRA_MIN_GRID == 48
    assert "N1 >= 48" in json.loads(err.strip())["error"]
