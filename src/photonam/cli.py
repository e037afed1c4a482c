"""Command-line driver.

Commands: beam, observables, split, synthesize, analyze, potential, check,
plotdata.  Human-readable text goes to stdout; ``--json`` switches to
machine-readable JSON.  Exit codes: 0 success, 1 numerical threshold
failure, 2 usage or validation error (with an error JSON on stderr); a
grid too large for the machine's memory is refused with exit 2 before it is
allocated (``check algebra`` by its own working set, sized from its measured
peaks; ``check polarization`` by `make_grid`'s, as it reduces its identities
slab by slab), and an allocation that fails all the same also exits 2.
Non-finite or out-of-range numbers also exit 2 and write no file; the beam
factories validate their inputs before their first grid-sized allocation,
and an unknown ``observables`` route is refused before its file is read.
``synthesize``, ``analyze``, ``observables`` and ``split`` read their file
through one path that refuses a file of the wrong kind (exit 2) and analyzes
an rs_field file straight from its complex field F.  Every
``observables`` route, the nonlocal Coulomb-kernel one included, runs on any
grid the memory refusal accepts.

The photon, darwin and field routes each measure their decay margins once
and report them: ``diagnostics.boundary_margin`` at the k edge (photon and
darwin) and ``boundary_margin_r`` at the real-space edge (photon and field);
a failing margin also writes one ``BoundaryDecayWarning`` to stderr.

Only ``check algebra`` derives the connection alpha of the polarization
basis (`photonam.polarization` names its readers); the photon route takes
Jo and K from E(k) with an exact k derivative, and darwin is the one route
that differentiates by finite differences.  An
``observables`` report builds E(k) of the stored snapshot once, when any
route besides the photon one is asked for, and hands it to the photon
route, to darwin and to the synthesis of F (`build_report`); it releases
the state after the photon route and E(k) after the synthesis.
``synthesize`` builds F from E(k) too, and reading a file allocates its
payload once, in the arrays of the state or field it returns.
``--chart-axis`` normalizes any nonzero finite vector and sets
the chart of a new beam or of an rs_field file; a wavefunction file carries
its own chart, and the flag is refused there.

``check`` runs each suite on cubic grids of step 1, by default of the sizes
``CHECK_SIZES``; ``--grid`` gives one N (greens: N >= 26), or N1,N2 for
algebra, where N alone means N,2N.  The THREADS environment variable caps
the worker threads of every command (default: the CPU count): the 3-d
transforms, e(k), alpha, E(k), both beams (their fill, photon number and
scale), ``synthesize``, ``analyze`` (projection, reflection and divergence
check), the E and B copies of F, ``potential`` (its checks and products)
and the photon, darwin, field and textbook routes run on them in slabs
that depend on the grid alone, and the k gradient one axis per worker.  ``check algebra`` checks
its test state one helicity at a time: for helicity +1, then -1, it makes
D_x g, D_y g and D_z g once per grid (one axis per worker), shares them,
with omega and w, across every relation, runs its ten relations on them
(one per worker, each reduced slab by slab on that worker), and frees them
before the other helicity (see ``grids._over_slabs``,
``grids._map_threads`` and ``algebra_checks.run_suite``).  Outputs are
identical, bit for bit, for any value.  ``check algebra`` refuses a coarse
grid below ALGEBRA_MIN_GRID (48), too coarse for its test state, before any
grid is built, and a fine grid whose working set, which grows with
THREADS, exceeds physical memory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import warnings

import numpy as np

from . import (
    algebra_checks,
    beams,
    fields_bridge,
    fileio,
    observables,
    polarization,
)
from .grids import BoundaryDecayWarning, make_grid, _refuse_beyond_memory, _thread_count

#: peak RSS of `check algebra` in complex arrays of its fine grid (13.5 MiB at
#: 96^3, 32 MiB at 128^3), less one array for each worker running a relation
#: (`_algebra_working_set`).  It checks one helicity at a time and reduces each
#: relation slab by slab, so a worker holds a slab's scratch: at 48,96,
#: 156 / 170 / 181 MiB (11.6 / 12.6 / 13.4 arrays) at THREADS=1 / 2 / 3, and at
#: 64,128 339 MiB (10.6) at THREADS=2.  12 arrays and one a worker lie 11-32%
#: above each of them.  `make_grid`'s own refusal applies to each grid too
ALGEBRA_WORKING_SET_ARRAYS = 12

#: default grid sizes N of each check suite (grid step 1); algebra compares two grids
CHECK_SIZES = {"algebra": "48,96", "polarization": "32", "greens": "64"}

#: k-space width of the `check algebra` test state
ALGEBRA_STATE_WIDTH = 0.27

#: smallest N that resolves that width by two k steps 2 pi / N at grid step 1, even (48)
ALGEBRA_MIN_GRID = 2 * math.ceil(2.0 * math.pi / ALGEBRA_STATE_WIDTH)


def _vec(value, n=3, cast=float):
    parts = [cast(v) for v in str(value).split(",")]
    if len(parts) == 1:
        parts = parts * n
    if len(parts) != n:
        raise ValueError(f"expected {n} comma-separated values, got {value!r}")
    return tuple(parts)


def _emit(payload, as_json, text_lines):
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=1, default=lambda o: o.tolist()))
    else:
        for line in text_lines:
            print(line)


def _chart_axis(value):
    """The unit chart axis of a ``--chart-axis`` value (x when None); only a nonzero finite vector passes."""
    chart = np.asarray(_vec("1,0,0" if value is None else value))
    norm = np.linalg.norm(chart)
    if not 0.0 < norm < np.inf:
        raise ValueError(f"chart axis {value!r} must be a nonzero finite vector")
    return tuple(chart / norm)


# ---------------------------------------------------------------------------
# beam

def cmd_beam(args):
    grid = make_grid(_vec(args.grid, 3, int), (args.dx, args.dx, args.dx))
    basis = polarization.chart_basis(grid, _chart_axis(args.chart_axis))     # allocates no grid array
    dk = max(grid.dk)

    # each factory validates its inputs before its first grid-sized allocation
    if args.family == "bessel":
        # default keeps the ring plus about 5.7 sigma of k_z tail inside the grid
        # (the ring-limited width below), 8 sigma from 96^3 where the width is 3 steps
        k0 = args.k0 if args.k0 is not None else 0.62 * np.pi / args.dx
        kz0 = args.kz_over_k * k0
        kperp0 = np.sqrt(max(k0 ** 2 - kz0 ** 2, 0.0))
        # default widths: 3 steps where the ring allows it, else as wide as fits
        sigma_auto = min(3.0, kperp0 / (4.2 * dk))
        spec = beams.BesselSpec(
            k_perp0=kperp0,
            k_z0=kz0,
            m=args.m,
            helicity=args.helicity,
            sigma_perp=(args.sigma_perp if args.sigma_perp is not None else sigma_auto) * dk,
            sigma_z=(args.sigma_z if args.sigma_z is not None else sigma_auto) * dk,
        )
        provenance = {
            "family": "bessel", "m": args.m, "helicity": args.helicity,
            "k0": k0, "kz_over_k": args.kz_over_k,
            "sigma_perp": spec.sigma_perp, "sigma_z": spec.sigma_z,
            "sigma_perp_cells": spec.sigma_perp / dk, "sigma_z_cells": spec.sigma_z / dk,
            # null where the oracle is undefined: at k_z = 0 all of J_z is orbital
            "ratio_analytic": (beams.bessel_ratio_oracle(args.m, args.kz_over_k, args.helicity)
                               if args.helicity * args.kz_over_k else None),
        }
        wf = beams.bessel_beam(grid, basis, spec, args.photons)
    else:
        sigma = tuple(s * dk for s in _vec(args.sigma if args.sigma is not None else "2.5"))
        # default on the diagonal at 1/3 Nyquist, or 1.45 widths out on small grids, where that
        # lies within two widths (sqrt(2) widths on each axis) of the default x chart axis
        center = _vec(args.center) if args.center else (max((np.pi / args.dx) / 3.0, 1.45 * max(sigma)),) * 3
        provenance = {
            "family": "gaussian", "m": args.m, "helicity": args.helicity,
            "center": list(center), "sigma": list(sigma),
        }
        wf = beams.gaussian_vortex(grid, basis, center=center, widths=sigma, m=args.m,
                                   helicity=args.helicity, photons=args.photons)

    manifest = fileio.write_wavefunction(args.output, wf, provenance=provenance)
    _emit({"written": args.output, "manifest": manifest}, args.json,
          [f"wrote {args.output} ({manifest['kind']}, dims {manifest['dims']})"])
    return 0


# ---------------------------------------------------------------------------
# observables / split

ROUTES = ("photon", "field", "darwin", "textbook", "nonlocal")

#: the file kinds `observables` and `split` read as a photon state
STATE_KINDS = ("wavefunction", "rs_field")


def _vec3(v):
    return None if v is None else [float(x) for x in np.asarray(v)]


def _generator_dict(gen):
    return {
        "H": float(gen.H),
        "P": _vec3(gen.P), "J": _vec3(gen.J), "K": _vec3(gen.K),
        "N": None if gen.N is None else float(gen.N),
        "Jo": _vec3(gen.Jo), "Js": _vec3(gen.Js),
        "diagnostics": gen.diagnostics or {},
    }


def _rel(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    den = max(np.linalg.norm(b), 1e-300)
    return float(np.linalg.norm(a - b) / den)


def _load_state(args, kinds):
    """Read ``args.file``, refusing any file kind not in `kinds`; return (state, manifest).

    A wavefunction file is returned as read: it fixes its own chart, so an
    explicit ``--chart-axis`` is refused.  An rs_field file is analyzed on
    the chart of ``--chart-axis`` (default x), and its field freed once its
    spectra exist.
    """
    flag = getattr(args, "chart_axis", None)
    chart = _chart_axis(flag) if "rs_field" in kinds else None
    obj, manifest = fileio.read(args.file)
    if manifest["kind"] not in kinds:
        raise ValueError(f"{args.file}: {args.command} needs a file of kind {' or '.join(kinds)}, "
                         f"not {manifest['kind']}")
    if isinstance(obj, fields_bridge.RSField):
        basis = polarization.chart_basis(obj.grid, chart)
        # F, held in a list only, goes to `analyze` as a temporary: it is freed once its spectra exist
        read, obj = [obj], None
        return fields_bridge.analyze(read.pop(), basis), manifest
    if flag is not None:
        raise ValueError(f"{args.file}: a {manifest['kind']} file fixes its own chart axis; "
                         f"--chart-axis applies to rs_field files only")
    return obj, manifest


def build_report(wf, routes, manifest=None):
    """The ``observables`` report of the state `wf` on `routes`, each route's values and the deltas between them.

    One E(k) of the stored snapshot is built when any route besides the
    photon one is asked for, and handed to the photon route, to darwin and
    to the synthesis of F; the state is read no further after the photon
    route, so a state passed as a temporary is freed there, and E(k) after
    the synthesis.  With the photon route alone, it fills E(k) one component
    at a time.
    """
    grid = wf.grid
    report = {"routes": {}, "deltas": {}, "grid": {"dims": list(grid.dims), "spacing": list(grid.spacing)},
              "units": {"c": grid.units.c, "hbar": grid.units.hbar, "eps0": grid.units.eps0},
              "time": wf.time}
    if manifest and "provenance" in manifest:
        report["provenance"] = manifest["provenance"]

    fields = "field" in routes or "textbook" in routes or "nonlocal" in routes
    Ek = fields_bridge.spectral_e_from_wavefunction(wf) if fields or "darwin" in routes else None
    gen_p = observables.generators_photon_picture(wf, Ek)
    wf = None
    report["routes"]["photon"] = _generator_dict(gen_p)
    report["n_photons"] = float(gen_p.N)

    if "darwin" in routes:
        Jo_d, Js_d, diag = observables.darwin_split(Ek)
        report["routes"]["darwin"] = {"Jo": _vec3(Jo_d), "Js": _vec3(Js_d), "diagnostics": diag}
        report["deltas"]["Js_darwin_vs_photon"] = _rel(Js_d, gen_p.Js)
        report["deltas"]["Jo_darwin_vs_photon"] = _rel(Jo_d, gen_p.Jo)

    rs = fields_bridge.synthesize(Ek) if fields else None
    Ek = None
    if "field" in routes:
        gen_f = observables.generators_field_picture(rs)
        report["routes"]["field"] = _generator_dict(gen_f)
        report["deltas"]["H_field_vs_photon"] = _rel(gen_f.H, gen_p.H)
        report["deltas"]["P_field_vs_photon"] = _rel(gen_f.P, gen_p.P)
        report["deltas"]["J_field_vs_photon"] = _rel(gen_f.J, gen_p.J)
        # both K are energy x length; near zero on centred beams, so scale by H L
        report["deltas"]["K_field_vs_photon"] = float(
            np.linalg.norm(gen_f.K - gen_p.K) / max(gen_p.H * grid.box_length, 1e-300))
    # nonlocal before textbook, and B held in a list, so that `vector_potential` takes it as a temporary
    if "textbook" in routes or "nonlocal" in routes:
        E = fields_bridge.electric_field(rs)
        B = [fields_bridge.magnetic_field(rs)]
        rs = None           # E and B are copies; F is no longer needed
    if "nonlocal" in routes:
        Js_n = observables.spin_nonlocal_real(E, B[0])
        report["routes"]["nonlocal"] = {"Js": _vec3(Js_n)}
        report["deltas"]["Js_nonlocal_vs_photon"] = _rel(Js_n, gen_p.Js)
    if "textbook" in routes:
        A = fields_bridge.vector_potential(B.pop())
        Jo_t, Js_t = observables.textbook_split(E, A)
        del E, A
        report["routes"]["textbook"] = {"Jo": _vec3(Jo_t), "Js": _vec3(Js_t)}
        report["deltas"]["Js_textbook_vs_photon"] = _rel(Js_t, gen_p.Js)
        report["deltas"]["Jo_textbook_vs_photon"] = _rel(Jo_t, gen_p.Jo)
    return report


def _report_lines(report):
    lines = [f"N = {report['n_photons']:.12g}"]
    for route, vals in report["routes"].items():
        lines.append(f"[{route}]")
        for key in ("H", "P", "J", "Jo", "Js", "K"):
            if vals.get(key) is not None:
                v = vals[key]
                if isinstance(v, list):
                    lines.append(f"  {key} = [{', '.join(f'{x:+.9e}' for x in v)}]")
                else:
                    lines.append(f"  {key} = {v:+.9e}")
    if report["deltas"]:
        lines.append("[route deltas]")
        for k, v in sorted(report["deltas"].items()):
            lines.append(f"  {k} = {v:.3e}")
    return lines


def cmd_observables(args):
    routes = tuple(r.strip() for r in args.routes.split(",")) if args.routes else ("photon", "field", "darwin", "textbook")
    for r in routes:
        if r not in ROUTES:
            raise ValueError(f"unknown route {r!r}; choose from {ROUTES}")
    loaded = list(_load_state(args, STATE_KINDS))
    manifest = loaded.pop()
    report = build_report(loaded.pop(), routes, manifest)     # holds no reference of its own to the state
    _emit(report, args.json, _report_lines(report))
    return 0


def cmd_split(args):
    wf, manifest = _load_state(args, STATE_KINDS)
    report = build_report(wf, ("photon",), manifest)
    vals = report["routes"]["photon"]
    payload = {"Jo": vals["Jo"], "Js": vals["Js"], "J": vals["J"],
               "n_photons": report["n_photons"], "provenance": report.get("provenance")}
    lines = [
        f"Jo = [{', '.join(f'{x:+.9e}' for x in vals['Jo'])}]",
        f"Js = [{', '.join(f'{x:+.9e}' for x in vals['Js'])}]",
        f"J  = [{', '.join(f'{x:+.9e}' for x in vals['J'])}]",
        f"N  = {report['n_photons']:.12g}",
    ]
    _emit(payload, args.json, lines)
    return 0


# ---------------------------------------------------------------------------
# synthesize / analyze / potential

def cmd_synthesize(args):
    loaded = list(_load_state(args, ("wavefunction",)))
    manifest = loaded.pop()
    rs = fields_bridge.synthesize(loaded.pop(), args.t)      # the state is freed once its E(k) exists
    man = fileio.write_rs_field(args.output, rs, provenance=manifest.get("provenance"))
    _emit({"written": args.output, "manifest": man}, args.json,
          [f"wrote {args.output} (rs_field at t={rs.time})"])
    return 0


def cmd_analyze(args):
    wf, manifest = _load_state(args, ("rs_field",))
    man = fileio.write_wavefunction(args.output, wf, provenance=manifest.get("provenance"))
    _emit({"written": args.output, "manifest": man}, args.json,
          [f"wrote {args.output} (wavefunction)"])
    return 0


def cmd_potential(args):
    obj, manifest = fileio.read(args.file)
    if isinstance(obj, fields_bridge.RSField):
        B = [fields_bridge.magnetic_field(obj)]
    elif isinstance(obj, fields_bridge.RealVectorField) and obj.role == "B":
        B = [obj]
    else:
        raise ValueError(f"{args.file}: potential needs an rs_field or a B real_field file")
    # B is a copy, so F goes now; B, held in a list only, goes to `vector_potential` as a temporary
    obj = None
    A = fields_bridge.vector_potential(B.pop())
    man = fileio.write_real_field(args.output, A, provenance=manifest.get("provenance"))
    _emit({"written": args.output, "manifest": man}, args.json,
          [f"wrote {args.output} (real_field A, transverse gauge)"])
    return 0


# ---------------------------------------------------------------------------
# check

def _algebra_state(grid, basis):
    """Canonical smooth test state: off-axis, off-origin, sub-Nyquist.

    Fixed physical parameters, resolvable from ALGEBRA_MIN_GRID^3 up (two
    cells per width at dx = 1), so two-grid residual ratios probe the same
    state.
    """
    return beams.gaussian_vortex(
        grid, basis,
        center=(1.45, 0.35, 1.15), widths=ALGEBRA_STATE_WIDTH, m=0,
        helicity=(1.0, 0.6), r_offset=(0.4, -0.7, 0.2),
    )


def _algebra_working_set():
    """Complex fine-grid arrays `check algebra` peaks at: ALGEBRA_WORKING_SET_ARRAYS and one a worker running a relation."""
    return ALGEBRA_WORKING_SET_ARRAYS + min(_thread_count(), len(algebra_checks.DEFAULT_SUITE) + 1)


def check_algebra(grids):
    """Run the suite on a coarse and a fine cubic grid; every relation compares the two."""
    if len(grids) != 2 or not grids[0] < grids[1]:
        raise ValueError(f"check algebra compares two grid sizes N1 < N2 (or one N, meaning N,2N); "
                         f"got {','.join(map(str, grids))}")
    if grids[0] < ALGEBRA_MIN_GRID:
        raise ValueError(f"check algebra needs N1 >= {ALGEBRA_MIN_GRID}, so that two k steps 2 pi / N fit in "
                         f"the {ALGEBRA_STATE_WIDTH} width of its test state (grid step 1); got N1 = {grids[0]}")
    _refuse_beyond_memory((max(grids),) * 3, _algebra_working_set())
    rows = []
    per_grid = {}
    for n in grids:
        grid = make_grid((n, n, n))
        basis = polarization.build_basis(grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryDecayWarning)
            per_grid[n] = algebra_checks.run_suite(_algebra_state(grid, basis))

    coarse, fine = grids
    ok = True
    for rc, rf in zip(per_grid[coarse], per_grid[fine]):
        if rc.exact:
            threshold = 1e-12
            passed = rc.residual <= threshold and rf.residual <= threshold
            ratio = None
        else:
            threshold = 3.0
            ratio = rc.residual / rf.residual if rf.residual > 0 else np.inf
            passed = ratio >= threshold
        ok &= passed
        rows.append({
            "relation": rc.pair, "expected": rc.expected,
            "grid_coarse": coarse, "residual_coarse": rc.residual,
            "grid_fine": fine, "residual_fine": rf.residual,
            "ratio": ratio, "exact": rc.exact,
            "threshold": threshold, "pass": bool(passed),
        })
    return {"relations": rows, "grids": list(grids), "pass": bool(ok)}


def check_polarization(n):
    grid = make_grid((n, n, n))
    basis = polarization.chart_basis(grid)
    res = polarization.identity_residuals(basis)
    loop, expected, err = polarization.berry_loop(basis, (0.8, 0.6, 1.1), max(1, round(0.4 / grid.dk[0])))
    tol = 1e-12         # the Wilson loop, like the identities, is exact to rounding
    rows = [{"identity": k, "residual": v, "threshold": tol, "pass": bool(v <= tol)}
            for k, v in [*sorted(res.items()), ("berry_loop_vs_solid_angle", err)]]
    return {"identities": rows, "berry_loop": {"loop": loop, "expected": expected, "abs_error": err},
            "grid": n, "pass": all(r["pass"] for r in rows)}


def check_greens(n):
    grid = make_grid((n, n, n))
    rep = fields_bridge.greens_function_check(grid)
    rep["threshold"] = 0.02
    rep["pass"] = bool(rep["max_rel_mismatch"] <= 0.02)
    return rep


def _write_csv(path, header, rows):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for r in rows:
        w.writerow(r)
    text = buf.getvalue()
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text


def cmd_check(args):
    sizes = tuple(int(v) for v in (args.grid or CHECK_SIZES[args.suite]).split(","))
    if args.suite != "algebra" and len(sizes) != 1:
        raise ValueError(f"check {args.suite} runs on one grid size N; got {args.grid}")
    if args.suite == "algebra":
        rep = check_algebra(sizes if len(sizes) > 1 else (sizes[0], 2 * sizes[0]))
        header = ["relation", "expected", "grid_coarse", "residual_coarse",
                  "grid_fine", "residual_fine", "ratio", "threshold", "pass"]
        rows = [[r["relation"], r["expected"], r["grid_coarse"], f"{r['residual_coarse']:.6e}",
                 r["grid_fine"], f"{r['residual_fine']:.6e}",
                 "" if r["ratio"] is None else f"{r['ratio']:.3f}", r["threshold"], r["pass"]]
                for r in rep["relations"]]
    elif args.suite == "polarization":
        rep = check_polarization(*sizes)
        header = ["identity", "residual", "threshold", "pass"]
        rows = [[r["identity"], f"{r['residual']:.6e}", f"{r['threshold']:.3e}", r["pass"]]
                for r in rep["identities"]]
    elif args.suite == "greens":
        rep = check_greens(*sizes)
        header = ["kind", "cells", "r", "value", "reference", "rel_mismatch"]
        rows = [[s["kind"], s["cells"], f"{s['r']:.6g}", f"{s['value']:.8e}",
                 f"{s['reference']:.8e}", f"{s['rel_mismatch']:.4e}"] for s in rep["samples"]]
    else:
        raise ValueError(f"unknown check suite {args.suite!r}")

    text = _write_csv(args.csv, header, rows)
    if args.json:
        print(json.dumps(rep, sort_keys=True, indent=1, default=lambda o: o.tolist()))
    else:
        print(text, end="")
        print(f"pass: {rep['pass']}")
    return 0 if rep["pass"] else 1


# ---------------------------------------------------------------------------
# plotdata

def cmd_plotdata(args):
    rows = []
    if args.series == "bessel":
        header = ["sigma", "ratio", "analytic", "abs_error"]
        for path in args.files:
            with open(path) as fh:
                rep = json.load(fh)
            prov = rep.get("provenance") or {}
            photon = rep["routes"]["photon"]
            ratio = photon["Jo"][2] / photon["Js"][2]
            analytic = prov.get("ratio_analytic")      # null (an empty cell) where undefined
            rows.append([prov.get("sigma_perp"), ratio, analytic,
                         None if analytic is None else abs(ratio - analytic)])
        rows.sort(key=lambda r: (r[0] is None, r[0]))
    elif args.series == "algebra":
        header = ["dk", "relation", "residual"]
        for path in args.files:
            with open(path) as fh:
                rep = json.load(fh)
            for rel in rep["relations"]:
                for which, grid_key in (("residual_coarse", "grid_coarse"), ("residual_fine", "grid_fine")):
                    dk = 2.0 * np.pi / rel[grid_key]
                    rows.append([dk, rel["relation"], rel[which]])
        rows.sort(key=lambda r: (r[1], -r[0]))
    else:
        raise ValueError(f"unknown plotdata series {args.series!r}")
    text = _write_csv(args.output, header, rows)
    if not args.output:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser():
    p = argparse.ArgumentParser(prog="photonam", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    beam = sub.add_parser("beam", help="construct a benchmark state and write it to a file")
    beam_sub = beam.add_subparsers(dest="family", required=True)
    for fam in ("bessel", "gaussian"):
        bp = beam_sub.add_parser(fam)
        bp.add_argument("--grid", default="96", help="N or Nx,Ny,Nz")
        bp.add_argument("--dx", type=float, default=1.0)
        bp.add_argument("--chart-axis")
        bp.add_argument("--photons", type=float, default=1.0)
        bp.add_argument("--helicity", type=lambda s: {"L": 1, "R": -1}.get(s.upper()) or int(s), default=1)
        bp.add_argument("--json", action="store_true")
        bp.add_argument("-o", "--output", required=True)
        if fam == "bessel":
            bp.add_argument("--m", type=int, required=True)
            bp.add_argument("--kz-over-k", type=float, default=0.8, dest="kz_over_k")
            bp.add_argument("--k0", type=float, default=None, help="total wavenumber (default 0.62 Nyquist)")
            bp.add_argument("--sigma-perp", type=float, default=None, dest="sigma_perp",
                            help="regularization width in grid steps (default 3)")
            bp.add_argument("--sigma-z", type=float, default=None, dest="sigma_z")
        else:
            bp.add_argument("--m", type=int, default=0)
            bp.add_argument("--center", default=None,
                            help="kx,ky,kz (default diagonal at 1/3 Nyquist, or 1.45 widths if that nears the x axis)")
            bp.add_argument("--sigma", default=None, help="width in grid steps (default 2.5)")
        bp.set_defaults(func=cmd_beam)

    obs = sub.add_parser("observables", help="compute every applicable route and report")
    obs.add_argument("file")
    obs.add_argument("--routes", default=None, help=f"comma list from {ROUTES}")
    obs.add_argument("--chart-axis")
    obs.add_argument("--json", action="store_true")
    obs.set_defaults(func=cmd_observables)

    spl = sub.add_parser("split", help="orbital/spin split in the photon picture")
    spl.add_argument("file")
    spl.add_argument("--chart-axis")
    spl.add_argument("--json", action="store_true")
    spl.set_defaults(func=cmd_split)

    syn = sub.add_parser("synthesize", help="wavefunction file -> rs_field file")
    syn.add_argument("file")
    syn.add_argument("--t", type=float, default=0.0)
    syn.add_argument("--json", action="store_true")
    syn.add_argument("-o", "--output", required=True)
    syn.set_defaults(func=cmd_synthesize)

    ana = sub.add_parser("analyze", help="rs_field file -> wavefunction file")
    ana.add_argument("file")
    ana.add_argument("--chart-axis")
    ana.add_argument("--json", action="store_true")
    ana.add_argument("-o", "--output", required=True)
    ana.set_defaults(func=cmd_analyze)

    pot = sub.add_parser("potential", help="rs_field or B file -> transverse-gauge A file")
    pot.add_argument("file")
    pot.add_argument("--json", action="store_true")
    pot.add_argument("-o", "--output", required=True)
    pot.set_defaults(func=cmd_potential)

    chk = sub.add_parser("check", help="residual suites: algebra, polarization, greens")
    chk.add_argument("suite", choices=("algebra", "polarization", "greens"))
    chk.add_argument("--grid", default=None,
                     help="N, or N1,N2 for algebra (N alone: N,2N); default "
                          + ", ".join(f"{suite} {n}" for suite, n in CHECK_SIZES.items()))
    chk.add_argument("--csv", default=None, help="also write the table to this CSV file")
    chk.add_argument("--json", action="store_true")
    chk.set_defaults(func=cmd_check)

    plo = sub.add_parser("plotdata", help="tidy CSV series from report JSON files")
    plo.add_argument("series", choices=("bessel", "algebra"))
    plo.add_argument("files", nargs="*")
    plo.add_argument("-o", "--output", default=None)
    plo.set_defaults(func=cmd_plotdata)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
