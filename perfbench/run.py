"""Benchmark of the photonam command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is taken from ``src/``).
Each command of a workload runs in a fresh ``python -m photonam.cli``
process, one after another, from this one parent process: a closed loop
with one client.  Every child gets THREADS=2 and BLAS/OpenMP threads pinned
to 2 (the benchmark machine has 2 cores).

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json:
set-up time, then passes through the workload's commands: one, and more
while the next one is expected to end within ``--seconds``.  ``--trace 1``
prints the per-layer metrics: one untraced pass, then one pass whose
children run under ``tracer.py``.
Both modes check the outputs against the correctness gates; an operation
(one child process) fails on a non-zero exit, a missing output file or a
gate outside its tolerance.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREADS = 2
THREAD_VARS = ("THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: fresh processes sampled for set-up time; the median is reported
SETUP_SAMPLES = 5
#: a run prints its result well inside 180 s, even when a child hangs
RUN_DEADLINE_S = 165.0

KZ_OVER_K = 0.8      # the CLI default for `beam bessel`
GAUSS_C = math.pi / 3.0   # the CLI default centre component: 1/3 Nyquist at dx = 1

WARNING_LINE = re.compile(r":\d+: (\w+Warning): ")


# ---------------------------------------------------------------------------
# gates

@dataclass
class Gate:
    name: str
    value: float
    limit: float

    @property
    def ok(self):
        return self.value is not None and math.isfinite(self.value) and self.value <= self.limit


@dataclass
class Step:
    """One CLI command of a pass and the checks on what it produced."""

    label: str                      # metric name: cli.<label>.wall_s
    argv: list
    outputs: tuple = ()             # files the command must leave behind
    check: object = None            # check(stdout_text, workload_inputs) -> ([Gate], values)


@dataclass
class Outcome:
    step: Step
    rc: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str
    gates: list = field(default_factory=list)
    values: dict = field(default_factory=dict)
    error: str = ""

    @property
    def failed(self):
        return self.rc != 0 or bool(self.error) or not all(g.ok for g in self.gates)


def bessel_ratio(m, helicity):
    """The paper's Jo_z/Js_z = m k / (chi k_z) - 1, written out independently of photonam."""
    return m / (helicity * KZ_OVER_K) - 1.0


def check_observables(stdout, inputs):
    """Route agreement of an `observables --json` report."""
    report = json.loads(stdout)
    deltas = report["deltas"]
    gates = [Gate(key, deltas.get(key), limit) for key, limit in (
        ("H_field_vs_photon", 1e-6), ("P_field_vs_photon", 1e-6),
        ("Js_darwin_vs_photon", 1e-3), ("Js_textbook_vs_photon", 1e-3))]
    values = {"accuracy.K_field_vs_photon": deltas["K_field_vs_photon"]}
    if "m" in inputs:
        jz_per_photon = report["routes"]["field"]["J"][2] / report["n_photons"]
        gates.append(Gate("field_Jz_per_photon_minus_m", abs(jz_per_photon - inputs["m"]), 1e-9))
    if "Js_nonlocal_vs_photon" in deltas:
        values["accuracy.nonlocal_js_err"] = deltas["Js_nonlocal_vs_photon"]
    return gates, values


def check_split(stdout, inputs):
    """The Bessel ratio of a `split --json` report against the closed form."""
    report = json.loads(stdout)
    oracle = bessel_ratio(inputs["m"], inputs["helicity"])
    err = abs(report["Jo"][2] / report["Js"][2] - oracle) / abs(oracle)
    return [Gate("split_ratio_err", err, 1e-2)], {"accuracy.split_ratio_err": err}


def check_suite(stdout, inputs):
    passed = json.loads(stdout)["pass"] is True
    return [Gate("suite_pass", 0.0 if passed else 1.0, 0.0)], {}


def read_container(path):
    """Manifest and (components, *dims) array of a photonam field file.

    The layout is read here, not through photonam, so the gates do not
    trust the reader they check: 8-byte magic, little-endian u64 manifest
    length, JSON manifest, u64 payload length, float64 payload.
    """
    raw = Path(path).read_bytes()
    (mlen,) = struct.unpack("<Q", raw[8:16])
    manifest = json.loads(raw[16:16 + mlen])
    (plen,) = struct.unpack("<Q", raw[16 + mlen:24 + mlen])
    data = np.frombuffer(raw, dtype="<f8", count=plen // 8, offset=24 + mlen)
    if manifest["complex"]:
        data = data[0::2] + 1j * data[1::2]
    return manifest, data.reshape((len(manifest["components"]),) + tuple(manifest["dims"]))


def check_round_trip(beam_path, analyzed_path):
    """max |g_analyzed - g_beam| / max |g_beam| over both helicities."""
    _, g0 = read_container(beam_path)
    _, g1 = read_container(analyzed_path)
    return Gate("analyze_round_trip", float(np.abs(g1 - g0).max() / np.abs(g0).max()), 1e-10)


def check_curl(rs_path, a_path):
    """|| curl A - B || / || B ||, with B = sqrt(2/eps0) Im F / c and a numpy spectral curl."""
    manifest, F = read_container(rs_path)
    _, A = read_container(a_path)
    units = manifest["units"]
    B = math.sqrt(2.0 / units["eps0"]) / units["c"] * F.imag
    k = np.meshgrid(*[2.0 * np.pi * np.fft.fftfreq(n, d) for n, d in zip(manifest["dims"], manifest["spacing"])],
                    indexing="ij", sparse=True)
    Ak = np.fft.fftn(A, axes=(1, 2, 3))
    curl_k = np.stack([k[1] * Ak[2] - k[2] * Ak[1], k[2] * Ak[0] - k[0] * Ak[2], k[0] * Ak[1] - k[1] * Ak[0]])
    curl = np.fft.ifftn(1j * curl_k, axes=(1, 2, 3)).real
    return Gate("curl_A_vs_B", float(np.linalg.norm(curl - B) / np.linalg.norm(B)), 1e-10)


# ---------------------------------------------------------------------------
# workloads

def _center(rng):
    """A Gaussian centre near the CLI default; every choice passes every gate at 24^3.

    Centres with a negative component sit one bin nearer the k-grid edge
    (FFT order holds -Nyquist but not +Nyquist) and at 24^3 make
    `potential`/`observables` refuse B as not divergence-free.
    """
    return ",".join(repr(rng.choice((0.9, 1.0)) * GAUSS_C) for _ in range(3))


def observe_bessel_128(seed, work):
    rng = random.Random(seed)
    inputs = {"m": rng.choice((2, 3, 4)), "helicity": rng.choice((1, -1)), "grid": 128}
    beam = str(work / "beam.pnam")
    steps = [
        Step("beam", ["beam", "bessel", "--grid", "128", "--m", str(inputs["m"]),
                      "--helicity", str(inputs["helicity"]), "-o", beam, "--json"], outputs=(beam,)),
        Step("observables", ["observables", beam, "--json"], check=check_observables),
        Step("split", ["split", beam, "--json"], check=check_split),
    ]
    return inputs, steps, None


def convert_fields_128(seed, work):
    rng = random.Random(seed)
    inputs = {"center": _center(rng), "grid": 128}
    beam, rs, back, pot = (str(work / name) for name in ("beam.pnam", "field.rs", "back.pnam", "a.real"))
    steps = [
        Step("beam", ["beam", "gaussian", "--grid", "128", f"--center={inputs['center']}", "-o", beam, "--json"],
             outputs=(beam,)),
        Step("synthesize", ["synthesize", beam, "-o", rs, "--json"], outputs=(rs,)),
        Step("analyze", ["analyze", rs, "-o", back, "--json"], outputs=(back,)),
        Step("potential", ["potential", rs, "-o", pot, "--json"], outputs=(pot,)),
    ]

    def file_gates(outcomes):
        by_label = {o.step.label: o for o in outcomes}
        if not by_label["analyze"].failed:
            by_label["analyze"].gates.append(check_round_trip(beam, back))
        if not by_label["potential"].failed:
            by_label["potential"].gates.append(check_curl(rs, pot))

    return inputs, steps, file_gates


def verify_small(seed, work):
    rng = random.Random(seed)
    inputs = {"center": _center(rng), "grid": 96}
    beam = str(work / "small.pnam")
    steps = [
        Step("check_algebra", ["check", "algebra", "--grid", "48,96", "--json"], check=check_suite),
        Step("check_polarization", ["check", "polarization", "--json"], check=check_suite),
        Step("check_greens", ["check", "greens", "--json"], check=check_suite),
        Step("beam", ["beam", "gaussian", "--grid", "24", f"--center={inputs['center']}", "-o", beam, "--json"],
             outputs=(beam,)),
        Step("observables", ["observables", beam, "--routes", "photon,field,darwin,textbook,nonlocal", "--json"],
             check=check_observables),
    ]
    return inputs, steps, None


SETUP_STEP = Step("setup", ["(import photonam; make_grid; build_basis)"])

WORKLOADS = {f.__name__: f for f in (observe_bessel_128, convert_fields_128, verify_small)}


# ---------------------------------------------------------------------------
# running children

def child_env(threads=THREADS):
    env = dict(os.environ)
    env.update({var: str(threads) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


class Runner:
    """Starts children one at a time, times them and reads their rusage."""

    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline
        self.count = 0

    def spawn(self, argv, env):
        """Run argv to completion; return (rc, wall_s, maxrss_mb, stdout, stderr)."""
        self.count += 1
        out_path = self.work / f"child{self.count}.out"
        err_path = self.work / f"child{self.count}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(errors="replace")
        stderr = err_path.read_text(errors="replace")
        out_path.unlink()
        err_path.unlink()
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout, stderr

    def run_step(self, step, inputs, traced_to=None, threads=THREADS):
        if traced_to is None:
            argv = [sys.executable, "-m", "photonam.cli"] + step.argv
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(traced_to)] + step.argv
        for path in step.outputs:
            Path(path).unlink(missing_ok=True)
        rc, wall, rss, stdout, stderr = self.spawn(argv, child_env(threads))
        outcome = Outcome(step, rc, wall, rss, stdout, stderr)
        missing = [p for p in step.outputs if not Path(p).is_file()]
        if missing:
            outcome.error = f"missing output {missing}"
        elif rc == 0 and step.check is not None:
            try:
                outcome.gates, outcome.values = step.check(stdout, inputs)
            except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
                outcome.error = f"unreadable output: {exc!r}"
        return outcome

    def run_pass(self, inputs, steps, file_gates, trace_dir=None):
        outcomes = []
        start = time.perf_counter()
        for i, step in enumerate(steps):
            traced_to = None if trace_dir is None else trace_dir / f"spans{i}.json"
            outcomes.append(self.run_step(step, inputs, traced_to))
        wall = time.perf_counter() - start
        if file_gates is not None:
            try:
                file_gates(outcomes)
            except (ValueError, KeyError, OSError) as exc:
                outcomes[-1].error = f"file gate: {exc!r}"
        return wall, outcomes

    def setup_sample(self, grid):
        """A fresh process imports photonam and builds the grid and basis."""
        code = ("import sys, photonam; n = int(sys.argv[1]); "
                "photonam.build_basis(photonam.make_grid((n, n, n)), (1.0, 0.0, 0.0))")
        return Outcome(SETUP_STEP, *self.spawn([sys.executable, "-c", code, str(grid)], child_env()))


class Tally:
    """Operations (child processes) attempted and failed, and the latest gate values."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.failures = []
        self.gates = {}
        self.values = {}

    def add(self, outcomes):
        for o in outcomes:
            self.attempted += 1
            self.gates.update({f"{o.step.label}.{g.name}": g for g in o.gates})
            self.values.update(o.values)
            if o.failed:
                self.failed += 1
                bad = " ".join(f"{g.name}={g.value!r} > {g.limit!r}" for g in o.gates if not g.ok)
                self.failures.append(f"{o.step.label}: rc={o.rc} {o.error} {bad} {o.stderr[-300:]}")

    @property
    def failed_ratio(self):
        return self.failed / self.attempted


# ---------------------------------------------------------------------------
# metrics

def warning_counts(stderr, categories):
    counts = dict.fromkeys(categories, 0)
    for name in WARNING_LINE.findall(stderr):
        key = name if name in counts else "other"
        counts[key] += 1
    return counts


def end_to_end(setup_walls, passes):
    walls = [wall for wall, _ in passes]
    rss = [max(o.maxrss_mb for o in outcomes) for _, outcomes in passes]
    return {
        "setup_s": statistics.median(setup_walls),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
    }


def per_layer(names, plain, traced, spans_files, single_thread_algebra_s, values):
    """Per-layer metrics from one untraced and one traced pass, plus the gate `values`."""
    plain_wall, plain_outcomes = plain
    traced_wall, _ = traced
    dumps = [json.loads(p.read_text()) for p in spans_files if p.is_file()]
    spans, busy = [], []
    for d, dump in enumerate(dumps):
        # span ids restart in every traced process
        for s in dump["spans"]:
            s["id"] = (d, s["id"])
            s["parent"] = None if s["parent"] is None else (d, s["parent"])
        spans += dump["spans"]
        if dump["pools"]:
            busy.append(tracer.pool_busy_share(dump["spans"], dump["pools"], dump["main_thread"]))
    stats = tracer.summarize(spans)
    import_s = [dump["import_s"] for dump in dumps]

    step_walls, stderr = {}, ""
    for o in plain_outcomes:
        step_walls[o.step.label] = step_walls.get(o.step.label, 0.0) + o.wall_s
        stderr += o.stderr
    categories = [n.split(".", 2)[2] for n in names if n.startswith("cli.warnings.")]
    warned = warning_counts(stderr, categories)

    out = {}
    for name in names:
        if name in values:
            out[name] = values[name]
        elif name.startswith("accuracy."):
            out[name] = 0.0
        elif name == "trace.overhead_ratio":
            out[name] = traced_wall / plain_wall - 1.0
        elif name == "cli.import_s":
            out[name] = statistics.median(import_s) if import_s else 0.0
        elif name.startswith("cli.warnings."):
            out[name] = warned[name.split(".", 2)[2]]
        elif name.startswith("cli."):
            out[name] = step_walls.get(name.split(".")[1], 0.0)
        elif name == "algebra_checks.pool.busy_share":
            out[name] = statistics.median(busy) if busy else 0.0
        elif name == "algebra_checks.pool.speedup":
            out[name] = (single_thread_algebra_s / step_walls["check_algebra"]
                         if single_thread_algebra_s else 0.0)
        else:
            span_name, stat = name.rsplit(".", 1)
            out[name] = stats.get(span_name, {}).get(stat, 0)
    return out


# ---------------------------------------------------------------------------

def declared_metrics(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def describe(name, seed, inputs, steps):
    lines = [f"workload {name}, seed {seed}, inputs {json.dumps(inputs, sort_keys=True)}",
             f"threads: {', '.join(f'{v}={THREADS}' for v in THREAD_VARS)}; cpu_count {os.cpu_count()}"]
    lines += [f"  photonam {' '.join(step.argv)}".replace(f"{ROOT}{os.sep}", "") for step in steps]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running child is killed and the work files removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "photonam" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {SRC}/photonam or {ROOT}/BENCHMARK.json not found; "
              "run from the root of a photonam source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = declared_metrics(spec, args.trace)

    started = time.monotonic()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work, started + RUN_DEADLINE_S)
    try:
        inputs, steps, file_gates = WORKLOADS[args.workload](args.seed, work)
        for line in describe(args.workload, args.seed, inputs, steps):
            print(line)
        tally = Tally()
        if args.trace == 0:
            setup = [runner.setup_sample(inputs["grid"]) for _ in range(SETUP_SAMPLES)]
            tally.add(setup)
            passes = []
            measure_start = time.perf_counter()
            while True:
                passes.append(runner.run_pass(inputs, steps, file_gates))
                tally.add(passes[-1][1])
                typical = statistics.median(w for w, _ in passes)
                if time.perf_counter() - measure_start + typical > args.seconds:
                    break
                if time.monotonic() + 2 * typical > started + RUN_DEADLINE_S:
                    break
            metrics = end_to_end([o.wall_s for o in setup], passes)
            metrics["success_ratio"] = 1.0 - tally.failed_ratio
            print(f"passes: {len(passes)} (wall_s and peak_rss_mb are medians over passes); "
                  f"setup samples: {len(setup)}")
            for name, value in sorted(tally.values.items()):
                print(f"{name} = {value:.6g} ratio (gate value; a per-layer metric in the trace run)")
        else:
            trace_dir = work / "spans"
            trace_dir.mkdir()
            plain = runner.run_pass(inputs, steps, file_gates)
            tally.add(plain[1])
            traced = runner.run_pass(inputs, steps, file_gates, trace_dir=trace_dir)
            tally.add(traced[1])
            single = None
            if args.workload == "verify_small":
                algebra = next(s for s in steps if s.label == "check_algebra")
                one = runner.run_step(algebra, inputs, threads=1)
                tally.add([one])
                single = one.wall_s
            spans_files = [trace_dir / f"spans{i}.json" for i in range(len(steps))]
            metrics = per_layer(list(units), plain, traced, spans_files, single, tally.values)

        missing = set(units) - set(metrics)
        if missing:
            raise RuntimeError(f"metrics declared in BENCHMARK.json but not computed: {sorted(missing)}")
        for name, g in sorted(tally.gates.items()):
            print(f"gate {name} = {g.value:.3e} (limit {g.limit:.0e}, last pass)")
        for line in tally.failures:
            print(f"FAILED {line}")
        print(f"failed_ratio = {tally.failed_ratio:.6g} ({tally.failed} of {tally.attempted} operations)")
        for name in units:
            print(f"{name} = {metrics[name]:.6g} {units[name]}")
        result = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
