"""Benchmark harness for schur-harmonics.

Run from the repository root:

    python3 perfbench/run.py --workload norm-search --seed 1 --seconds 20 --trace 0

The workload's inputs are made from ``--seed``.  One client calls the ops of
the workload's fixed batch (a "pass") in a closed loop, whole passes at a
time.  The number of passes depends only on the workload and ``--seconds``:
it is sized so that the passes take about ``--seconds`` on the machine the
benchmark was sized on.  Every result is checked; an op or a probe that
raises or fails its check is counted as failed and the run goes on.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
passes for half the time and traced passes for the other half, prints the
per-layer metrics from the traced passes (counts are per pass) and the
traced/untraced time ratio minus one as ``trace_overhead_frac``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON report with the environment, failures and details.  The package
runs at its defaults: no thread knob and no BLAS setting is touched.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# norm-search is run by hand only; BENCHMARK.json leaves it out.  At its
# defaults the search hands the interpreter lock between two threads, so its
# wall times follow the load on the host's other cores: medians of two sets of
# ten runs 25 minutes apart moved by 26 % (README.md).
WORKLOADS = ("norm-search", "spectral-kernel", "chamber-geometry", "cli-session")
SETUP_REPEATS = 5
IMPORT_PROBES = 30  # every workload, for setup_s
COLD_STARTS = 30  # cli-session only
# Probe times are summarised by their mean without the fastest and slowest
# tenth: over ten seeds it moved less than their median (0.06-0.17 against
# 0.10-0.24, IQR/median) and it ignores a stray probe the host stalled.
PROBE_TRIM = 0.1
TAIL_BEYOND = 10
# Seconds one pass takes on the machine the benchmark was sized on (2 shared
# vCPUs; median over 30-40 runs).  A run makes round(seconds / PASS_SECONDS)
# passes whatever the commit, so each op's fastest repeat is taken over the
# same number of repeats on every commit.
PASS_SECONDS = {"norm-search": 6.7, "spectral-kernel": 4.8, "chamber-geometry": 0.63,
                "cli-session": 2.2}
# A pass loop stops early once its passes have taken this many times
# --seconds, so that a much slower commit still ends within its time limit.
OVERRUN_FACTOR = 6
IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, schur_harmonics; "
                "print(time.perf_counter() - t)")
COLD_START_ARGV = ["-m", "schur_harmonics.cli", "solve", "st", "--beta", "2", "--gamma", "1"]

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("kernel_rel_dev_max", "ratio"),
    ("chamber_err_max", "rad"),
    ("cold_start_ms", "ms"),
]

# Resolution floors of the accuracy metrics.  On every seed the seed code
# reads 1e-15..4e-15 (kernel, exact quadrature) and 1.4e-10..2.6e-10
# (KAK at a1 <= 8): rounding noise that moves from seed to seed.  The floors
# sit above that noise and far below the criterion tolerances (0.5 % and
# 1e-6), so a real loss of accuracy still shows.  A workload that makes no
# such comparison reports the floor.
KERNEL_DEV_FLOOR = 1e-12
CHAMBER_ERR_FLOOR = 1e-9

PER_LAYER = (
    [("schatten.ms_norm_lower.calls", "count"), ("schatten.ms_norm_lower.self_s", "s"),
     ("schatten.cb_lower_bound.self_s", "s"),
     ("schatten.svd.calls", "count"), ("schatten.svd.matrices", "count"), ("schatten.svd.self_s", "s"),
     ("schatten.schatten_norm.self_s", "s"),
     ("gelfand.kernel_schatten_norm.calls", "count"), ("gelfand.kernel_schatten_norm.self_s", "s"),
     ("gelfand.kernel.dense_n_max", "count"), ("gelfand.kernel.bytes_computed", "bytes")]
    + [(f"gelfand.{f}.self_s", "s") for f in
       ("coefficients_u2", "coefficients_su2", "synthesize", "k_average", "phi_eval")]
    + [("special_fn.jacobi_all.calls", "count"), ("special_fn.jacobi_all.self_s", "s"),
       ("special_fn.hoelder_bound_check.calls", "count"), ("special_fn.hoelder_bound_check.self_s", "s"),
       ("symplectic.kak_decompose.calls", "count"), ("symplectic.kak_decompose.self_s", "s"),
       ("symplectic.kak_decompose.failed", "count")]
    + [(f"coset_geometry.{f}.{k}", u) for f in ("solve_st", "solve_bg", "solve_hyperbola", "solve_circle")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"decay.{f}.{k}", u) for f in ("chain_constants", "norm_certificate")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("cli.main.calls", "count"), ("cli.main.self_s", "s"), ("cli.build_parser.self_s", "s"),
       ("trace_overhead_frac", "ratio")]
)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        "cpu_count": os.cpu_count(),
        "schur_harmonics_threads_set": "SCHUR_HARMONICS_THREADS" in os.environ,
        "git_commit": _git_commit(),
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, read without changing it."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------


class Tally:
    """Latencies, failures and accuracy figures of a set of passes."""

    def __init__(self, quality):
        self.latencies: list = []
        self.kinds: list = []
        self.pass_seconds: list = []
        self.attempted = 0
        self.errors = 0
        self.wrong = 0
        self.reasons: dict = {}
        self.quality = quality

    def fail(self, kind: str, reason: str) -> None:
        slot = self.reasons.setdefault(kind, {"count": 0, "first": reason})
        slot["count"] += 1


def run_pass(ops, tally: Tally, tracer) -> None:
    busy = 0.0
    for i, op in enumerate(ops):
        tracer.op = i
        t0 = time.perf_counter()
        try:
            res = op.call(tracer)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            dt = time.perf_counter() - t0
            tally.errors += 1
            tally.fail(op.kind, f"{type(exc).__name__}: {exc}")
        else:
            dt = time.perf_counter() - t0
            reason = op.check(res, tally.quality)
            if reason is not None:
                tally.wrong += 1
                tally.fail(op.kind, reason)
        busy += dt
        tally.latencies.append(dt)
        tally.kinds.append(op.kind)
        tally.attempted += 1
    tally.pass_seconds.append(busy)


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


def run_passes(ops, passes: int, limit_s: float, tally: Tally, make_tracer=None,
               between=None) -> list:
    """``passes`` whole passes; fewer only if they take more than ``limit_s``.

    ``between(done)`` runs after each pass that is not the last, outside the
    pass time, with the number of passes done.  Returns the tracers of
    traced passes.
    """
    from spans import NullTracer

    tracers = []
    busy = 0.0
    for done in range(1, passes + 1):
        t0 = time.perf_counter()
        if make_tracer is None:
            run_pass(ops, tally, NullTracer())
        else:
            with make_tracer() as tr:
                run_pass(ops, tally, tr)
            tracers.append(tr)
        busy += time.perf_counter() - t0
        if done == passes or busy >= limit_s:
            break
        if between is not None:
            between(done)
    return tracers


def slot_latencies(tally: Tally, ops: list):
    """Latency of each op slot of one pass: the fastest repeat of that op
    over the run (an op may occur several times in a pass).

    The benchmark shares a 2-vCPU machine with other tenants.  Their load
    slows pure-Python code by up to 2x for stretches of seconds to minutes,
    so a median over repeats moves by 25-30 % from run to run, while the
    fastest repeat of each op moves by 6-7 % (chamber-geometry, 4 seeds).
    The number of repeats is fixed by ``pass_count``, so a faster commit
    does not get more chances at a fast repeat.
    """
    import numpy as np

    best: dict = {}
    for i, dt in enumerate(tally.latencies):
        key = id(ops[i % len(ops)])
        if dt < best.get(key, math.inf):
            best[key] = dt
    return np.array([best[id(op)] for op in ops])


def tail_percentile(ops_per_pass: int) -> float:
    """Highest percentile with at least TAIL_BEYOND ops of one pass beyond
    it.  It depends on the batch only, so it is the same on every run."""
    q = 100.0 * (1.0 - TAIL_BEYOND / ops_per_pass)
    return max(50.0, min(99.9, int(q * 10) / 10.0))


def by_kind(tally: Tally) -> dict:
    """Per op kind: count, median latency and total seconds."""
    groups: dict = {}
    for kind, dt in zip(tally.kinds, tally.latencies):
        groups.setdefault(kind, []).append(dt)
    return {k: {"n": len(v), "p50_ms": statistics.median(v) * 1e3, "total_s": sum(v)}
            for k, v in sorted(groups.items())}


class Probes:
    """Fresh-interpreter probes, spread over the run between passes.

    Kinds: ``import`` (numpy and the package, timed inside the child) and
    ``cold-start`` (wall time of ``python -m schur_harmonics.cli solve st``,
    output checked against the in-process result).  A probe that exits
    non-zero or prints something wrong is counted as failed; its time is
    kept apart and used only if no probe of its kind succeeded.  A kind's
    time is the mean of its probes without the fastest and slowest tenth.
    """

    def __init__(self, want: dict):
        self.want = want
        self.ok = {k: [] for k in want}
        self.bad = {k: [] for k in want}
        self.tally = Tally(None)

    def run(self, kind: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        args = ["-c", IMPORT_PROBE] if kind == "import" else COLD_START_ARGV
        self.tally.attempted += 1
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            proc = None
        wall = time.perf_counter() - t0
        if proc is None or proc.returncode != 0:
            self.tally.errors += 1
            why = "timed out" if proc is None else f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
            self.tally.fail("probe." + kind, why)
            self.bad[kind].append(wall)
            return
        value, reason = self._read(kind, proc.stdout, wall)
        if reason is not None:
            self.tally.wrong += 1
            self.tally.fail("probe." + kind, reason)
            self.bad[kind].append(wall)
        else:
            self.ok[kind].append(value)

    @staticmethod
    def _read(kind: str, stdout: str, wall: float) -> tuple:
        try:
            if kind == "import":
                return float(stdout), None
            from schur_harmonics import coset_geometry

            got = json.loads(stdout)
            if (got["s"], got["t"]) != coset_geometry.solve_st(2.0, 1.0):
                return None, "output differs from the in-process result"
            return wall, None
        except (ValueError, KeyError, TypeError) as exc:
            return None, f"unreadable output: {type(exc).__name__}: {exc}"

    def catch_up(self, share: float) -> None:
        """Run probes, alternating kinds, until each kind has done ``share``
        of its count."""
        behind = True
        while behind:
            behind = False
            for kind, n in self.want.items():
                if len(self.ok[kind]) + len(self.bad[kind]) < round(n * share):
                    self.run(kind)
                    behind = True

    def seconds(self, kind: str) -> float:
        runs = sorted(self.ok[kind] or self.bad[kind])
        cut = int(len(runs) * PROBE_TRIM)
        return statistics.fmean(runs[cut:len(runs) - cut])


def setup(name: str, seed: int, size: str):
    """Build the workload and run its warm-up ops (checked); seconds taken."""
    import workloads
    from spans import NullTracer

    t0 = time.perf_counter()
    wl = workloads.WORKLOADS[name](seed, size, ROOT)
    warm = Tally(workloads.Quality())
    run_pass(wl.warmup, warm, NullTracer())
    return wl, time.perf_counter() - t0, warm


def end_to_end(args, wl, setup_info: dict) -> tuple:
    import numpy as np

    import workloads

    n_ops = len(wl.ops)
    tally = Tally(workloads.Quality())
    # Probes alternate with the passes, so that the host's load at one
    # moment of the run weighs no more on them than on the ops.
    want = {"import": IMPORT_PROBES}
    if args.workload == "cli-session":
        want["cold-start"] = COLD_STARTS
    probes = Probes(want)
    passes = pass_count(args.workload, args.seconds)
    run_passes(wl.ops, passes, OVERRUN_FACTOR * args.seconds, tally,
               between=lambda done: probes.catch_up(done / passes))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes.catch_up(1.0)
    lat_ms = slot_latencies(tally, wl.ops) * 1e3
    q = tail_percentile(n_ops)
    quality = tally.quality
    attempted = tally.attempted + probes.tally.attempted
    failed = tally.errors + tally.wrong + probes.tally.errors + probes.tally.wrong
    # cold_start_ms is the fresh `solve st` of cli-session.  The other
    # workloads start no such process and report their import probes, the
    # bulk of a cold start, so that they launch no extra interpreters.
    cold_kind = "cold-start" if "cold-start" in want else "import"
    metrics = {
        "setup_s": probes.seconds("import") + statistics.median(setup_info["setup_runs_s"]),
        "ops_per_s": n_ops / (float(lat_ms.sum()) / 1e3),
        "op_p50_ms": float(np.median(lat_ms)),
        "op_tail_ms": float(np.percentile(lat_ms, q)),
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": peak_rss_mb,
        "kernel_rel_dev_max": max(KERNEL_DEV_FLOOR, quality.kernel_rel_dev_max or 0.0),
        "chamber_err_max": max(CHAMBER_ERR_FLOOR, quality.chamber_err_max or 0.0),
        "cold_start_ms": probes.seconds(cold_kind) * 1e3,
    }
    report = {
        "passes": len(tally.pass_seconds),
        "pass_seconds": tally.pass_seconds,
        "ops_per_pass": n_ops,
        "failed_frac": failed / attempted,
        "raised": tally.errors + probes.tally.errors,
        "wrong": tally.wrong + probes.tally.wrong,
        "failures": {**tally.reasons, **probes.tally.reasons},
        "warmup_failures": setup_info["warm"].reasons,
        "by_kind": by_kind(tally),
        "op_tail": {"percentile": q, "samples": n_ops, "beyond": int(n_ops * (100 - q) / 100)},
        "cold_start_ms_from": cold_kind,
        "probe_runs_s": probes.ok,
        "failed_probe_runs_s": probes.bad,
        "setup_runs_s": setup_info["setup_runs_s"],
        "raw_quality": {"bound_vs_ref_min": quality.bound_vs_ref_min,
                        "kernel_rel_dev_max": quality.kernel_rel_dev_max,
                        "chamber_err_max": quality.chamber_err_max},
    }
    total = Tally(None)
    total.attempted = attempted
    total.errors = tally.errors + probes.tally.errors
    total.wrong = tally.wrong + probes.tally.wrong
    return total, {k: (metrics[k], u) for k, u in END_TO_END}, report


def per_layer(args, wl) -> tuple:
    import workloads
    from spans import Tracer

    half = pass_count(args.workload, args.seconds / 2.0)
    limit_s = OVERRUN_FACTOR * args.seconds / 2.0
    untraced = Tally(workloads.Quality())
    run_passes(wl.ops, half, limit_s, untraced)
    traced = Tally(workloads.Quality())
    tracers = run_passes(wl.ops, half, limit_s, traced,
                         make_tracer=lambda: Tracer(workloads.trace_targets()))
    layers = [tr.summary() for tr in tracers]
    first, counters = layers[0], tracers[0].counters
    values = {}
    for name, unit in PER_LAYER:
        if name == "trace_overhead_frac":
            values[name] = (slot_latencies(traced, wl.ops).sum()
                            / slot_latencies(untraced, wl.ops).sum() - 1.0)
        elif name.startswith("gelfand.kernel.") or name.endswith(".matrices"):
            values[name] = counters.get(name, 0)
        else:
            span, field = name.rsplit(".", 1)
            if field == "self_s":
                values[name] = statistics.median(s.get(span, {}).get("self_s", 0.0) for s in layers)
            else:
                values[name] = first.get(span, {}).get(field, 0)
    counts_repeat = all(
        {k: (v["calls"], v["failed"]) for k, v in s.items()}
        == {k: (v["calls"], v["failed"]) for k, v in first.items()}
        for s in layers
    )
    report = {
        "untraced_passes": len(untraced.pass_seconds),
        "traced_passes": len(traced.pass_seconds),
        "counts_repeat_across_passes": counts_repeat,
        "spans_per_pass": sum(v["calls"] for v in first.values()),
        "layers": first,
        "counters": counters,
        "failures": traced.reasons,
    }
    tally = Tally(None)
    tally.attempted = untraced.attempted + traced.attempted
    tally.errors = untraced.errors + traced.errors
    tally.wrong = untraced.wrong + traced.wrong
    return tally, {k: (float(values[k]) if k.endswith(("_s", "_frac")) else int(values[k]), u)
                   for k, u in PER_LAYER}, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few ops per pass, for the harness self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "schur_harmonics" / "__init__.py").is_file():
        sys.stderr.write(f"no package source under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy  # noqa: F401

    import schur_harmonics  # noqa: F401

    info = {"import_in_process_s": time.perf_counter() - T_START, "setup_runs_s": []}
    wl = None
    try:
        for _ in range(SETUP_REPEATS):
            if wl is not None:
                wl.close()
            wl, dt, info["warm"] = setup(args.workload, args.seed, args.size)
            info["setup_runs_s"].append(dt)
        if args.trace:
            tally, metrics, report = per_layer(args, wl)
        else:
            tally, metrics, report = end_to_end(args, wl, info)
            report["import_in_process_s"] = info["import_in_process_s"]
    finally:
        if wl is not None:
            wl.close()

    head = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "env": environment(), **report}
    print(json.dumps({"report": head}, default=str))
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.errors + tally.wrong,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
