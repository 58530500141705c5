"""Run one workload on several seeds and print each end-to-end metric's spread.

    python3 perfbench/spread.py --workload chamber-geometry --seeds 1-10 --seconds 20

For every metric it prints the median, the quartiles and the spread: the
distance between the first and third quartile (``statistics.quantiles(v,
n=4)``) as a share of the median, next to a third of the metric's bound in
BENCHMARK.json.  Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out", help="also append each result line to this file")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict = {}
    for seed in seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        line = lines[-1]
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed, "result": json.loads(line),
                                     "report": json.loads(lines[-2])["report"]}) + "\n")
        res = json.loads(line)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
              flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        flag = "" if spread <= bounds[k] / 3 else "  <-- above bound/3"
        print(f"{k:20s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}"
              f"  bound/3 {bounds[k] / 3:.4f}{flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
