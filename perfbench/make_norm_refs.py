"""Record the norm-search pool and its reference values.

Run from the repository root:

    python3 perfbench/make_norm_refs.py

It draws the pool's symbols from a fixed seed, runs each certified search
through the package at the current commit, and writes
``perfbench/norm_refs.json``.  The benchmark checks that every later
certificate for the same (symbol, p, search seed) is at least the recorded
value, and reports the smallest ratio as ``bound_vs_ref_min`` in the run's
report.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from schur_harmonics import schatten  # noqa: E402

POOL_SEED = 20121208
RESTARTS, MAX_ITER = 16, 1200
P_CYCLE = ("4/3", "3", "4", "inf")
# (kind, n, p, m): one symbol per small (n, p) class, two large ones and two
# m = 2 amplifications.  A pass takes about 11 s on 2 vCPUs, so a 20 s run
# makes two passes.
SPEC = (
    [("ms", n, p, 1) for n in range(2, 7) for p in P_CYCLE]
    + [("ms", 12, "4/3", 1), ("ms", 16, "4", 1)]
    + [("cb", 2, "4", 2), ("cb", 3, "inf", 2)]
)


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import norm_entry_call

    rng = np.random.default_rng(POOL_SEED)
    entries = []
    total = 0.0
    for i, (kind, n, p, m) in enumerate(SPEC):
        psi = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        entry = {
            "kind": kind, "n": n, "p": p, "m": m,
            "restarts": RESTARTS, "max_iter": MAX_ITER, "cfg_seed": 1000 + i,
            "re": psi.real.tolist(), "im": psi.imag.tolist(),
        }
        _, _, call = norm_entry_call(entry)
        t0 = time.perf_counter()
        res = call(None)
        dt = time.perf_counter() - t0
        total += dt
        entry["value"] = float(res) if kind == "cb" else res.value
        entries.append(entry)
        print(f"{i:3d} {kind} n={n:2d} p={p:>4} value={entry['value']:.15g} {dt:.3f}s", flush=True)
    out = {
        "about": "norm-search pool; regenerate with: python3 perfbench/make_norm_refs.py",
        "pool_seed": POOL_SEED,
        "numpy": np.__version__,
        "entries": entries,
    }
    path = Path(__file__).resolve().parent / "norm_refs.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.name}: {len(entries)} entries, {total:.1f}s of search")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
