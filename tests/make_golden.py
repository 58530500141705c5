"""Regenerate the golden CLI outputs that ``tests/test_golden.py`` replays.

    PYTHONPATH=src python tests/make_golden.py

The cases are perfbench's cli-session argvs for input seeds 1-3,
``xcheck --count 8`` for seeds 1-3, ``norm`` searches at the default
``--max-iter`` and ``--tol`` (see ``SEARCH_CASES``), and ``--help`` of the
top level and of each subcommand.  The script writes ``tests/golden/``:

* ``inputs/seed<N>/``: the input files of the cli-session for input seed N;
* ``inputs/sign.json``: the 2x2 sign symbol [[1, 1], [1, -1]];
* ``manifest.json``: the environment the outputs were made in, and per case
  its argv, exit code, output files and what it needs to match (see
  ``needs``);
* ``cases/<name>/``: the case's stdout, stderr and output files, byte for
  byte.

In an argv, ``{inputs}`` stands for ``tests/golden/inputs`` and ``{out}`` for
the empty directory the case writes its files to.  A change that moves
output on purpose reruns this script and commits the diff of
``tests/golden/``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import shutil
import sys
from pathlib import Path
from unittest import mock

from schur_harmonics import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
SEEDS = (1, 2, 3)
# norm searches at the default --max-iter and --tol, one per branch of the
# search: p = 1, 1 < p < inf and p = inf on seed 1's symbol, an amplified
# symbol, and the sign symbol, whose flat start has tied singular values at
# p = inf and so takes the tie bump
SEARCH_CASES = (
    ("search-p1", "seed1/psi.json", ["--p", "1"]),
    ("search-p1.5", "seed1/psi.json", ["--p", "1.5"]),
    ("search-pinf", "seed1/psi.json", ["--p", "inf"]),
    ("search-amplify", "seed1/psi.json", ["--p", "3", "--amplify", "2"]),
    ("search-sign-pinf", "sign.json", ["--p", "inf"]),
)
SUBCOMMANDS = ("norm", "kak", "solve", "coeffs", "holder", "constants", "certify", "xcheck")


def needs(argv: list) -> str | None:
    """What a case's bytes depend on besides the code.

    None for the subcommands that never load numpy, whose output is compared
    everywhere; "python" for help text, which argparse formats differently
    across Python versions; "numpy" for everything that computes with numpy
    and LAPACK.
    """
    if "--help" in argv:
        return "python"
    if argv[0] in ("solve", "constants") or (argv[0] == "certify" and "--c-u2" in argv):
        return None
    return "numpy"


def environment() -> dict:
    """The interpreter, the numpy and BLAS/LAPACK builds, and the SIMD targets numpy dispatches to."""
    import numpy as np
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": f"{deps['blas']['name']} {deps['blas'].get('version')}",
        "lapack": f"{deps['lapack']['name']} {deps['lapack'].get('version')}",
        "simd": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)],
    }


def run(argv: list, inputs: Path, out: Path) -> tuple:
    """Exit code, stdout and stderr of one in-process CLI run, at 80 columns."""
    argv = [a.replace("{inputs}", str(inputs)).replace("{out}", str(out)) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue().encode(), stderr.getvalue().encode()


def _cases(inputs: Path) -> list:
    """(name, argv) for every case; writes the input files under ``inputs``."""
    import numpy as np

    sys.path.insert(0, str(GOLDEN.parent.parent))
    from perfbench import workloads

    cases = []
    for seed in SEEDS:
        seed_dir = inputs / f"seed{seed}"
        seed_dir.mkdir(parents=True)
        inp = workloads.cli_inputs(np.random.default_rng(seed), seed_dir)
        for label, argv, _ in workloads.cli_argvs(inp, Path("{out}")):
            argv = [a.replace(str(inputs), "{inputs}") for a in argv]
            cases.append((f"seed{seed}-{label}", argv))
    for seed in SEEDS:
        _, argv, _ = workloads.xcheck_argv(seed, Path("{out}"))
        cases.append((f"xcheck-seed{seed}", argv))
    sign = {"n": 2, "re": [[1.0, 1.0], [1.0, -1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
    (inputs / "sign.json").write_text(json.dumps(sign))
    for name, symbol, opts in SEARCH_CASES:
        cases.append((name, ["norm", "--in", "{inputs}/" + symbol, *opts,
                             "--seed", "1", "--restarts", "4"]))
    cases.append(("help", ["--help"]))
    cases += [(f"help-{sub}", [sub, "--help"]) for sub in SUBCOMMANDS]
    return cases


def main() -> None:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    inputs = GOLDEN / "inputs"
    manifest = {"environment": environment(), "cases": []}
    for name, argv in _cases(inputs):
        out = GOLDEN / "cases" / name
        out.mkdir(parents=True)
        code, stdout, stderr = run(argv, inputs, out)
        files = sorted(p.name for p in out.iterdir())
        (out / "stdout").write_bytes(stdout)
        (out / "stderr").write_bytes(stderr)
        manifest["cases"].append(
            {"name": name, "argv": argv, "exit": code, "needs": needs(argv), "files": files}
        )
    (GOLDEN / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    main()
