"""The package loads submodules on first access; numpy-free subcommands skip numpy.

Each check runs in a fresh interpreter, because this test process has long
since imported numpy and every submodule.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schur_harmonics
from schur_harmonics import cli

SRC = Path(schur_harmonics.__file__).resolve().parent.parent
SUBMODULES = ["coset_geometry", "decay", "gelfand", "schatten", "special_fn", "symplectic"]

# runs `python -m schur_harmonics.cli` on its arguments; at exit, prints which
# of numpy and the package modules got loaded as stderr's last line
CLI_PROBE = """
import atexit, json, runpy, sys
atexit.register(lambda: sys.stderr.write("\\n" + json.dumps(sorted(
    m for m in sys.modules if m.partition(".")[0] in ("numpy", "schur_harmonics")))))
sys.argv[0] = "schur-harmonics"
runpy.run_module("schur_harmonics.cli", run_name="__main__", alter_sys=True)
"""


def fresh(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def run_fresh(*argv):
    """Stdout of a fresh CLI run and the modules it loaded."""
    proc = fresh("-c", CLI_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stderr.splitlines()[-1])


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "st", "--beta", "2", "--gamma", "1"],
        ["solve", "hyperbola", "--alpha", "1.0", "--a", "0.3", "--b", "0.5"],
        ["solve", "circle", "--alpha", "0.8", "--r", "0.4"],
        ["solve", "bg", "--s", "1.4", "--t", "1.0"],
        ["constants", "--p-min", "12.5", "--p-max", "48", "--steps", "4", "--c-u2", "1.0"],
        ["certify", "--p", "24", "--c-u2", "1.0"],
    ],
    ids=["solve-st", "solve-hyperbola", "solve-circle", "solve-bg", "constants", "certify-c-u2"],
)
def test_numpy_free_subcommands_never_load_numpy(tmp_path, capsys, argv):
    if argv[0] == "constants":
        argv = [*argv, "-o", str(tmp_path / "c.csv")]
    if argv[0] == "certify":
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps({"samples": [{"alpha1": 10.0, "alpha2": 0.0, "re": 1.0}]}))
        argv = [*argv, "--samples", str(samples)]
    out, loaded = run_fresh(*argv)
    assert set(loaded) <= {"schur_harmonics", "schur_harmonics._json_fields",
                           "schur_harmonics.coset_geometry", "schur_harmonics.decay"}
    assert cli.main(argv) == 0
    assert out == capsys.readouterr().out


def test_certify_without_c_u2_still_scans(tmp_path):
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps({"samples": [{"alpha1": 10.0, "alpha2": 0.0, "re": 1.0}]}))
    _, loaded = run_fresh("certify", "--p", "24", "--samples", str(samples))
    assert "numpy" in loaded and "schur_harmonics.special_fn" in loaded


def test_package_import_loads_no_submodule():
    proc = fresh("-c", "import sys, schur_harmonics; print(sorted(m for m in sys.modules "
                 "if m.partition('.')[0] in ('numpy', 'schur_harmonics')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['schur_harmonics']\n"


def test_submodules_load_on_access():
    code = f"""
import sys, schur_harmonics
assert schur_harmonics.gelfand is sys.modules["schur_harmonics.gelfand"]
from schur_harmonics import decay
assert decay is sys.modules["schur_harmonics.decay"]
assert set({SUBMODULES!r}) <= set(dir(schur_harmonics))
ns = {{}}
exec("from schur_harmonics import *", ns)
assert all(ns[m] is sys.modules["schur_harmonics." + m] for m in {SUBMODULES!r}), sorted(ns)
assert ns["__version__"] == schur_harmonics.__version__
"""
    proc = fresh("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        schur_harmonics.frobnicate
    assert not hasattr(schur_harmonics, "cli_helpers")


@pytest.mark.parametrize("name", SUBMODULES)
def test_star_import_exports_only_defined_names(name):
    module = importlib.import_module("schur_harmonics." + name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
    ns = {}
    exec(f"from schur_harmonics.{name} import *", ns)
    assert set(module.__all__) <= set(ns)
