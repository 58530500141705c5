"""Replay the golden CLI cases of tests/golden/ and compare every byte.

``make_golden.py`` writes the cases; a change that moves output on purpose
reruns it.  No case is compared to a tolerance: a case that needs numpy is
skipped, with the differing fields named, where the environment differs
from the recorded one, and help text where the Python version does.
"""

import json
import platform

import pytest

from make_golden import GOLDEN, environment, run

MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
RECORDED = MANIFEST["environment"]
HERE = environment()


def _skip_reason(case):
    if case["needs"] == "python":
        if platform.python_version_tuple()[:2] != tuple(RECORDED["python"].split(".")[:2]):
            return f"help text recorded under Python {RECORDED['python']}, not {platform.python_version()}"
    elif case["needs"] == "numpy":
        moved = sorted(k for k in RECORDED if HERE.get(k) != RECORDED[k])
        if moved:
            return "recorded under another " + ", ".join(f"{k} ({RECORDED[k]})" for k in moved)
    return None


@pytest.mark.parametrize("case", MANIFEST["cases"], ids=lambda case: case["name"])
def test_golden_case(case, tmp_path):
    reason = _skip_reason(case)
    if reason:
        pytest.skip(reason)
    want = GOLDEN / "cases" / case["name"]
    code, stdout, stderr = run(case["argv"], GOLDEN / "inputs", tmp_path)
    assert (code, stdout, stderr) == (
        case["exit"], (want / "stdout").read_bytes(), (want / "stderr").read_bytes()
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == case["files"]
    for name in case["files"]:
        assert (tmp_path / name).read_bytes() == (want / name).read_bytes(), name
