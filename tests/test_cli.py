"""End-to-end tests of the command-line runner and its exit codes."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

from schur_harmonics import cli, decay
from schur_harmonics import gelfand as gf
from schur_harmonics import schatten as sc
from schur_harmonics import symplectic as sp


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_constants_csv_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["constants", "--p-min", "12.5", "--p-max", "48", "--steps", "20", "--c-u2", "1.0"]
    code, _, _ = run(capsys, *args, "-o", str(out1))
    assert code == 0
    code, _, _ = run(capsys, *args, "-o", str(out2))
    assert code == 0
    data1, data2 = out1.read_bytes(), out2.read_bytes()
    assert data1 == data2
    lines = data1.decode().splitlines()
    assert lines[0] == "p,C_tilde,C_hat,C3,C4,C5,C5p,C6,C1,C2"
    assert len(lines) == 21
    assert all(len(line.split(",")) == 10 for line in lines[1:])


def test_constants_validation_exit(tmp_path, capsys):
    code, _, err = run(
        capsys, "constants", "--p-min", "10", "--p-max", "20", "--steps", "3",
        "--c-u2", "1.0", "-o", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize(
    "argv",
    [
        ["constants", "--p-min", "13", "--p-max", "inf", "--steps", "3", "--c-u2", "1"],
        ["constants", "--p-min", "13", "--p-max", "inf", "--steps", "1", "--c-u2", "1"],
        ["constants", "--p-min", "13", "--p-max", "20", "--steps", "3", "--c-u2", "nan"],
        ["certify", "--p", "inf", "--c-u2", "1"],
        ["certify", "--p", "24", "--c-u2", "nan"],
        ["certify", "--p", "24", "--c-u2", "inf"],
        ["constants", "--p-min", "13", "--p-max", "20", "--steps", "3", "--c-u2", "1e308"],
        ["certify", "--p", "24", "--c-u2", "1e308"],
    ],
    ids=["constants-p-inf", "constants-p-inf-one-step", "constants-c-nan",
         "certify-p-inf", "certify-c-nan", "certify-c-inf",
         "constants-c-overflow", "certify-c-overflow"],
)
def test_chain_inputs_must_be_finite(tmp_path, capsys, argv):
    out = tmp_path / "out"
    if argv[0] == "certify":
        src = tmp_path / "samples.json"
        src.write_text(json.dumps({"samples": [{"alpha1": 10.0, "alpha2": 0.0, "re": 1.0}]}))
        argv = [*argv, "--samples", str(src)]
    code, stdout, err = run(capsys, *argv, "-o", str(out))
    assert code == 2
    assert stdout == ""
    assert json.loads(err)["error"] == "ValueError"
    assert not out.exists()


@given(
    hst.floats(12.0, 1e4, exclude_min=True),
    hst.floats(0.0, 1e4),
    hst.integers(1, 40),
)
@settings(max_examples=200, deadline=None)
def test_constants_grid_is_linspace_bit_for_bit(tmp_path_factory, p_min, width, steps):
    out = tmp_path_factory.mktemp("grid") / "c.csv"
    p_max = p_min + width
    argv = ["constants", "--p-min", repr(p_min), "--p-max", repr(p_max), "--steps", str(steps)]
    assert cli.main([*argv, "--c-u2", "1.0", "-o", str(out)]) == 0
    grid = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
    expected = np.linspace(p_min, p_max, steps).tolist()
    assert [x.hex() for x in grid] == [x.hex() for x in expected]


def test_solve_st_json(capsys):
    code, out, _ = run(capsys, "solve", "st", "--beta", "2", "--gamma", "1")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"s", "t", "residuals", "ineq_margins"}
    assert abs(payload["residuals"]["s_equation_rel"]) <= 1e-10
    assert payload["ineq_margins"]["s_minus_beta_over_4"] >= 0.0
    assert payload["ineq_margins"]["t_minus_gamma_over_2"] >= 0.0


def test_solve_all_systems(capsys):
    for argv in (
        ["solve", "hyperbola", "--alpha", "1.0", "--a", "0.3", "--b", "0.5"],
        ["solve", "circle", "--alpha", "0.8", "--r", "0.4"],
        ["solve", "bg", "--s", "1.4", "--t", "1.0"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        for v in payload["residuals"].values():
            assert abs(v) <= 1e-9


def test_solve_domain_error_exit(capsys):
    code, _, err = run(capsys, "solve", "bg", "--s", "1.0", "--t", "2.0")
    assert code == 2
    assert "ValueError" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "st", "--beta", "nan", "--gamma", "nan"],
        ["solve", "st", "--beta", "2", "--gamma", "nan"],
        ["solve", "hyperbola", "--alpha", "inf", "--a", "0.3", "--b", "0.5"],
        ["solve", "circle", "--alpha", "1", "--r", "nan"],
        ["solve", "bg", "--s", "inf", "--t", "1"],
    ],
)
def test_solve_non_finite_exit(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "hyperbola", "--alpha", "1e308", "--a", "0.3", "--b", "0.5"],
        ["solve", "bg", "--s", "1e308", "--t", "5e307"],
        ["solve", "bg", "--s", "1000", "--t", "250"],
    ],
)
def test_solve_out_of_double_range_exit(capsys, argv):
    # overflowing or underflowing solutions exit 3 instead of printing
    # Infinity/NaN or an underflowed gamma = 0
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "ArithmeticError"


def test_kak_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(0)
    g = sp.haar_k(rng) @ sp.weyl_element(1.1, 0.3) @ sp.haar_k(rng)
    src = tmp_path / "g.json"
    src.write_text(sp.matrix_to_json(g))
    out = tmp_path / "kak.json"
    code, _, _ = run(capsys, "kak", "--in", str(src), "-o", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["alpha1"] >= payload["alpha2"] >= 0.0
    assert payload["residual"] <= 1e-8
    assert_allclose(payload["alpha1"], 1.1, atol=1e-8)


def test_kak_rejects_non_symplectic(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text(sp.matrix_to_json(np.diag([2.0, 1.0, 1.0, 1.0])))
    code, _, err = run(capsys, "kak", "--in", str(src))
    assert code == 2
    assert "SymplecticError" in err


def test_kak_rejects_rank_one_input(tmp_path, capsys):
    # g^T J g = 0 for rank 1, a defect of 2, far below 1e-9 ||g||_F^2
    src = tmp_path / "rank1.json"
    src.write_text(json.dumps({"rows": [[1e10, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}))
    code, out, err = run(capsys, "kak", "--in", str(src))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "SymplecticError"


_EYE_ROWS = np.eye(4).tolist()


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[v == 1.0 for v in row] for row in _EYE_ROWS], "matrix rows True is not a number"),
        ([["1", 0, 0, 0]] + _EYE_ROWS[1:], "matrix rows '1' is not a number"),
        ([[1, 0, 0, 0], [0, 1, 0]] + _EYE_ROWS[2:], "matrix rows must be an 4 x 4 array"),
    ],
    ids=["bool", "numeric-string", "ragged-row"],
)
def test_kak_rejects_non_numeric_rows(tmp_path, capsys, rows, message):
    src = tmp_path / "g.json"
    src.write_text(json.dumps({"rows": rows}))
    code, out, err = run(capsys, "kak", "--in", str(src))
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "ValueError", "message": message}


def test_kak_subcommand_wide_chamber(tmp_path, capsys):
    # rounding in g^T J g is about 2e-9 here, above an absolute 1e-9
    rng = np.random.default_rng(0)
    g = sp.haar_k(rng) @ sp.weyl_element(9.0, 2.0) @ sp.haar_k(rng)
    src = tmp_path / "g.json"
    src.write_text(sp.matrix_to_json(g))
    code, out, _ = run(capsys, "kak", "--in", str(src))
    assert code == 0
    payload = json.loads(out)
    assert_allclose((payload["alpha1"], payload["alpha2"]), (9.0, 2.0), rtol=1e-12)
    assert payload["residual"] <= 1e-12
    for k in (payload["k1"], payload["k2"]):
        assert sp.symplectic_check(k).in_k


def test_norm_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(1)
    psi = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    src = tmp_path / "psi.json"
    src.write_text(sc.symbol_to_json(sc.MultiplierSymbol(psi)))
    out = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "norm", "--in", str(src), "--p", "4", "--seed", "7",
        "--restarts", "6", "-o", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["value"] >= np.abs(psi).max() - 1e-9
    assert payload["seed"] == 7
    # p = inf spelled out and amplification path
    code, out_text, _ = run(
        capsys, "norm", "--in", str(src), "--p", "inf", "--seed", "3",
        "--restarts", "4",
    )
    assert code == 0
    assert json.loads(out_text)["value"] >= np.abs(psi).max() - 1e-9
    code, out_text, _ = run(
        capsys, "norm", "--in", str(src), "--p", "4", "--seed", "3",
        "--restarts", "4", "--amplify", "2",
    )
    assert code == 0


def test_norm_requires_seed(tmp_path, capsys):
    src = tmp_path / "psi.json"
    src.write_text(sc.symbol_to_json(sc.MultiplierSymbol(np.eye(2))))
    code, _, _ = run(capsys, "norm", "--in", str(src), "--p", "4")
    assert code == 2


def test_norm_rejects_nan_p(tmp_path, capsys):
    src = tmp_path / "psi.json"
    src.write_text(sc.symbol_to_json(sc.MultiplierSymbol(np.eye(2))))
    code, _, err = run(capsys, "norm", "--in", str(src), "--p", "nan", "--seed", "1")
    assert code == 2
    assert json.loads(err) == {"error": "ValueError", "message": "p must lie in [1, inf]"}


@pytest.mark.parametrize(
    "doc",
    [
        [[1.0, 0.0], [0.0, 1.0]],
        {"n": 2, "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[1.0, 2.0]]},
        {"n": True, "re": [[1.0]], "im": [[0.0]]},
        {"n": 2, "re": [[1.0, "0"], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
        {"n": 0, "re": [], "im": []},
    ],
    ids=["top-level-list", "im-broadcast", "n-bool", "string-entry", "empty"],
)
def test_norm_rejects_malformed_symbol(tmp_path, capsys, doc):
    src = tmp_path / "psi.json"
    src.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, "norm", "--in", str(src), "--p", "4", "--seed", "1")
    assert code == 2
    assert stdout == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize(
    "option",
    [
        ["--restarts", "-3"],
        ["--max-iter", "-1"],
        ["--tol", "nan"],
        ["--tol", "-1"],
        ["--amplify", "0"],
        ["--amplify", "-3"],
    ],
    ids=["restarts-negative", "max-iter-negative", "tol-nan", "tol-negative",
         "amplify-zero", "amplify-negative"],
)
def test_norm_rejects_bad_search_options(tmp_path, capsys, option):
    src = tmp_path / "psi.json"
    src.write_text(sc.symbol_to_json(sc.MultiplierSymbol(np.eye(2))))
    out = tmp_path / "report.json"
    code, stdout, err = run(
        capsys, "norm", "--in", str(src), "--p", "4", "--seed", "1", *option, "-o", str(out)
    )
    assert code == 2
    assert stdout == ""
    assert json.loads(err)["error"] == "ValueError"
    assert not out.exists()


def test_coeffs_subcommand(tmp_path, capsys):
    code, out, _ = run(
        capsys, "coeffs", "--family", "su2", "-L", "4", "--phi", "legendre:3",
        "--p", "3",
    )
    assert code == 0
    payload = json.loads(out)
    row = next(r for r in payload["coeffs"] if r["n"] == 3)
    assert_allclose(row["re"], 1.0 / 7.0, atol=1e-10)
    assert_allclose(payload["lp_lower_bound"], (7 ** (1 - 3.0)) ** (1 / 3.0), rtol=1e-9)

    spec = gf.CoefficientSpectrum("u2", {(1, 0): 0.5}, 1)
    src = tmp_path / "spec.json"
    src.write_text(gf.spectrum_to_json(spec))
    csv_path = tmp_path / "coeffs.csv"
    code, out, _ = run(
        capsys, "coeffs", "--family", "u2", "-L", "2", "--spectrum", str(src),
        "--p", "2", "--csv", str(csv_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert_allclose(payload["lp_lower_bound"], 1.0 / np.sqrt(2.0), rtol=1e-9)
    assert csv_path.read_text().startswith("pair,")


def test_coeffs_spectrum_at_large_p(tmp_path, capsys):
    # |c|^p alone overflows here: 10^400
    src = tmp_path / "spec.json"
    src.write_text(gf.spectrum_to_json(gf.CoefficientSpectrum("su2", {0: 10.0, 1: 1.0}, 1)))
    code, out, err = run(capsys, "coeffs", "--family", "su2", "-L", "1", "--spectrum", str(src), "--p", "400")
    assert code == 0, err
    assert_allclose(json.loads(out)["lp_lower_bound"], 10.0, rtol=1e-15)


@pytest.mark.parametrize(
    "pair, row, message",
    [
        ("su2", {"n": 5, "re": 1.0, "im": 0.0}, "index 5 lies below 0 or beyond truncation 2"),
        ("u2", {"l": 3, "m": 0, "re": 1.0, "im": 0.0}, "index (3, 0) lies below 0 or beyond truncation 2"),
        ("su2", {"n": 1, "re": float("nan"), "im": 0.0}, "coefficient 1 is not finite"),
    ],
    ids=["su2-index", "u2-index", "nan-coefficient"],
)
def test_coeffs_rejects_malformed_spectrum(tmp_path, capsys, pair, row, message):
    src = tmp_path / "spec.json"
    src.write_text(json.dumps({"pair": pair, "truncation": 2, "coeffs": [row]}))
    code, out, err = run(
        capsys, "coeffs", "--family", pair, "-L", "2", "--spectrum", str(src)
    )
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "ValueError", "message": message}


@pytest.mark.parametrize(
    "spectrum, message",
    [
        ({"pair": "su2", "truncation": 2, "coeffs": [{"n": 1.5, "re": 1.0, "im": 0.0}]},
         "index 1.5 is not an integer"),
        ({"pair": "su2", "truncation": 2, "coeffs": [{"n": True, "re": 1.0, "im": 0.0}]},
         "index True is not an integer"),
        ({"pair": "u2", "truncation": 2, "coeffs": [{"l": 1, "m": "0", "re": 1.0, "im": 0.0}]},
         "index '0' is not an integer"),
        ({"pair": "su2", "truncation": 2.5, "coeffs": [{"n": 1, "re": 1.0, "im": 0.0}]},
         "truncation 2.5 is not an integer"),
        ({"pair": "su2", "truncation": 2, "coeffs": {"n": 1, "re": 1.0, "im": 0.0}},
         "coeffs must be a list"),
        ({"pair": "su2", "truncation": 2, "coeffs": [{"n": 1, "re": "1", "im": 0.0}]},
         "re '1' is not a number"),
        ({"pair": "su2", "truncation": 2, "coeffs": [5]}, "coefficient row 5 is not an object"),
    ],
    ids=[
        "su2-float-index", "su2-bool-index", "u2-string-index", "float-truncation",
        "coeffs-object", "string-re", "coeffs-row-number",
    ],
)
def test_coeffs_rejects_mistyped_spectrum(tmp_path, capsys, spectrum, message):
    src = tmp_path / "spec.json"
    src.write_text(json.dumps(spectrum))
    code, out, err = run(
        capsys, "coeffs", "--family", spectrum["pair"], "-L", "2", "--spectrum", str(src)
    )
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "ValueError", "message": message}


def test_coeffs_rejects_top_level_list(tmp_path, capsys):
    src = tmp_path / "spec.json"
    src.write_text(json.dumps([{"n": 1, "re": 1.0, "im": 0.0}]))
    code, out, err = run(
        capsys, "coeffs", "--family", "su2", "-L", "2", "--spectrum", str(src)
    )
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "ValueError", "message": "spectrum must be an object"}


def test_coeffs_needs_exactly_one_source(capsys):
    code, _, err = run(capsys, "coeffs", "--family", "su2", "-L", "2")
    assert code == 2


def test_holder_subcommand(tmp_path, capsys):
    out = tmp_path / "holder.csv"
    code, text, _ = run(
        capsys, "holder", "--family", "su2", "--max-degree", "30",
        "--grid", "201", "-o", str(out),
    )
    assert code == 0
    assert json.loads(text)["violations"] == 0
    assert out.read_text().startswith("family,l,m_or_n,bound_kind,empirical_C,violations")


def test_certify_subcommand(tmp_path, capsys):
    src = tmp_path / "samples.json"
    src.write_text(
        json.dumps(
            {
                "phi_inf": {"re": 0.0, "im": 0.0},
                "samples": [{"alpha1": 10.0, "alpha2": 0.0, "re": 1.0, "im": 0.0}],
            }
        )
    )
    code, out, _ = run(
        capsys, "certify", "--samples", str(src), "--p", "24", "--c-u2", "1.0"
    )
    assert code == 0
    payload = json.loads(out)
    assert_allclose(
        payload["certificate"],
        np.exp(payload["c2"] * 10.0) / payload["c1"],
        rtol=1e-12,
    )
    assert payload["series_terms"] == decay.SERIES_TERMS


@pytest.mark.parametrize(
    "sample, phi_inf",
    [
        ({"alpha1": float("nan"), "alpha2": 0.0, "re": 1.0}, {}),
        ({"alpha1": 10.0, "alpha2": 0.0, "re": float("inf")}, {}),
        ({"alpha1": 10.0, "alpha2": 0.0, "re": 1.0}, {"re": float("nan")}),
    ],
    ids=["nan-alpha1", "inf-value", "nan-phi-inf"],
)
def test_certify_rejects_non_finite_samples(tmp_path, capsys, sample, phi_inf):
    src = tmp_path / "samples.json"
    src.write_text(json.dumps({"phi_inf": phi_inf, "samples": [sample]}))
    code, out, err = run(
        capsys, "certify", "--samples", str(src), "--p", "24", "--c-u2", "1.0"
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"phi_inf": 1.0, "samples": [{"alpha1": 10.0, "alpha2": 0.0, "re": 1.0}]},
         "phi_inf must be an object with fields re and im"),
        ({"phi_inf": {}, "samples": 5}, "samples must be a list"),
        ({"phi_inf": {}, "samples": [5]}, "sample 5 is not an object"),
        ({"samples": [{"alpha1": "10", "alpha2": 0.0, "re": 1.0}]},
         "alpha1 '10' is not a number"),
        ({"samples": [{"alpha1": True, "alpha2": 0.0, "re": 1.0}]},
         "alpha1 True is not a number"),
        ({"samples": [{"alpha1": 10**400, "alpha2": 0.0, "re": 1.0}]},
         "alpha1 lies beyond the double range"),
        ([{"alpha1": 10.0, "alpha2": 0.0, "re": 1.0}], "samples file must be an object"),
        ({"phi_inf": {"re": "x"}, "samples": [{"alpha1": 10.0, "alpha2": 0.0, "re": 1.0}]},
         "phi_inf re 'x' is not a number"),
    ],
    ids=[
        "phi-inf-number", "samples-number", "sample-number", "string-alpha1", "bool-alpha1",
        "huge-int-alpha1", "top-level-list", "string-phi-inf",
    ],
)
def test_certify_rejects_mistyped_fields(tmp_path, capsys, obj, message):
    src = tmp_path / "samples.json"
    src.write_text(json.dumps(obj))
    code, out, err = run(
        capsys, "certify", "--samples", str(src), "--p", "24", "--c-u2", "1.0"
    )
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "ValueError", "message": message}


def test_xcheck_subcommand(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code, text, _ = run(
        capsys, "xcheck", "--count", "10", "--seed", "3", "-o", str(out)
    )
    assert code == 0
    assert json.loads(text)["worst_err"] <= 1e-6
    lines = out.read_text().splitlines()
    assert lines[0].startswith("system,alpha")
    assert len(lines) == 21

    code, _, err = run(capsys, "xcheck", "--count", "4", "--seed", "1", "--tol", "0")
    assert code == 3
    assert json.loads(err)["error"] == "NumericFailure"


def test_xcheck_passes_for_seeds_1_to_100(capsys):
    for seed in range(1, 101):
        code, text, _ = run(capsys, "xcheck", "--count", "8", "--seed", str(seed))
        assert code == 0, seed
        assert json.loads(text)["worst_err"] <= 1e-6


def test_xcheck_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "xcheck", "--count", "6", "--seed", "11", "-o", str(a))
    run(capsys, "xcheck", "--count", "6", "--seed", "11", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_unknown_subcommand_is_validation(capsys):
    assert cli.main(["frobnicate"]) == 2
