"""Batch experiment runner: every module behind one subcommand.

All numeric logic lives in the library modules; this file only parses
arguments, moves JSON/CSV around, and maps failures to exit codes:
0 success, 2 validation error, 3 numeric failure.  Errors are also written
as structured JSON on stderr.  Identical configuration and seed produce
byte-identical output files.  Subcommands import the numpy-backed modules
they use, so ``solve``, ``constants`` and ``certify --c-u2`` start without numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import coset_geometry as cg
from . import decay

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


class NumericFailure(RuntimeError):
    pass


def _emit(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _parse_p(raw: str) -> float:
    if raw.lower() in ("inf", "infinity"):
        return math.inf
    p = float(raw)
    if not p >= 1:
        raise ValueError("p must lie in [1, inf]")
    return p


# ---------------------------------------------------------------------------
# subcommands


def _cmd_norm(args) -> int:
    from . import schatten
    sym = schatten.symbol_from_json(_read(args.infile))
    p = _parse_p(args.p)
    cfg = schatten.SearchConfig(
        restarts=args.restarts, max_iter=args.max_iter, gain_tol=args.tol,
        seed=args.seed,
    )
    report = {"p": args.p, "n": sym.n, "amplify": args.amplify}
    if args.amplify > 1:
        value = schatten.cb_lower_bound(sym, p, args.amplify, cfg)
        report.update({"value": value, "seed": args.seed, "iterations": None})
    else:
        est = schatten.ms_norm_lower(sym, p, cfg)
        report.update(schatten.estimate_report(est))
    _emit(report, args.output)
    return EXIT_OK


def _cmd_kak(args) -> int:
    from . import symplectic
    g = symplectic.matrix_from_json(_read(args.infile))
    res = symplectic.kak_decompose(g)
    payload = json.loads(symplectic.kak_to_json(res))
    _emit(payload, args.output)
    return EXIT_OK


# `solve <system>` passes these options, in order, to coset_geometry.solve_<system>
_SOLVE_INPUTS = {
    "hyperbola": ("alpha", "a", "b"),
    "circle": ("alpha", "r"),
    "st": ("beta", "gamma"),
    "bg": ("s", "t"),
}


def _cmd_solve(args) -> int:
    system = args.system
    given = tuple(getattr(args, name) for name in _SOLVE_INPUTS[system])
    x, y = getattr(cg, "solve_" + system)(*given)
    payload = dict(zip(("s", "t") if system == "st" else ("beta", "gamma"), (x, y)))
    payload["residuals"] = cg.residuals(system, given, (x, y))
    if system == "st":
        payload["ineq_margins"] = {
            "s_minus_beta_over_4": x - args.beta / 4.0,
            "t_minus_gamma_over_2": y - args.gamma / 2.0,
        }
    elif system == "bg" and 1.0 <= args.t <= args.s <= 1.5 * args.t:
        payload["ineq_margins"] = {
            "beta_window": 1.0 - abs(x - 2 * args.s),
            "gamma_window": 1.0 - abs(y + 2 * args.s - 3 * args.t),
        }
    _emit(payload, args.output)
    return EXIT_OK


def _builtin_phi(name: str, family: str):
    import numpy as np
    from . import special_fn
    if name == "ones":
        return lambda x: np.ones(np.shape(x), dtype=complex)
    kind, _, arg = name.partition(":")
    if kind == "monomial" and family == "u2":
        k = int(arg)
        return lambda z: np.asarray(z, dtype=complex) ** k
    if kind == "spherical" and family == "u2":
        l, m = (int(s) for s in arg.split(","))
        return lambda z: special_fn.spherical_u2(l, m, z)
    if kind == "legendre" and family == "su2":
        n = int(arg)
        return lambda r: special_fn.legendre_all(n, r)[n].astype(complex)
    raise ValueError(f"unknown builtin function {name!r} for family {family!r}")


def _cmd_coeffs(args) -> int:
    from . import gelfand
    if (args.spectrum is None) == (args.phi is None):
        raise ValueError("provide exactly one of --spectrum and --phi")
    if args.spectrum:
        spec_in = gelfand.spectrum_from_json(_read(args.spectrum))
        if spec_in.pair != args.family:
            raise ValueError("spectrum pair does not match --family")
        phi0 = gelfand.synthesize(spec_in)
    else:
        phi0 = _builtin_phi(args.phi, args.family)
    if args.family == "u2":
        spec = gelfand.coefficients_u2(phi0, args.truncation)
    else:
        spec = gelfand.coefficients_su2(phi0, args.truncation)
    payload = json.loads(gelfand.spectrum_to_json(spec))
    payload["lp_lower_bound"] = gelfand.lp_lower_bound(spec, args.p)
    payload["p"] = args.p
    _emit(payload, args.output)
    if args.csv:
        gelfand.spectrum_to_csv(spec, args.csv)
    return EXIT_OK


def _cmd_holder(args) -> int:
    from . import special_fn
    report = special_fn.hoelder_bound_check(args.family, args.max_degree, args.grid)
    if args.output:
        special_fn.scan_report_to_csv(report, args.output)
    summary = {
        "family": report.family,
        "max_degree": report.max_degree,
        "grid": report.grid,
        "empirical_constants": report.empirical_constants,
        "violations": len(report.violations),
    }
    _emit(summary, None)
    if args.family == "su2" and report.violations:
        raise NumericFailure("explicit-constant bound violated")
    return EXIT_OK


def _cmd_constants(args) -> int:
    if args.steps < 1 or args.p_max < args.p_min:
        raise ValueError("need --steps >= 1 and --p-max >= --p-min")
    # np.linspace bit for bit; chain_constants rejects p <= 12 and inf/nan
    step = (args.p_max - args.p_min) / max(args.steps - 1, 1)
    ps = [args.p_min + i * step for i in range(args.steps)]
    ps = ps[:-1] + [args.p_max] if args.steps > 1 else ps
    rows = decay.constants_table(ps, args.c_u2, args.series_terms)
    decay.write_constants_csv(rows, args.output)
    return EXIT_OK


def _cmd_certify(args) -> int:
    from ._json_fields import json_real as real
    obj = json.loads(_read(args.samples))
    if not isinstance(obj, dict):
        raise ValueError("samples file must be an object")
    phi_inf = obj.get("phi_inf", {})
    if not isinstance(phi_inf, dict):
        raise ValueError("phi_inf must be an object with fields re and im")
    if not isinstance(obj["samples"], list):
        raise ValueError("samples must be a list")
    phi_inf = complex(
        real(phi_inf.get("re", 0.0), "phi_inf re"), real(phi_inf.get("im", 0.0), "phi_inf im")
    )
    samples = []
    for s in obj["samples"]:
        if not isinstance(s, dict):
            raise ValueError(f"sample {s!r} is not an object")
        alphas = (real(s["alpha1"], "alpha1"), real(s["alpha2"], "alpha2"))
        value = complex(real(s["re"], "re"), real(s.get("im", 0.0), "im"))
        samples.append(decay.DecaySample(*alphas, value, phi_inf))
    consts = decay.chain_constants(args.p, args.c_u2, args.series_terms)
    payload = {
        "certificate": decay.norm_certificate(samples, consts),
        "p": consts.p,
        "c_u2": consts.c_u2,
        "series_terms": consts.series_terms,
        "c1": consts.c1,
        "c2": consts.c2,
        "samples": len(samples),
    }
    _emit(payload, args.output)
    return EXIT_OK


def _cmd_xcheck(args) -> int:
    import numpy as np
    from . import symplectic
    rng = np.random.default_rng(args.seed)
    rows = []
    worst = 0.0
    for i in range(args.count):
        alpha = float(rng.uniform(0.0, 2.5))
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        rad = math.sqrt(float(rng.uniform(0.0, 1.0)))
        a, b = rad * math.cos(theta), rad * math.sin(theta)
        beta, gamma = cg.solve_hyperbola(alpha, a, b)
        g = symplectic.d_alpha(alpha) @ symplectic.su2_element(a, b) @ symplectic.d_alpha(alpha)
        res = symplectic.kak_decompose(g)
        err = max(abs(res.alpha1 - beta), abs(res.alpha2 - gamma))
        worst = max(worst, err)
        rows.append(["hyperbola", alpha, a, b, beta, gamma, res.alpha1, res.alpha2, err])
    for i in range(args.count):
        alpha = float(rng.uniform(0.0, 2.5))
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        r = cg.su2_label(*v)
        beta, gamma = cg.solve_circle(alpha, r)
        u = symplectic.embed_u2(
            np.array([[v[0] + 1j * v[1], -v[2] + 1j * v[3]],
                      [v[2] + 1j * v[3], v[0] - 1j * v[1]]])
        )
        g = symplectic.d_alpha_prime(alpha) @ u @ symplectic.v_element() @ symplectic.d_alpha_prime(alpha)
        res = symplectic.kak_decompose(g)
        err = max(abs(res.alpha1 - beta), abs(res.alpha2 - gamma))
        worst = max(worst, err)
        rows.append(["circle", alpha, r, "", beta, gamma, res.alpha1, res.alpha2, err])
    if args.output:
        import csv as _csv

        with open(args.output, "w", newline="") as fh:
            writer = _csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["system", "alpha", "param1", "param2", "beta", "gamma",
                 "kak_alpha1", "kak_alpha2", "err"]
            )
            for row in rows:
                writer.writerow(
                    [row[0]] + [x if x == "" else f"{x:.17g}" for x in row[1:]]
                )
    sys.stdout.write(json.dumps({"instances": len(rows), "worst_err": worst}) + "\n")
    if worst > args.tol:
        raise NumericFailure(f"solver/KAK mismatch {worst:.3e} above {args.tol:.1e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="schur-harmonics",
        description="Batch runner for multiplier-norm searches, spherical "
        "expansions, KAK geometry, sinh solvers, and decay certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="multiplier norm lower bound on a symbol file")
    p_norm.add_argument("--in", dest="infile", required=True)
    p_norm.add_argument("--p", required=True)
    p_norm.add_argument("--seed", type=int, required=True)
    p_norm.add_argument("--amplify", type=int, default=1)
    p_norm.add_argument("--restarts", type=int, default=32)
    p_norm.add_argument("--max-iter", type=int, default=1500)
    p_norm.add_argument("--tol", type=float, default=1e-9)
    p_norm.add_argument("-o", "--output")
    p_norm.set_defaults(func=_cmd_norm)

    p_kak = sub.add_parser("kak", help="KAK-decompose a 4x4 matrix file")
    p_kak.add_argument("--in", dest="infile", required=True)
    p_kak.add_argument("-o", "--output")
    p_kak.set_defaults(func=_cmd_kak)

    p_solve = sub.add_parser("solve", help="solve one of the four sinh systems")
    solve_sub = p_solve.add_subparsers(dest="system", required=True)
    for system, names in _SOLVE_INPUTS.items():
        sp = solve_sub.add_parser(system)
        for name in names:
            sp.add_argument(f"--{name}", type=float, required=True)
        sp.add_argument("-o", "--output")
        sp.set_defaults(func=_cmd_solve)

    p_coeffs = sub.add_parser("coeffs", help="coefficient spectrum and lp lower bound")
    p_coeffs.add_argument("--family", choices=["u2", "su2"], required=True)
    p_coeffs.add_argument("--truncation", "-L", type=int, required=True)
    p_coeffs.add_argument("--p", type=float, default=4.0)
    p_coeffs.add_argument("--spectrum", help="JSON spectrum to synthesize and re-extract")
    p_coeffs.add_argument("--phi", help="builtin function, e.g. ones, monomial:2, legendre:3, spherical:2,1")
    p_coeffs.add_argument("--csv", help="also write |c| vs degree CSV here")
    p_coeffs.add_argument("-o", "--output")
    p_coeffs.set_defaults(func=_cmd_coeffs)

    p_holder = sub.add_parser("holder", help="Hoelder bound scan for one family")
    p_holder.add_argument("--family", choices=["u2", "su2"], required=True)
    p_holder.add_argument("--max-degree", type=int, required=True)
    p_holder.add_argument("--grid", type=int, required=True)
    p_holder.add_argument("-o", "--output", help="CSV report path")
    p_holder.set_defaults(func=_cmd_holder)

    p_const = sub.add_parser("constants", help="decay-constant chain over a p grid")
    p_const.add_argument("--p-min", type=float, required=True)
    p_const.add_argument("--p-max", type=float, required=True)
    p_const.add_argument("--steps", type=int, required=True)
    p_const.add_argument("--c-u2", type=float, required=True)
    p_const.add_argument("--series-terms", type=int, default=decay.SERIES_TERMS)
    p_const.add_argument("-o", "--output", required=True)
    p_const.set_defaults(func=_cmd_constants)

    p_cert = sub.add_parser("certify", help="norm certificate from a samples file")
    p_cert.add_argument("--samples", required=True)
    p_cert.add_argument("--p", type=float, required=True)
    p_cert.add_argument("--c-u2", type=float, default=None)
    p_cert.add_argument("--series-terms", type=int, default=decay.SERIES_TERMS)
    p_cert.add_argument("-o", "--output")
    p_cert.set_defaults(func=_cmd_certify)

    p_x = sub.add_parser("xcheck", help="coset solvers against matrix KAK")
    p_x.add_argument("--count", type=int, default=200)
    p_x.add_argument("--seed", type=int, required=True)
    p_x.add_argument("--tol", type=float, default=1e-6)
    p_x.add_argument("-o", "--output", help="CSV of per-instance errors")
    p_x.set_defaults(func=_cmd_xcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        return args.func(args)
    except Exception as exc:  # every failure, expected or not, is reported
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        # NumericFailure, ArithmeticError and anything unforeseen are numeric
        if isinstance(exc, (ValueError, KeyError, OSError)):
            return EXIT_VALIDATION
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
