"""Command-line entry points.

Verbs:
    verify <suite ...>      run verification suites, write reports
    run all                 run every suite
    bethe solve             solve the finite-box root equations
    expand transfer         expansion oracle + printed-table adjudication
    lattice rtt|commute|continuum
    aop check               integral-operator diagonality check

Exit codes: 0 all checks pass, 1 any check failed, 2 usage/config error
or input out of numeric range.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from fractions import Fraction

import numpy as np

from . import integral_operator as aop
from . import lattice as lat
from . import transfer as tr
from .bethe import BoxSpec, QuantumNumbers, ground_state_quantum_numbers, solve
from .config import ALL_SUITES, ConfigError, build_config, parse_config_file
from .errors import QnlsError
from .exact import EXACT, exact
from .planewaves import Coupling, RapiditySet, build_bethe
from .report import render_markdown, write_report
from .suites import run_suites

USAGE_EXIT = 2


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--mode", choices=("exact", "float"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", dest="out_dir")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--quiet", action="store_true")


def _load_config(args, suites=None):
    file_values = None
    if args.config:
        file_values = parse_config_file(args.config)
    overrides = {
        "mode": args.mode,
        "seed": args.seed,
        "out_dir": args.out_dir,
        "quiet": True if args.quiet else None,
        "json_stdout": True if args.json else None,
    }
    if suites is not None:
        overrides["suites"] = tuple(suites)
    return build_config(file_values, **overrides)


def _run_and_report(cfg) -> int:
    report = run_suites(cfg)
    paths = write_report(report, cfg.out_dir)
    if cfg.json_stdout:
        sys.stdout.write(report.to_json())
    elif not cfg.quiet:
        summary = report.summary()
        print(render_markdown(report))
        print(f"report written to {paths['run_dir']} "
              f"(latest copy in {paths['latest']})")
        print(f"{summary['pass']} pass, {summary['fail']} fail, "
              f"{summary['expected-mismatch']} expected-mismatch")
    return report.exit_code()


def _parse(kind, text: str, option: str):
    """kind(text), with a malformed or non-finite value reported as a
    usage error."""
    try:
        value = kind(text)
    except (ValueError, ZeroDivisionError) as err:
        raise ConfigError(f"bad {option} value {text!r}: {err}") from err
    if isinstance(value, (float, complex)) and not cmath.isfinite(value):
        raise ConfigError(f"bad {option} value {text!r}: not finite")
    return value


def _parse_floats(args, *dests: str):
    """Parse the named float options of args in place."""
    for dest in dests:
        setattr(args, dest, _parse(float, getattr(args, dest), f"--{dest}"))


def _parse_rationals(text: str, option: str) -> list:
    return [_parse(Fraction, tok.strip(), option)
            for tok in text.split(",") if tok.strip()]


def _cmd_verify(args) -> int:
    cfg = _load_config(args, suites=args.suites)
    return _run_and_report(cfg)


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    return _run_and_report(cfg)


def _cmd_bethe_solve(args) -> int:
    _parse_floats(args, "box", "coupling")
    box = BoxSpec(args.box, args.coupling, args.n)
    qn = QuantumNumbers.of(_parse_rationals(args.quantum_numbers,
                                            "--quantum-numbers")) \
        if args.quantum_numbers else ground_state_quantum_numbers(args.n)
    sol = solve(box, qn)
    print(json.dumps(sol.to_json_dict(), sort_keys=True, indent=2))
    return 0


def _cmd_expand_transfer(args) -> int:
    _parse_floats(args, "box", "coupling")
    box = BoxSpec(args.box, args.coupling, args.n)
    sol = solve(box, ground_state_quantum_numbers(args.n))
    ks = [float(v) for v in sol.rapidities.values]
    try:
        result = tr.charge_coefficients_from_formulas(ks, args.coupling,
                                                      order=args.order)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    rows = [{"source": v.source, "order": v.order,
             "printed": str(v.printed), "oracle": str(v.oracle),
             "verdict": v.verdict} for v in result.verdicts]
    lines = ["| source | order | verdict |", "|---|---|---|"]
    lines += [f"| {r['source']} | {r['order']} | {r['verdict']} |"
              for r in rows]
    payload = {
        "n": args.n,
        "box_length": args.box,
        "coupling": args.coupling,
        "order": args.order,
        "rapidities": ks,
        "oracle_coefficients": [str(complex(v)) for v in result.oracle],
        "oracle_log_coefficients": [str(complex(v)) for v in result.oracle_log],
        "verdicts": rows,
        "markdown_summary": "\n".join(lines),
    }
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0 if not result.has_unexpected_mismatch() else 1


def _cmd_lattice(args) -> int:
    # floating-point overflow on finite input is a usage error, not a
    # traceback or a numpy warning
    with np.errstate(over="raise", invalid="raise"):
        _parse_floats(args, "step", "coupling")
        try:
            spec = lat.LatticeSpec(args.sites, args.cutoff, args.step,
                                   args.coupling)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        lam = _parse(complex, args.lam, "--lam")
        mu = _parse(complex, args.mu, "--mu")
        if args.action == "rtt":
            res = lat.rtt_residual(lam, mu, spec)
            payload = {"sites": args.sites, "cutoff": args.cutoff,
                       "step": args.step, "coupling": args.coupling, **res}
            print(json.dumps(payload, sort_keys=True, indent=2, default=str))
            return 0 if res["residual"] < 1e-12 else 1
        if args.action == "commute":
            norm = lat.tau_commutator_norm(lam, mu, spec, args.sector)
            payload = {"sites": args.sites, "cutoff": args.cutoff,
                       "sector": args.sector, "commutator_norm": norm}
            print(json.dumps(payload, sort_keys=True, indent=2))
            return 0 if norm < 1e-12 else 1
        if args.action == "continuum":
            rep = lat.continuum_limit_rate(args.coupling,
                                           args.sites * args.step, lam)
            print(json.dumps(rep, sort_keys=True, indent=2, default=str))
            ok = rep["order_vacuum_normalized"] >= 1.0 \
                and rep["order_one_particle_normalized"] >= 1.0
            return 0 if ok else 1
        raise ConfigError(f"unknown lattice action {args.action!r}")


def _cmd_aop_check(args) -> int:
    lam_parts = _parse_rationals(args.lam, "--lam")
    if len(lam_parts) != 2:
        raise ConfigError(f"bad --lam value {args.lam!r}: expected 're,im'")
    re_part, im_part = lam_parts
    if im_part >= 0:
        raise ConfigError("lambda must have negative imaginary part")
    raps = _parse_rationals(args.rapidities, "--rapidities")
    if len(raps) != args.n:
        raise ConfigError("rapidity count must match --n")
    coupling = _parse(lambda t: Coupling(Fraction(t)), args.coupling,
                      "--coupling")
    w = build_bethe(RapiditySet.of(raps), coupling)
    lam = aop.SpectralParameter(exact(re_part, im_part))
    measured, residual = aop.eigenvalue_check(lam, w)
    expected = aop.bethe_eigenvalue(lam, w.rapidities.values,
                                    w.coupling.c, EXACT)
    g = aop.apply_A(lam, w.canonical, w.coupling.c)
    pde, boundary = aop.bvp_residual(lam, w.canonical, g, w.coupling.c)
    payload = {
        "n": args.n,
        "rapidities": [str(v) for v in raps],
        "coupling": args.coupling,
        "lambda": args.lam,
        "eigenvalue_measured": str(measured),
        "eigenvalue_expected": str(complex(expected)),
        "diagonality_residual": residual,
        "pde_residual_terms": pde.term_count(),
        "boundary_residual_terms": [b.term_count() for b in boundary],
    }
    print(json.dumps(payload, sort_keys=True, indent=2))
    ok = residual == 0.0 and pde.is_empty() and all(b.is_empty()
                                                    for b in boundary)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnls",
        description="Verification toolkit for the conserved charges of the "
                    "one-dimensional delta Bose gas.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("suites", nargs="+", choices=ALL_SUITES)
    _add_common(p_verify)
    p_verify.set_defaults(fn=_cmd_verify)

    p_run = sub.add_parser("run", help="run the full verification")
    p_run.add_argument("what", choices=("all",))
    _add_common(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_bethe = sub.add_parser("bethe", help="finite-box root equations")
    bsub = p_bethe.add_subparsers(dest="action", required=True)
    p_solve = bsub.add_parser("solve")
    p_solve.add_argument("--n", type=int, required=True)
    p_solve.add_argument("--box", required=True)
    p_solve.add_argument("--coupling", required=True)
    p_solve.add_argument("--quantum-numbers", dest="quantum_numbers")
    p_solve.set_defaults(fn=_cmd_bethe_solve)

    p_expand = sub.add_parser("expand", help="transfer-eigenvalue expansion")
    esub = p_expand.add_subparsers(dest="action", required=True)
    p_tr = esub.add_parser("transfer")
    p_tr.add_argument("--n", type=int, required=True)
    p_tr.add_argument("--box", required=True)
    p_tr.add_argument("--coupling", required=True)
    p_tr.add_argument("--order", type=int, default=tr.DEFAULT_ORDER)
    p_tr.set_defaults(fn=_cmd_expand_transfer)

    p_lat = sub.add_parser("lattice", help="lattice integrability checks")
    p_lat.add_argument("action", choices=("rtt", "commute", "continuum"))
    p_lat.add_argument("--sites", type=int, required=True)
    p_lat.add_argument("--cutoff", type=int, default=4)
    p_lat.add_argument("--step", required=True)
    p_lat.add_argument("--coupling", required=True)
    p_lat.add_argument("--sector", type=int, default=1)
    p_lat.add_argument("--lam", default="0.7")
    p_lat.add_argument("--mu", default="1.3")
    p_lat.set_defaults(fn=_cmd_lattice)

    p_aop = sub.add_parser("aop", help="integral-operator checks")
    asub = p_aop.add_subparsers(dest="action", required=True)
    p_check = asub.add_parser("check")
    p_check.add_argument("--n", type=int, required=True)
    p_check.add_argument("--rapidities", required=True,
                         help="comma-separated rationals, e.g. '1/2,-3'")
    p_check.add_argument("--coupling", required=True,
                         help="rational coupling, e.g. '3/2'")
    p_check.add_argument("--lam", "--lambda", dest="lam", required=True,
                         help="complex rational 're,im' with im < 0")
    p_check.set_defaults(fn=_cmd_aop_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return USAGE_EXIT
    except FileNotFoundError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return USAGE_EXIT
    except (OverflowError, FloatingPointError, np.linalg.LinAlgError) as err:
        # finite inputs too large for floating-point arithmetic
        print(f"configuration error: input out of numeric range: {err}",
              file=sys.stderr)
        return USAGE_EXIT
    except QnlsError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
