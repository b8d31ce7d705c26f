"""Command-line entry points.

Verbs:
    run all | <suite ...>   run every suite or the named ones, write reports
    bethe solve             solve the finite-box root equations
    expand transfer         expansion oracle + printed-table adjudication
    charges defect          1/width divergence of the naive quartic charge
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

from . import charges as ch
from . import integral_operator as aop
from . import lattice as lat
from . import transfer as tr
from .bethe import BoxSpec, QuantumNumbers, ground_state_quantum_numbers, solve
from .config import ALL_SUITES, ConfigError, build_config, parse_config_file
from .errors import DomainError, QnlsError
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


def _parse_list(kind, text: str, option: str) -> list:
    return [_parse(kind, tok.strip(), option)
            for tok in text.split(",") if tok.strip()]


def _rapidity_set(values: list) -> RapiditySet:
    """The rapidities of a state of at least one particle."""
    if not values:
        raise DomainError("need at least one particle")
    return RapiditySet.of(values)


def _cmd_run(args) -> int:
    if "all" in args.suites and len(args.suites) > 1:
        raise ConfigError("`run all` takes no suite names")
    # `run all` leaves the suites to a config file's `suites =`
    suites = None if args.suites == ["all"] else args.suites
    return _run_and_report(_load_config(args, suites=suites))


def _cmd_bethe_solve(args) -> int:
    _parse_floats(args, "box", "coupling")
    qn = ground_state_quantum_numbers(args.n) if args.quantum_numbers is None \
        else QuantumNumbers.of(_parse_list(Fraction, args.quantum_numbers,
                                           "--quantum-numbers"))
    sol = solve(BoxSpec(args.box, args.coupling, len(qn)), qn)
    print(json.dumps(sol.to_json_dict(), sort_keys=True, indent=2))
    return 0


def _verdict_rows(verdicts) -> list:
    return [{"source": v.source, "order": v.order,
             "printed": str(complex(v.printed)),
             "oracle": str(complex(v.oracle)),
             "verdict": v.verdict} for v in verdicts]


def _cmd_expand_transfer(args) -> int:
    if args.rapidities is None:
        if args.n is None or args.box is None:
            raise ConfigError("give --rapidities, or --n with --box")
        _parse_floats(args, "box", "coupling")
        sol = solve(BoxSpec(args.box, args.coupling, args.n),
                    ground_state_quantum_numbers(args.n))
        ks = [float(v) for v in sol.rapidities.values]
        c = args.coupling
        inputs = {"n": args.n, "box_length": args.box, "coupling": c,
                  "rapidities": ks}
    else:
        if args.n is not None or args.box is not None:
            raise ConfigError("--rapidities replaces --n and --box")
        ks = list(_rapidity_set(_parse_list(Fraction, args.rapidities,
                                            "--rapidities")).values)
        c = _parse(lambda t: Coupling(Fraction(t)).c, args.coupling,
                   "--coupling")
        inputs = {"n": len(ks), "coupling": str(c),
                  "rapidities": [str(k) for k in ks]}
    result = tr.charge_coefficients_from_formulas(ks, c)
    rows = _verdict_rows(result.verdicts)
    lines = ["| source | order | verdict |", "|---|---|---|"]
    lines += [f"| {r['source']} | {r['order']} | {r['verdict']} |"
              for r in rows]
    payload = {
        **inputs,
        "oracle_coefficients": [str(complex(v)) for v in result.oracle],
        "oracle_log_coefficients": [str(complex(v)) for v in result.oracle_log],
        "verdicts": rows,
        "h1_alternative": _verdict_rows(result.h1_alternative),
        "markdown_summary": "\n".join(lines),
    }
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0 if not result.has_unexpected_mismatch() else 1


def _cmd_charges_defect(args) -> int:
    raps = _parse_list(float, args.rapidities, "--rapidities")
    if len(raps) not in (2, 3):
        raise ConfigError(f"bad --rapidities value {args.rapidities!r}: "
                          "the scan takes 2 or 3 rapidities")
    coupling = _parse(lambda t: Coupling(float(t)), args.coupling,
                      "--coupling")
    box = _parse(float, args.box, "--box")
    if box <= 0:
        raise ConfigError(f"bad --box value {args.box!r}: not positive")
    if args.m_min >= args.m_max:
        raise ConfigError("--m-min must be below --m-max: the slope needs "
                          "two widths")
    if 2.0 ** -args.m_max == 0.0:
        raise FloatingPointError(f"the width 2^-{args.m_max} underflows to 0")
    w = build_bethe(RapiditySet.of(raps), coupling)
    # ascending widths, the order of the remainders; lazily, so a width
    # whose square underflows stops the scan before the rest is built
    widths = (2.0 ** -m for m in range(args.m_max, args.m_min - 1, -1))
    # an overflow, or a width whose square underflows, is a usage error
    with np.errstate(over="raise", invalid="raise"):
        scan = ch.g4_defect_scan(w, widths, box)
        amplitude, remainders = ch.one_over_eps_remainders(scan)
    payload = {
        "n": len(raps), "rapidities": raps, "coupling": coupling.c,
        "box_length": box,
        "rows": [{"width": e, "defect": v, "remainder": r}
                 for (e, v), r in zip(scan, remainders)],
        "slope": ch.fit_loglog_slope(scan),
        "amplitude": amplitude,
    }
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


# Each lattice action treats a floating-point overflow or invalid value on
# finite input as a usage error, not a traceback or a numpy warning.

@np.errstate(over="raise", invalid="raise")
def _cmd_lattice(args) -> int:
    """``lattice rtt`` and ``lattice commute``."""
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
        return 0 if res["residual"] < lat.IDENTITY_TOL else 1
    if args.sector < 0:
        raise ConfigError(f"bad --sector value {args.sector}: negative")
    norm = lat.tau_commutator_norm(lam, mu, spec, args.sector)
    payload = {"sites": args.sites, "cutoff": args.cutoff,
               "sector": args.sector, "commutator_norm": norm}
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0 if norm < lat.IDENTITY_TOL else 1


@np.errstate(over="raise", invalid="raise")
def _cmd_lattice_continuum(args) -> int:
    _parse_floats(args, "length", "coupling")
    for dest in ("length", "coupling"):
        if getattr(args, dest) <= 0:
            raise ConfigError(f"bad --{dest} value {getattr(args, dest)!r}: "
                              "not positive")
    lam = _parse(complex, args.lam, "--lam")
    try:
        rep = lat.continuum_limit_rate(args.coupling, args.length, lam)
        rate = lat.ordering_defect_rate(args.coupling, args.cutoff, lam)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    payload = {"length": args.length, **rep, "ordering_defect_rate": rate}
    print(json.dumps(payload, sort_keys=True, indent=2, default=str))
    ok = all(rep[key] >= floor for key, floor in lat.CONTINUUM_MIN_ORDER.items())
    return 0 if ok else 1


def _cmd_aop_check(args) -> int:
    lam_parts = _parse_list(Fraction, args.lam, "--lam")
    if len(lam_parts) != 2:
        raise ConfigError(f"bad --lam value {args.lam!r}: expected 're,im'")
    re_part, im_part = lam_parts
    if im_part >= 0:
        raise ConfigError("lambda must have negative imaginary part")
    raps = _parse_list(Fraction, args.rapidities, "--rapidities")
    coupling = _parse(lambda t: Coupling(Fraction(t)), args.coupling,
                      "--coupling")
    w = build_bethe(_rapidity_set(raps), coupling)
    lam = aop.SpectralParameter(exact(re_part, im_part))
    measured, residual = aop.eigenvalue_check(lam, w)
    expected = aop.bethe_eigenvalue(lam, w.rapidities.values,
                                    w.coupling.c, EXACT)
    g = aop.apply_A(lam, w.canonical, w.coupling.c)
    pde, boundary = aop.bvp_residual(lam, w.canonical, g, w.coupling.c)
    payload = {
        "n": len(raps),
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

    p_run = sub.add_parser("run", help="run verification suites")
    p_run.add_argument("suites", nargs="+", choices=("all",) + ALL_SUITES,
                       help="all, or suite names")
    _add_common(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_bethe = sub.add_parser("bethe", help="finite-box root equations")
    bsub = p_bethe.add_subparsers(dest="action", required=True)
    p_solve = bsub.add_parser("solve")
    p_solve.add_argument("--box", required=True)
    p_solve.add_argument("--coupling", required=True)
    state = p_solve.add_mutually_exclusive_group(required=True)
    state.add_argument("--n", type=int,
                       help="particle count of the ground state")
    state.add_argument("--quantum-numbers", dest="quantum_numbers",
                       help="comma-separated quantum numbers in place of "
                            "--n, e.g. '-1/2,3/2'")
    p_solve.set_defaults(fn=_cmd_bethe_solve)

    p_expand = sub.add_parser("expand", help="transfer-eigenvalue expansion")
    esub = p_expand.add_subparsers(dest="action", required=True)
    p_tr = esub.add_parser("transfer")
    p_tr.add_argument("--n", type=int,
                      help="particle count of the box ground state")
    p_tr.add_argument("--box", help="box length for --n")
    p_tr.add_argument("--rapidities",
                      help="comma-separated rationals in place of --n and "
                           "--box, judged in exact arithmetic, e.g. '1,2,3'")
    p_tr.add_argument("--coupling", required=True,
                      help="a rational with --rapidities, e.g. '3/2'")
    p_tr.set_defaults(fn=_cmd_expand_transfer)

    p_charges = sub.add_parser("charges", help="conserved-charge studies")
    csub = p_charges.add_subparsers(dest="action", required=True)
    p_defect = csub.add_parser("defect", help="Gaussian deltas of width 2^-m")
    p_defect.add_argument("--rapidities", default="1,2",
                          help="2 or 3 comma-separated reals")
    p_defect.add_argument("--coupling", default="0.5")
    p_defect.add_argument("--box", default=str(2.0 * np.pi))
    p_defect.add_argument("--m-min", type=int, default=2)
    p_defect.add_argument("--m-max", type=int, default=12)
    p_defect.set_defaults(fn=_cmd_charges_defect)

    p_lat = sub.add_parser("lattice", help="lattice integrability checks")
    lsub = p_lat.add_subparsers(dest="action", required=True)
    p_rtt = lsub.add_parser("rtt", help="exchange relation")
    p_commute = lsub.add_parser("commute", help="transfer commutator on one "
                                                "number sector")
    fit_sites = ", ".join(map(str, lat.CONTINUUM_SITES))
    p_cont = lsub.add_parser("continuum", help=f"continuum fit at {fit_sites} "
                             "sites, ordering-defect fit on two")
    for p in (p_rtt, p_commute, p_cont):
        p.add_argument("--coupling", required=True)
        p.add_argument("--cutoff", type=int, default=4)
        p.add_argument("--lam", default="0.7")
    for p in (p_rtt, p_commute):
        p.add_argument("--sites", type=int, required=True)
        p.add_argument("--step", required=True)
        p.add_argument("--mu", default="1.3")
        p.set_defaults(fn=_cmd_lattice)
    p_commute.add_argument("--sector", type=int, default=1)
    p_cont.add_argument("--length", required=True, help="box length L")
    p_cont.set_defaults(fn=_cmd_lattice_continuum)

    p_aop = sub.add_parser("aop", help="integral-operator checks")
    asub = p_aop.add_subparsers(dest="action", required=True)
    p_check = asub.add_parser("check")
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
    except (ConfigError, FileNotFoundError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return USAGE_EXIT
    except (OverflowError, ZeroDivisionError, FloatingPointError,
            np.linalg.LinAlgError) as err:
        # finite inputs too large for floating-point arithmetic
        print(f"configuration error: input out of numeric range: {err}",
              file=sys.stderr)
        return USAGE_EXIT
    except QnlsError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
