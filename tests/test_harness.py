"""Configuration, report rendering, CLI surfaces and exit codes."""

import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qnls import lattice as lat
from qnls import suites
from qnls import transfer as tr
from qnls.cli import build_parser, main
from qnls.config import ALL_SUITES, ConfigError, build_config, parse_config_file
from qnls.exact import EXACT, FLOAT
from qnls.planewaves import ExpPoly
from qnls.report import (COMPARISONS, CheckRecord, VerificationReport, judge,
                         render_markdown)

ROOT = Path(__file__).resolve().parent.parent

# the accepted seed-2024 reports; a change that moves a byte of a report
# updates its file in the same commit
PINNED = {mode: ROOT / "tests" / "data" / f"report-2024-{mode}.json"
          for mode in ("exact", "float")}
# how far a float residual may move under another python or numpy
RESIDUAL_RTOL = 1e-9


class TestConfig:
    def test_defaults(self):
        cfg = build_config()
        assert cfg.mode == "exact" and cfg.suites == ALL_SUITES

    def test_file_values(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nmode = float\nseed = 9\n"
                        "suites = waves,bethe\n")
        cfg = build_config(parse_config_file(str(path)))
        assert cfg.mode == "float" and cfg.seed == 9
        assert cfg.suites == ("waves", "bethe")

    def test_cli_wins(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 9\n")
        cfg = build_config(parse_config_file(str(path)), seed=22)
        assert cfg.seed == 22

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(path))

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            build_config(suites=("nope",))

    def test_empty_suites_rejected(self, tmp_path):
        """A run that verifies nothing is a configuration error, not a pass."""
        path = tmp_path / "run.cfg"
        path.write_text("suites =\n")
        with pytest.raises(ConfigError, match="no suites"):
            build_config(parse_config_file(str(path)))
        out_dir = tmp_path / "out"
        assert main(["run", "all", "--config", str(path), "--out",
                     str(out_dir)]) == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("text, quiet", [("yes", True), ("TRUE", True),
                                             ("1", True), ("no", False),
                                             ("False", False), ("0", False)])
    def test_quiet_values(self, tmp_path, text, quiet):
        path = tmp_path / "run.cfg"
        path.write_text(f"quiet = {text}\n")
        assert build_config(parse_config_file(str(path))).quiet is quiet

    @pytest.mark.parametrize("text", ["ture", "on", ""])
    def test_misspelt_quiet_rejected(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(f"quiet = {text}\n")
        with pytest.raises(ConfigError, match="quiet"):
            build_config(parse_config_file(str(path)))


class TestReport:
    def test_empty_report_header_only(self):
        report = VerificationReport("exact", 1)
        md = render_markdown(report)
        assert md.startswith("# Conservation-law verification report")
        assert "|" not in md  # no table rows

    def test_single_failing_check_single_fail_row(self):
        report = VerificationReport("exact", 1)
        report.add(CheckRecord("a.one", "g", "x", {}, 1.0, 0.5, "fail"))
        report.add(CheckRecord("a.two", "g", "x", {}, 0.0, 0.5, "pass"))
        md = render_markdown(report)
        assert md.count("| FAIL |") == 1
        assert report.exit_code() == 1

    def test_counts_match_json(self):
        report = VerificationReport("exact", 3)
        for i, verdict in enumerate(("pass", "pass", "expected-mismatch")):
            report.add(CheckRecord(f"c.{i}", "g", "x", {}, None, None, verdict))
        doc = report.to_json_dict()
        assert doc["summary"]["pass"] == 2
        assert doc["summary"]["expected-mismatch"] == 1
        assert len(doc["checks"]) == doc["summary"]["total"]
        assert doc["schema"] == 1

    def test_checks_sorted_by_id(self):
        report = VerificationReport("exact", 1)
        report.add(CheckRecord("z.last", "g", "x", {}, None, None, "pass"))
        report.add(CheckRecord("a.first", "g", "x", {}, None, None, "pass"))
        ids = [c["check"] for c in report.to_json_dict()["checks"]]
        assert ids == sorted(ids)

    def test_bad_verdict_rejected(self):
        with pytest.raises(ValueError):
            CheckRecord("x", "g", "a", {}, None, None, "maybe")
        with pytest.raises(ValueError, match="comparison"):
            CheckRecord("x", "g", "a", {}, None, None, "pass", "", "==")


# residuals and tolerances as a check may report them, NaN and +-inf included
numbers = st.floats(allow_nan=True, allow_infinity=True)


class TestVerdicts:
    """Every verdict is report.judge's reading of the declared comparison."""

    @given(numbers, numbers)
    @settings(max_examples=300, deadline=None)
    def test_pass_means_the_comparison_holds(self, residual, tolerance):
        holds_under = {"<=": residual <= tolerance, "<": residual < tolerance,
                       ">": residual > tolerance, "exact-zero": residual == 0,
                       "predicate": True}
        assert set(holds_under) == set(COMPARISONS)
        for comparison, holds in holds_under.items():
            verdict = judge(comparison, residual, tolerance)
            assert verdict == ("pass" if holds else "fail")
            # the extra boolean can turn a pass into a fail, never back
            assert judge(comparison, residual, tolerance, False) == "fail"
            # a documented mismatch changes only what a failure is called
            assert judge(comparison, residual, tolerance, expected=True) \
                == ("pass" if holds else "expected-mismatch")
        if not (math.isnan(residual) or math.isnan(tolerance)):
            assert judge(">", residual, tolerance) \
                != judge("<=", residual, tolerance)

    def test_flipped_comparison_flips_the_verdict(self, monkeypatch):
        record = suites._record

        def flipped(records, check_id, anchor, params, comparison, fn, **kw):
            if check_id == "bethe.jacobian-positive":
                assert comparison == ">"
                comparison = "<="
            record(records, check_id, anchor, params, comparison, fn, **kw)

        def jacobian(cfg):
            return next(r for r in suites.run_bethe_suite(cfg)
                        if r.check_id == "bethe.jacobian-positive")
        cfg = build_config(seed=2024)
        assert jacobian(cfg).verdict == "pass"
        monkeypatch.setattr(suites, "_record", flipped)
        rec = jacobian(cfg)
        assert (rec.verdict, rec.comparison) == ("fail", "<=")
        assert rec.residual > 0.0 == rec.tolerance

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_pinned_verdicts_follow_from_their_numbers(self, mode):
        """Recomputed from its residual, tolerance and declared comparison,
        every non-predicate verdict of the pinned report comes out as
        pinned, and every one of its 77 records is matched."""
        pinned = {row["check"]: row for row in
                  json.loads(PINNED[mode].read_text())["checks"]}
        records = suites.run_suites(build_config(mode=mode, seed=2024)).checks
        assert sorted(rec.check_id for rec in records) == sorted(pinned)
        assert len(pinned) == 77
        for rec in records:
            row = pinned[rec.check_id]
            assert rec.verdict == row["verdict"], rec.check_id
            if rec.comparison == "predicate":
                continue
            residual = 0 if row["residual"] == "exact-zero" else row["residual"]
            documented = (row["params"].get("source"),
                          row["params"].get("order")) in tr.EXPECTED_MISMATCHES
            assert judge(rec.comparison, residual, row["tolerance"],
                         expected=documented) == row["verdict"], rec.check_id
        declared = [rec.comparison for rec in records]
        zero_sums = 9 if mode == "float" else 0   # _zero_check's <= FLOAT_TOL
        assert {c: declared.count(c) for c in COMPARISONS} == {
            "<=": 28 + zero_sums, "<": 6, ">": 2, "exact-zero": 22 - zero_sums,
            "predicate": 19}
        # two predicates carry a residual, as information only
        assert {rec.check_id for rec in records if rec.comparison == "predicate"
                and rec.residual is not None} \
            == {"lattice.cutoff-control", "lattice.ordering-breakdown"}

    def test_raising_check_is_a_failure(self, monkeypatch):
        def boom(*args):
            raise RuntimeError("boom")
        cfg = build_config(seed=2024)
        clean = suites.run_lattice_suite(cfg)
        monkeypatch.setattr(lat, "rtt_residual", boom)
        records = {rec.check_id: rec for rec in suites.run_lattice_suite(cfg)}
        assert sorted(records) == sorted(rec.check_id for rec in clean)
        rec = records["lattice.exchange-relation"]
        assert (rec.verdict, rec.detail, rec.residual, rec.tolerance) \
            == ("fail", "RuntimeError: boom", None, None)
        # the other checks still ran; those that call rtt_residual fail too
        failed = {cid for cid, rec in records.items() if rec.verdict == "fail"}
        assert failed == {"lattice.exchange-relation",
                          "lattice.exchange-trivial-cutoff", "lattice.pole-guard"}

    def test_zero_check_reports_the_size_left(self):
        """Under EXACT a sum that does not vanish is reported by its term
        count; under FLOAT a NaN coefficient fails."""
        left = ExpPoly.from_terms(2, [(1, (0, 1)), (3, (1, 2))], EXACT)
        records = []
        suites._zero_check(records, EXACT, "waves.left", "a", {},
                           lambda: [(left, 1.0), (left - left, 1.0)])
        suites._zero_check(records, EXACT, "waves.empty", "a", {},
                           lambda: [(left - left, 1.0)])
        nan = ExpPoly.from_terms(2, [(float("nan"), (0, 1))], FLOAT)
        suites._zero_check(records, FLOAT, "waves.nan", "a", {},
                           lambda: [(nan, 1.0), (nan - nan, 1.0)])
        assert [(r.comparison, r.residual, r.verdict) for r in records[:2]] \
            == [("exact-zero", 2, "fail"), ("exact-zero", "exact-zero", "pass")]
        assert records[2].comparison == "<=" and records[2].verdict == "fail"


class TestSuiteIntegration:
    def test_transfer_suite_flags_documented_slots(self):
        from qnls.suites import run_transfer_suite
        cfg = build_config(suites=("transfer",), seed=4)
        checks = run_transfer_suite(cfg)
        verdicts = [c.verdict for c in checks]
        assert verdicts.count("expected-mismatch") == 5
        assert verdicts.count("fail") == 0

    def test_conventions_recorded(self):
        from qnls.suites import run_suites
        cfg = build_config(suites=("bethe",), seed=4)
        report = run_suites(cfg)
        assert "quantum_numbers" in report.conventions
        assert "exchange_ordering" in report.conventions
        assert report.summary()["fail"] == 0


class TestCli:
    def test_run_waves_exit_zero(self, tmp_path, capsys):
        code = main(["run", "waves", "--out", str(tmp_path), "--quiet",
                     "--seed", "3"])
        assert code == 0
        report = json.loads((tmp_path / "latest" / "report.json").read_text())
        assert report["checks"]
        assert all(c["check"].startswith("waves.") for c in report["checks"])
        assert (tmp_path / "latest" / "report.md").exists()

    def test_run_all_takes_no_suite_names(self, tmp_path, capsys):
        assert main(["run", "all", "waves", "--out", str(tmp_path)]) == 2
        assert "`run all` takes no suite names" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_run_json_stdout(self, tmp_path, capsys):
        code = main(["run", "bethe", "--out", str(tmp_path), "--json",
                     "--seed", "3"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert code == 0
        assert doc["schema"] == 1
        assert doc["summary"]["fail"] == 0

    def test_corrupted_config_exit_two_no_report(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no equals sign here\n")
        out_dir = tmp_path / "out"
        code = main(["run", "all", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 2
        assert not out_dir.exists()

    def test_missing_config_exit_two(self, tmp_path):
        code = main(["run", "all", "--config", str(tmp_path / "absent.cfg")])
        assert code == 2

    def test_bethe_solve_json(self, capsys):
        code = main(["bethe", "solve", "--n", "2", "--box", "6.283185307179586",
                     "--coupling", "1.0"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["residual_product"] < 1e-10
        assert doc["quantum_numbers"] == ["-1/2", "1/2"]

    def test_bethe_solve_custom_numbers(self, capsys):
        code = main(["bethe", "solve", "--box", "6.283185307179586",
                     "--coupling", "2.0", "--quantum-numbers", "3"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["rapidities"][0] == pytest.approx(3.0)

    def test_expand_transfer(self, capsys):
        code = main(["expand", "transfer", "--n", "2", "--box",
                     "6.283185307179586", "--coupling", "1.5"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert "order" not in doc
        assert len(doc["oracle_coefficients"]) == 4
        assert "markdown_summary" in doc
        verdicts = {(v["source"], v["order"]): v["verdict"]
                    for v in doc["verdicts"]}
        assert verdicts[("charge_constants", 1)] == "pass"
        assert len(doc["h1_alternative"]) == 8

    def test_expand_transfer_rational_rapidities(self, capsys):
        code = main(["expand", "transfer", "--rapidities", "3,1,2",
                     "--coupling", "3/2"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["rapidities"] == ["1", "2", "3"]
        assert doc["coupling"] == "3/2" and "box_length" not in doc
        verdicts = {(v["source"], v["order"]): v["verdict"]
                    for v in doc["verdicts"]}
        flagged = {slot for slot, verdict in verdicts.items()
                   if verdict == "expected-mismatch"}
        assert flagged == {("charge_constants", 3), ("charge_constants", 4),
                           ("eigenvalue_expansion", 2),
                           ("eigenvalue_expansion", 3),
                           ("log_operator_expansion", 4)}
        assert set(verdicts.values()) == {"pass", "expected-mismatch"}
        # the H1 -> p1 reading holds at order 1 only, in both charge forms
        alternative = {(v["source"], v["order"]): v["verdict"]
                       for v in doc["h1_alternative"]}
        assert alternative == {
            (source, m): "pass" if m == 1 else "mismatch"
            for source in ("charge_constants", "log_operator_expansion")
            for m in (1, 2, 3, 4)}

    def test_charges_defect_short_scan(self, capsys):
        code = main(["charges", "defect", "--m-min", "2", "--m-max", "6"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["n"] == 2 and doc["box_length"] == 2.0 * math.pi
        assert [r["width"] for r in doc["rows"]] \
            == [2.0 ** -m for m in range(6, 1, -1)]
        assert abs(doc["slope"] + 1.0) <= 0.05
        # each remainder belongs to the width of its own row
        for r in doc["rows"]:
            assert r["remainder"] == r["defect"] - doc["amplitude"] / r["width"]

    @pytest.mark.parametrize("argv", [
        ["bethe", "solve", "--box", "6", "--coupling", "1",
         "--quantum-numbers", ","],
        ["charges", "defect", "--rapidities", "1,2,3", "--m-min", "0",
         "--m-max", "3"],
        ["expand", "transfer", "--rapidities", ",", "--coupling", "1"],
        ["aop", "check", "--rapidities", ",", "--coupling", "1",
         "--lam", "1,-1"],
        ["expand", "transfer", "--rapidities", "1,1", "--coupling", "1"],
    ], ids=["bethe-no-particles", "defect-width-too-wide-at-three",
            "transfer-no-particles", "aop-no-particles",
            "transfer-coincident-rapidities"])
    def test_domain_errors_exit_one(self, argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("error:") == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    def test_lattice_rtt(self, capsys):
        code = main(["lattice", "rtt", "--sites", "1", "--cutoff", "4",
                     "--step", "0.3", "--coupling", "1.3",
                     "--lam", "0.4+0.2j", "--mu", "1.1-0.3j"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert float(doc["residual"]) < 1e-12

    def test_lattice_commute(self, capsys):
        code = main(["lattice", "commute", "--sites", "3", "--cutoff", "4",
                     "--step", "0.3", "--coupling", "1.0", "--sector", "2"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["commutator_norm"] < 1e-12

    def test_lattice_continuum_fits(self, capsys):
        # the continuum orders and the two-site ordering-defect fit in one
        # document; the exit code follows the continuum orders only
        code = main(["lattice", "continuum", "--length", str(2.0 * math.pi),
                     "--coupling", "1.0", "--lam", "0.9"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["order_vacuum_normalized"] >= 1.0
        assert doc["order_one_particle_normalized"] >= 1.0
        rate = doc["ordering_defect_rate"]
        assert [step for step, _ in rate["rows"]] == list(lat.ORDERING_STEPS)
        assert rate["order"] == pytest.approx(2.0, abs=0.25)

    def test_aop_check(self, capsys):
        code = main(["aop", "check", "--rapidities=-1,3/2",
                     "--coupling", "2", "--lam", "1/3,-2"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["diagonality_residual"] == 0.0
        assert doc["pde_residual_terms"] == 0

    @pytest.mark.parametrize("c", ["1e-320", "1e-200"])
    def test_expand_transfer_subnormal_coupling(self, c, capsys):
        # the solve inside runs without a RuntimeWarning, which the tests
        # make an error
        assert main(["expand", "transfer", "--n", "2", "--box", "6",
                     "--coupling", c]) == 0
        capsys.readouterr()

    def test_aop_check_rejects_upper_half_plane(self, capsys):
        code = main(["aop", "check", "--rapidities", "1",
                     "--coupling", "1", "--lam", "1/3,2"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["aop", "check", "--rapidities", "1", "--coupling", "1",
         "--lam", "1"],
        ["aop", "check", "--rapidities", "1,x", "--coupling", "1",
         "--lam", "1,-1"],
        ["aop", "check", "--rapidities", "1", "--coupling", "0",
         "--lam", "1,-1"],
        ["lattice", "rtt", "--sites", "2", "--step", "0.3", "--coupling", "1",
         "--lam", "abc"],
        ["lattice", "rtt", "--sites", "0", "--step", "0.3", "--coupling", "1"],
        ["bethe", "solve", "--n", "2", "--box", "nan", "--coupling", "1"],
        ["bethe", "solve", "--n", "2", "--box", "6.283", "--coupling", "nan"],
        ["bethe", "solve", "--n", "2", "--box", "1e400", "--coupling", "1"],
        ["lattice", "rtt", "--sites", "2", "--step", "0.3", "--coupling",
         "nan"],
        ["lattice", "commute", "--sites", "2", "--step", "nan", "--coupling",
         "1"],
        ["lattice", "rtt", "--sites", "2", "--step", "0.3", "--coupling", "1",
         "--lam", "inf"],
        ["lattice", "rtt", "--sites", "2", "--step", "0.3", "--coupling", "1",
         "--mu", "1+nanj"],
        ["lattice", "continuum", "--length", "0.6", "--coupling", "1",
         "--lam", "nan"],
        # the ordering-defect fit needs an occupation of 2 on a site
        *(["lattice", "continuum", "--length", "6.4", "--coupling", "1",
           "--cutoff", cutoff] for cutoff in ("2", "0", "-1")),
        *(["lattice", "continuum", "--length", length, "--coupling", "1"]
          for length in ("0", "-1", "inf")),
        ["lattice", "continuum", "--length", "6.4", "--coupling", "0"],
        ["lattice", "commute", "--sites", "2", "--step", "0.3", "--coupling",
         "1", "--sector", "-1"],
        ["run", "all", "waves"],
        ["expand", "transfer", "--n", "2", "--box", "nan", "--coupling", "1"],
        # finite but too large: OverflowError, or LinAlgError from the
        # overflowed matrices
        ["bethe", "solve", "--n", "2", "--box", "6", "--coupling", "1e300"],
        ["lattice", "continuum", "--length", "0.6", "--coupling", "1",
         "--lam", "1e300"],
        ["lattice", "rtt", "--sites", "2", "--step", "1e300", "--coupling",
         "1"],
        ["lattice", "commute", "--sites", "2", "--step", "0.3", "--coupling",
         "1e300"],
        # finite but overflowing inside the lattice engines: FloatingPointError
        ["lattice", "continuum", "--length", "0.6", "--coupling", "1e200"],
        ["lattice", "rtt", "--sites", "2", "--step", "0.3", "--coupling",
         "1e150"],
        ["expand", "transfer", "--rapidities", "1,2,3", "--n", "3", "--box",
         "6.283", "--coupling", "3/2"],
        ["expand", "transfer", "--coupling", "3/2"],
        ["expand", "transfer", "--n", "3", "--coupling", "1"],
        ["expand", "transfer", "--rapidities", "1,2,3", "--coupling=-3/2"],
        ["expand", "transfer", "--rapidities", "1,2,3", "--coupling", "nan"],
        ["expand", "transfer", "--rapidities", "1,x", "--coupling", "3/2"],
        *(["charges", "defect", "--rapidities", raps]
          for raps in ("1", "1,2,3,4")),
        *(["charges", "defect", "--box", box] for box in ("-1", "0", "nan")),
        ["charges", "defect", "--m-min", "5", "--m-max", "4"],
        ["charges", "defect", "--m-min", "4", "--m-max", "4"],
        *(["charges", "defect", "--coupling", c]
          for c in ("x", "nan", "inf", "0", "-0.5")),
        ["charges", "defect", "--rapidities", "1,nan"],
        # out of floating-point range: the defect overflows, or the square
        # of a width underflows to 0
        ["charges", "defect", "--rapidities", "1e300,2"],
        ["charges", "defect", "--m-min", "600", "--m-max", "604"],
        ["charges", "defect", "--m-min", "1070", "--m-max", "1074"],
        # the first width itself underflows to 0
        ["charges", "defect", "--m-max", "1075"],
        ["charges", "defect", "--m-max", "100000000"],
    ], ids=["lam-one-part", "rapidity-not-a-number", "coupling-zero",
            "lattice-lam-not-a-number", "zero-sites", "bethe-box-nan",
            "bethe-coupling-nan", "bethe-box-overflow", "lattice-coupling-nan",
            "lattice-step-nan", "lattice-lam-inf", "lattice-mu-nan",
            "continuum-lam-nan", "continuum-cutoff-two",
            "continuum-cutoff-zero", "continuum-cutoff-negative",
            "continuum-length-zero", "continuum-length-negative",
            "continuum-length-inf", "continuum-coupling-zero",
            "commute-sector-negative", "run-all-and-suites",
            "transfer-box-nan",
            "bethe-coupling-overflow", "continuum-lam-overflow",
            "rtt-step-overflow",
            "commute-coupling-overflow", "continuum-coupling-overflow",
            "rtt-coupling-overflow", "transfer-both-forms",
            "transfer-neither-form", "transfer-n-without-box",
            "transfer-rational-coupling-negative",
            "transfer-rational-coupling-nan", "transfer-rapidity-not-rational",
            "defect-one-rapidity", "defect-four-rapidities",
            "defect-box-negative", "defect-box-zero", "defect-box-nan",
            "defect-m-min-above-m-max", "defect-one-width",
            "defect-coupling-not-a-number", "defect-coupling-nan",
            "defect-coupling-inf", "defect-coupling-zero",
            "defect-coupling-negative", "defect-rapidity-nan",
            "defect-rapidity-overflow", "defect-width-square-underflow",
            "defect-width-overflow", "defect-width-underflow",
            "defect-width-underflow-far"])
    def test_malformed_numbers_are_usage_errors(self, argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err and "Traceback" not in err
        if "--cutoff" in argv:
            assert "need cutoff >= 3" in err

    def test_continuum_with_nothing_to_fit_is_usage_error(self, capsys):
        """A box so small that every lattice error is exactly 0 has no
        convergence rate; the verb says so instead of failing the fit."""
        code = main(["lattice", "continuum", "--length", "1e-300",
                     "--coupling", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "is 0 at box length 1e-300" in err


@pytest.mark.parametrize("argv", [
    ["lattice", "rtt", "--sites", "1", "--step", "0.3", "--coupling", "1",
     "--sector", "2"],
    ["lattice", "continuum", "--length", "6.3", "--coupling", "1",
     "--mu", "1"],
    *(["lattice", "continuum", "--length", "6.3", "--coupling", "1",
       option, value] for option, value in (("--sites", "8"),
                                            ("--step", "0.8"))),
    ["expand", "transfer", "--n", "2", "--box", "6.283", "--coupling", "1",
     "--order", "6"],
    ["aop", "check", "--n", "2", "--rapidities=-1,3/2", "--coupling", "2",
     "--lam", "1/3,-2"],
    ["bethe", "solve", "--n", "3", "--quantum-numbers=-1,0,1", "--box", "6",
     "--coupling", "1"],
    ["bethe", "solve", "--box", "6", "--coupling", "1"],
    ["verify", "waves"],
    ["run"],
    ["lattice", "--sites", "1", "--step", "0.3", "--coupling", "1"],
], ids=["rtt-sector", "continuum-mu", "continuum-sites", "continuum-step",
        "transfer-order", "aop-n", "bethe-n-and-quantum-numbers",
        "bethe-neither-n-nor-quantum-numbers", "verify", "run-nothing",
        "lattice-no-action"])
def test_unread_options_are_usage_errors(argv, capsys):
    """Each verb accepts only the inputs it reads."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_readme_commands_parse(tmp_path, monkeypatch, capsys):
    """Every qnls line of the README parses, and together they show each
    verb, so the README cannot name an option or a form the CLI lacks.
    Each line but the suite runs also runs, with exit code 0."""
    parser = build_parser()
    argvs = [shlex.split(line, comments=True)[1:] for line in (
        ROOT / "README.md").read_text(encoding="utf-8").splitlines()
        if line.startswith("qnls ")]
    verbs = {parser.parse_args(argv).command for argv in argvs}
    choices = next(a.choices for a in parser._actions
                   if a.dest == "command")
    assert verbs == set(choices)
    monkeypatch.chdir(tmp_path)
    for argv in argvs:
        if argv[0] != "run":
            assert main(argv) == 0, argv
    assert list(tmp_path.iterdir()) == []


def test_no_scipy_in_sources():
    """No computation or report field comes from scipy: the one line left
    naming it is the lazy import in the body of charges.__getattr__, run
    only when perfbench/tracer.py asks for charges.integrate."""
    files = sorted((ROOT / "src" / "qnls").glob("*.py"))
    assert files
    held = ("charges.py", "        from scipy import integrate")
    offenders = [(path.name, line) for path in files
                 for line in path.read_text(encoding="utf-8").splitlines()
                 if "scipy" in line and (path.name, line) != held]
    assert offenders == []


# the variables OpenBLAS reads its thread count from, in its order
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                         "OMP_NUM_THREADS")


def fresh_env(**threads: str) -> dict:
    """This process's environment for a fresh interpreter that imports
    qnls from this checkout, with only the given BLAS thread variables."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env.update(threads)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


BLAS_THREADS_SCRIPT = """\
import ctypes, json, os
before = dict(os.environ)
import qnls
def blas_threads():
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line and line.rstrip().endswith(".so")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None
print(json.dumps({"threads": blas_threads(),
                  "environ_kept": dict(os.environ) == before}))
"""


@pytest.mark.parametrize("threads,expected", [
    ({}, 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2),
    ({"GOTO_NUM_THREADS": "2"}, 2),
    ({"OMP_NUM_THREADS": "2"}, 2),
], ids=["default", "openblas-2", "goto-2", "omp-2"])
def test_blas_thread_default(threads, expected):
    """``import qnls`` in a fresh interpreter loads OpenBLAS on one thread
    unless a thread variable is set, which it keeps, and leaves
    os.environ as it found it."""
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps to find the BLAS library")
    if expected > (os.cpu_count() or 1):
        pytest.skip("OpenBLAS caps its threads at the CPUs present")
    proc = subprocess.run([sys.executable, "-c", BLAS_THREADS_SCRIPT],
                          capture_output=True, text=True,
                          env=fresh_env(**threads), timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    if doc["threads"] is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    assert doc == {"threads": expected, "environ_kept": True}


@pytest.mark.parametrize("mode,threads", [
    pytest.param("exact", {}, id="exact"),
    pytest.param("float", {}, id="float"),
    pytest.param("exact", {"OPENBLAS_NUM_THREADS": "2"}, id="exact-openblas-2"),
    pytest.param("float", {"OPENBLAS_NUM_THREADS": "2"}, id="float-openblas-2"),
])
def test_run_all_loads_no_scipy(tmp_path, mode, threads):
    """In a fresh interpreter neither importing the CLI nor a full run
    loads any scipy module; the run passes, reports all 77 checks and
    writes the pinned report (``report_moves``), on qnls's default of one
    BLAS thread and on two."""
    script = (
        "import json, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m == 'scipy' or m.startswith('scipy.'))\n"
        "import qnls.cli\n"
        "after_import = loaded()\n"
        "code = qnls.cli.main(['run', 'all', '--seed', '2024', '--quiet',\n"
        "                      '--mode', sys.argv[2], '--out', sys.argv[1]])\n"
        "print(json.dumps({'code': code, 'after_import': after_import,\n"
        "                  'after_run': loaded()}))\n")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path), mode],
                          capture_output=True, text=True,
                          env=fresh_env(**threads), timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc == {"code": 0, "after_import": [], "after_run": []}
    fresh = (tmp_path / "latest" / "report.json").read_text()
    report = json.loads(fresh)
    assert report["mode"] == mode and len(report["checks"]) == 77
    pinned = PINNED[mode].read_text()
    if fresh != pinned:
        comparison, moved = report_moves(json.loads(pinned), report)
        assert not moved, (f"report moved from {PINNED[mode].name} "
                           f"({comparison}):\n" + "\n".join(moved))
        assert comparison != "exact", \
            f"{PINNED[mode].name}: same fields, different bytes"


def report_moves(pinned: dict, fresh: dict) -> tuple[str, list[str]]:
    """The comparison that applies and one line per moved field: check
    id, field, old value -> new value.

    Under the pinned python and numpy every field must match exactly.
    Under others a float residual may move with the LAPACK build, so it
    need only agree to RESIDUAL_RTOL relative; every other field, the
    verdicts included, must still match exactly.
    """
    exact = pinned["environment"] == fresh["environment"]
    comparison = "exact" if exact else (
        f"environment {fresh['environment']} against {pinned['environment']}: "
        f"residuals to {RESIDUAL_RTOL:g} relative, all else exact")

    def same(field, old, new):
        if json.dumps(old) == json.dumps(new):
            return True
        return (not exact and field == "residual"
                and all(type(v) is float for v in (old, new))
                and math.isclose(old, new, rel_tol=RESIDUAL_RTOL))

    moved = [f"report {key}: {pinned.get(key)!r} -> {fresh.get(key)!r}"
             for key in sorted(pinned.keys() | fresh.keys())
             if key not in ("checks", "environment")
             and not same(key, pinned.get(key), fresh.get(key))]
    old = {c["check"]: c for c in pinned["checks"]}
    new = {c["check"]: c for c in fresh["checks"]}
    moved += [f"{check}: dropped" for check in old.keys() - new.keys()]
    moved += [f"{check}: added" for check in new.keys() - old.keys()]
    for check in old.keys() & new.keys():
        a, b = old[check], new[check]
        moved += [f"{check} {field}: {a.get(field)!r} -> {b.get(field)!r}"
                  for field in sorted(a.keys() | b.keys())
                  if not same(field, a.get(field), b.get(field))]
    return comparison, sorted(moved)


def _pinned(mode: str) -> dict:
    return json.loads(PINNED[mode].read_text())


def test_report_moves_name_each_moved_field():
    pinned = _pinned("exact")
    fresh = json.loads(json.dumps(pinned))
    assert report_moves(pinned, fresh) == ("exact", [])
    # one ulp on one residual, and one flipped verdict
    check = next(c for c in fresh["checks"] if type(c["residual"]) is float
                 and c["residual"] > 0)
    old_residual = check["residual"]
    check["residual"] = math.nextafter(old_residual, math.inf)
    flipped = fresh["checks"][0]
    flipped["verdict"] = "fail"
    comparison, moved = report_moves(pinned, fresh)
    assert comparison == "exact"
    assert moved == sorted([
        f"{check['check']} residual: {old_residual!r} -> {check['residual']!r}",
        f"{flipped['check']} verdict: 'pass' -> 'fail'"])
    # under another numpy the residual passes at 1e-9; the verdict never does
    fresh["environment"] = dict(fresh["environment"], numpy="0.0")
    comparison, moved = report_moves(pinned, fresh)
    assert comparison.startswith("environment") and "1e-09 relative" in comparison
    assert moved == [f"{flipped['check']} verdict: 'pass' -> 'fail'"]
    check["residual"] = old_residual * (1 + 1e-8)
    assert len(report_moves(pinned, fresh)[1]) == 2
    dropped = fresh["checks"].pop()
    assert f"{dropped['check']}: dropped" in report_moves(pinned, fresh)[1]


def test_pinned_reports_agree_across_modes():
    """Both fields run the same checks with the same verdicts."""
    exact, float_ = _pinned("exact"), _pinned("float")
    assert (exact["mode"], float_["mode"]) == ("exact", "float")
    assert [(c["check"], c["verdict"]) for c in exact["checks"]] \
        == [(c["check"], c["verdict"]) for c in float_["checks"]]
