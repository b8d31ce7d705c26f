"""Configuration, report rendering, CLI surfaces and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qnls.cli import main
from qnls.config import ALL_SUITES, ConfigError, build_config, parse_config_file
from qnls.report import CheckRecord, VerificationReport, render_markdown

ROOT = Path(__file__).resolve().parent.parent


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
    def test_verify_waves_exit_zero(self, tmp_path, capsys):
        code = main(["verify", "waves", "--out", str(tmp_path), "--quiet",
                     "--seed", "3"])
        assert code == 0
        assert (tmp_path / "latest" / "report.json").exists()
        assert (tmp_path / "latest" / "report.md").exists()

    def test_verify_json_stdout(self, tmp_path, capsys):
        code = main(["verify", "bethe", "--out", str(tmp_path), "--json",
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
        code = main(["bethe", "solve", "--n", "1", "--box", "6.283185307179586",
                     "--coupling", "2.0", "--quantum-numbers", "3"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["rapidities"][0] == pytest.approx(3.0)

    def test_expand_transfer(self, capsys):
        code = main(["expand", "transfer", "--n", "2", "--box",
                     "6.283185307179586", "--coupling", "1.5", "--order", "6"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(doc["oracle_coefficients"]) == 4
        assert "markdown_summary" in doc
        verdicts = {(v["source"], v["order"]): v["verdict"]
                    for v in doc["verdicts"]}
        assert verdicts[("charge_constants", 1)] == "pass"

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

    def test_aop_check(self, capsys):
        code = main(["aop", "check", "--n", "2", "--rapidities=-1,3/2",
                     "--coupling", "2", "--lam", "1/3,-2"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["diagonality_residual"] == 0.0
        assert doc["pde_residual_terms"] == 0

    def test_aop_check_rejects_upper_half_plane(self, capsys):
        code = main(["aop", "check", "--n", "1", "--rapidities", "1",
                     "--coupling", "1", "--lam", "1/3,2"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["aop", "check", "--n", "1", "--rapidities", "1", "--coupling", "1",
         "--lam", "1"],
        ["aop", "check", "--n", "2", "--rapidities", "1,x", "--coupling", "1",
         "--lam", "1,-1"],
        ["aop", "check", "--n", "1", "--rapidities", "1", "--coupling", "0",
         "--lam", "1,-1"],
        ["lattice", "rtt", "--sites", "2", "--step", "0.3", "--coupling", "1",
         "--lam", "abc"],
        ["lattice", "rtt", "--sites", "0", "--step", "0.3", "--coupling", "1"],
        *(["expand", "transfer", "--n", "2", "--box", "6.283", "--coupling",
           "1", "--order", order] for order in ("0", "-3", "3")),
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
        ["lattice", "continuum", "--sites", "2", "--step", "0.3",
         "--coupling", "1", "--lam", "nan"],
        ["expand", "transfer", "--n", "2", "--box", "nan", "--coupling", "1"],
        # finite but too large: OverflowError, or LinAlgError from the
        # overflowed matrices
        ["bethe", "solve", "--n", "2", "--box", "6", "--coupling", "1e300"],
        ["lattice", "continuum", "--sites", "2", "--step", "0.3",
         "--coupling", "1", "--lam", "1e300"],
        ["lattice", "rtt", "--sites", "2", "--step", "1e300", "--coupling",
         "1"],
        ["lattice", "commute", "--sites", "2", "--step", "0.3", "--coupling",
         "1e300"],
        # finite but overflowing inside the lattice engines: FloatingPointError
        ["lattice", "continuum", "--sites", "2", "--step", "0.3",
         "--coupling", "1e200"],
        ["lattice", "rtt", "--sites", "2", "--step", "0.3", "--coupling",
         "1e150"],
    ], ids=["lam-one-part", "rapidity-not-a-number", "coupling-zero",
            "lattice-lam-not-a-number", "zero-sites", "order-zero",
            "order-negative", "order-three", "bethe-box-nan",
            "bethe-coupling-nan", "bethe-box-overflow", "lattice-coupling-nan",
            "lattice-step-nan", "lattice-lam-inf", "lattice-mu-nan",
            "continuum-lam-nan", "transfer-box-nan", "bethe-coupling-overflow",
            "continuum-lam-overflow", "rtt-step-overflow",
            "commute-coupling-overflow", "continuum-coupling-overflow",
            "rtt-coupling-overflow"])
    def test_malformed_numbers_are_usage_errors(self, argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "configuration error" in err and "Traceback" not in err


def test_no_scipy_in_sources():
    """No computation or report field comes from scipy: the one line left
    naming it is the lazy import in the body of charges.__getattr__, run
    only when perfbench/tracer.py asks for charges.integrate."""
    files = sorted((ROOT / "src" / "qnls").glob("*.py")) \
        + sorted((ROOT / "scripts").glob("*.py"))
    assert files
    held = ("charges.py", "        from scipy import integrate")
    offenders = [(path.name, line) for path in files
                 for line in path.read_text(encoding="utf-8").splitlines()
                 if "scipy" in line and (path.name, line) != held]
    assert offenders == []


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_run_all_loads_no_scipy(tmp_path, mode):
    """In a fresh interpreter neither importing the CLI nor a full run
    loads any scipy module; the run passes and reports all 77 checks."""
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path), mode],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc == {"code": 0, "after_import": [], "after_run": []}
    report = json.loads((tmp_path / "latest" / "report.json").read_text())
    assert report["mode"] == mode and len(report["checks"]) == 77
