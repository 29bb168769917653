"""Command-line behaviour: outputs, exit codes, reproducibility."""

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import sumtails as st
from sumtails.cli import main

#: outputs captured before a refactor: the CSV before the command line's CSV writers
#: were merged, the calibrate JSON before calibration became one serial pass, the
#: corpus-system tables before auto y asked one y per restriction signature
GOLDEN = Path(__file__).parent / "golden"

TWO_COINS = """\
{
  "mode": "rational",
  "unit_variance": false,
  "rvs": [
    {"atoms": [{"x": "-1/2", "p": "1/2"}, {"x": "1/2", "p": "1/2"}]},
    {"atoms": [{"x": "-1/2", "p": "1/2"}, {"x": "1/2", "p": "1/2"}]}
  ]
}
"""


#: malformed system files (None: the path is a directory), each with the error it must give
MALFORMED_SYSTEMS = [
    ("[]", "a system must be a JSON object, got list"),
    ('{"rvs": [5]}', "rvs[0] needs a nonempty 'atoms' list"),
    ('{"rvs": [{"atoms": [{"x": 0}]}]}', "rvs[0].atoms[0] must be an object with 'x' and 'p'"),
    ('{"rvs": [{"atoms": [{"x": 0, "p": "1/0"}]}]}', "rvs[0].atoms[0].p: cannot parse number"),
    (
        TWO_COINS.replace("false", '"false"'),
        "'unit_variance' must be true or false, got 'false'",
    ),
    (None, "Is a directory"),
]


@pytest.fixture()
def two_coins_path(tmp_path):
    path = tmp_path / "two_coins.json"
    path.write_text(TWO_COINS)
    return str(path)


class TestBoundsCommand:
    def test_constant_p1_column(self, two_coins_path, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        code = main(
            [
                "bounds",
                "--system",
                two_coins_path,
                "--w",
                "3/10",
                "--z-grid",
                "0:0.1:2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 21
        assert all(row["p1"] == "3/4" for row in rows)

    def test_json_format(self, two_coins_path, capsys):
        code = main(
            ["bounds", "--system", two_coins_path, "--z-grid", "0:1:1", "--format", "json"]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2

    def test_malformed_json_is_a_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"rvs": [')
        code = main(["bounds", "--system", str(bad)])
        assert code == 2
        assert "line" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["bounds", "--system", str(tmp_path / "nope.json")])
        assert code == 2

    def test_invariant_violation_named(self, tmp_path, capsys):
        bad = tmp_path / "drift.json"
        bad.write_text(
            '{"mode": "rational", "rvs": [{"atoms": [{"x": 0, "p": "1/2"}, '
            '{"x": 1, "p": "1/2"}]}]}'
        )
        code = main(["bounds", "--system", str(bad)])
        assert code == 2
        assert "mean" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, z",
        [
            (["bounds"], 1e200),  # the CLI reads z exactly and names it by its float
            (
                ["mc", "--family", "discrete-system", "--check-bounds", "--samples", "1000"]
                + ["--seed", "1"],
                1e200,
            ),
        ],
        ids=["bounds", "mc"],
    )
    def test_z_without_a_float_report_is_a_usage_error(self, capsys, argv, z):
        system = str(GOLDEN / "corpus_seed1_system10.json")
        assert main([*argv, "--system", system, "--z-grid", "1e200:1:1e200"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: z = {z} has no float report: ")


    def test_csv_warnings_go_to_stderr_once(self, two_coins_path, monkeypatch, capsys):
        from sumtails import cli

        monkeypatch.setattr(cli, "SystemOracle", lambda system: st.SystemOracle(system, cap=1))
        code = main(["bounds", "--system", two_coins_path, "--w", "1/4", "--z-grid", "0:0.5:2"])
        assert code == 0
        out, err = capsys.readouterr()
        system = st.load_system(two_coins_path)
        oracle = st.SystemOracle(system, cap=1)
        params = st.BoundParams(w=F(1, 4))
        reports = [st.p_bounds(system, F(n, 2), params, oracle=oracle) for n in range(5)]
        warnings = [w for report in reports for w in report.warnings]
        lines = err.splitlines()
        assert len(lines) == len(set(lines)) < len(warnings)
        assert {f"warning: {w}" for w in warnings} == set(lines)
        assert "warning: tail-difference oracle skipped: convolution cap exceeded" in lines
        assert any("Bennett-Hoeffding" in line for line in lines)
        buf = io.StringIO()
        st.bound_reports_to_csv(reports, buf)
        assert out == buf.getvalue()


class TestMalformedSystems:
    @pytest.mark.parametrize(
        "text, message",
        MALFORMED_SYSTEMS,
        ids=["list", "rv-not-object", "atom-without-p", "p-1/0", "unit-variance-string", "dir"],
    )
    @pytest.mark.parametrize(
        "command",
        [["bounds"], ["mc", "--family", "discrete-system", "--samples", "2000", "--seed", "1"]],
        ids=["bounds", "mc"],
    )
    def test_usage_error_names_the_fault(self, tmp_path, capsys, command, text, message):
        path = tmp_path
        if text is not None:
            path = tmp_path / "system.json"
            path.write_text(text)
        assert main([*command, "--system", str(path)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ")
        assert message in err
        assert out == ""


#: ``bounds`` flags of the two corpus systems with golden auto-y tables
SYSTEM10 = ["--system", str(GOLDEN / "corpus_seed1_system10.json")]
SYSTEM10 += ["--p", "3", "--w", "1/2", "--z-grid=-1:0.25:8"]
SYSTEM14 = ["--system", str(GOLDEN / "corpus_seed1_system14.json"), "--p", "6", "--w", "1/4"]
SYSTEM14 += ["--mode", "truncate", "--constant", "p4=2", "--constant", "p5=3"]


class TestGoldenOutputs:
    @pytest.mark.parametrize(
        "name, flags",
        [
            ("bounds_two_coins_winsorize.csv", ["--w", "3/10", "--z-grid", "0:0.25:2"]),
            (
                "bounds_two_coins_truncate.csv",
                ["--mode", "truncate", "--z-grid=-1:0.5:2", "--y", "1/3", "--w", "1/4"]
                + ["--constant", "p4=3", "--constant", "p5=2"],
            ),
            # auto y on two three-summand systems of the seed-1 corpus: at p = 3
            # the scaled y lies apart from the halvings, at p = 6 it is z / 4
            *(
                (f"bounds_seed1_system10_p3.{fmt}", [*SYSTEM10, "--format", fmt])
                for fmt in ("csv", "json")
            ),
            *(
                (f"bounds_seed1_system14_p6.{fmt}", [*SYSTEM14, "--format", fmt])
                for fmt in ("csv", "json")
            ),
        ],
    )
    def test_bounds_csv(self, two_coins_path, tmp_path, capsys, name, flags):
        out = tmp_path / "bounds.csv"
        system = [] if "--system" in flags else ["--system", two_coins_path]
        assert main(["bounds", *system, *flags, "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / name).read_bytes()

    def test_extremal_csv(self, capsys):
        assert main(["extremal", "--format", "csv"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "extremal.csv").read_text()

    # the Monte Carlo numbers depend on the numpy and scipy versions, so the
    # expected text is rendered from the objects the library returns

    def test_mc_tails_csv(self, capsys):
        flags = ["--n", "4", "--samples", "20000", "--seed", "3", "--mode", "winsorize"]
        code = main(["mc", "--family", "standardized-exponential", *flags, "--w", "0.5"])
        assert code == 0
        spec = st.SamplerSpec("standardized-exponential", n=4)
        zs = [n / 2 for n in range(9)]
        estimates = st.mc_tails(spec, zs, 20000, 3, mode="winsorize", w=0.5)
        expected = "z,p_hat,ci_lo,ci_hi,n_samples,seed\n" + "".join(
            f"{e.z!r},{e.p_hat!r},{e.ci_lo!r},{e.ci_hi!r},{e.n_samples},{e.seed}\n"
            for e in estimates
        )
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("family", ["discrete-system", "standardized-exponential"])
    def test_mc_check_bounds_csv(self, two_coins_path, tmp_path, capsys, family):
        out = tmp_path / "check.csv"
        argv = ["mc", "--family", family, "--system", two_coins_path, "--n", "4", "--w", "1/4"]
        argv += ["--samples", "20000", "--seed", "5", "--z-grid", "0:0.5:2", "--check-bounds"]
        assert main([*argv, "--out", str(out)]) == 0
        if family == "discrete-system":
            spec = st.SamplerSpec(family, system=st.load_system(two_coins_path))
        else:
            spec = st.SamplerSpec(family, n=4)
        zs = [n / 2 for n in range(5)]
        report = st.mc_check_bounds(spec, st.BoundParams(w=F(1, 4)), zs, 20000, 5)

        def cell(value):
            return "" if value is None else repr(value)

        lines = ["z,p_hat_raw,p_hat_bar,delta_hat,ci_lo,ci_hi,p1,p2,p3,bound,flag"]
        for r in report.rows:
            values = (r.z, r.p_hat_raw, r.p_hat_bar, r.delta_hat, r.ci_lo, r.ci_hi, r.p1)
            values += (r.p2, r.p3, r.bound)
            lines.append(",".join([*map(cell, values), str(int(r.flag))]))
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()
        assert (family == "discrete-system") == (report.rows[0].p2 is not None)


class TestVerifyCommand:
    def test_clean_run_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code = main(["verify", "--seed", "1", "--count", "10", "--out", str(out)])
        assert code == 0
        assert "0 violations" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["total_violations"] == 0

    def test_output_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(["verify", "--seed", "3", "--count", "5", "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestCalibrateCommand:
    def test_theorem_json(self, tmp_path, capsys):
        out = tmp_path / "cal.json"
        code = main(
            [
                "calibrate",
                "--seed",
                "1",
                "--count",
                "8",
                "--bound",
                "theorem",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        result = json.loads(out.read_text())
        assert result["bound_name"] == "theorem"
        assert result["a_min"] > 0
        assert "witness" in result

    def test_output_matches_golden(self, tmp_path):
        # witness ties and n_cells summed across twenty systems, for every bound
        for bound in ("theorem", "concentration", "p4", "p5"):
            path = tmp_path / f"{bound}.json"
            argv = ["calibrate", "--seed", "1", "--count", "20", "--bound", bound]
            assert main([*argv, "--out", str(path)]) == 0
            golden = GOLDEN / f"calibrate_seed1_count20_{bound}.json"
            assert path.read_bytes() == golden.read_bytes(), bound

    def test_cells_past_the_atom_budget(self, monkeypatch, tmp_path, capsys):
        # at a budget of 3 pairs only the one-summand systems need no convolution
        import functools

        from sumtails import verify

        monkeypatch.setattr(verify, "SystemOracle", functools.partial(st.SystemOracle, cap=3))
        out = tmp_path / "cal.json"
        argv = ["calibrate", "--seed", "1", "--count", "20", "--bound", "p5"]
        assert main([*argv, "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        skipped = result["grid"]["skipped"]
        assert skipped > 0 and skipped + result["n_cells"] == 20 * 32
        assert capsys.readouterr().out == (
            f"p5: a_min = {result['a_min']!r} over {result['n_cells']} cells "
            f"({skipped} skipped past the atom budget)\n"
        )
        # the first system has more than one summand: no cell is evaluated
        assert main([*argv[:4], "1", *argv[5:]]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: no calibration cell fits the atom budget (32 skipped)\n")

    @pytest.mark.parametrize(
        "bound, z, message",
        [
            ("theorem", "2000", "z value 2000.0 overflows e^(lam z)"),
            ("p5", "1e200", "z value 1e+200 overflows (c + z)^p"),
        ],
    )
    def test_grid_value_that_overflows_is_a_usage_error(self, capsys, bound, z, message):
        argv = ["calibrate", "--seed", "1", "--count", "3", "--bound", bound]
        assert main([*argv, "--z-grid", f"{z}:1:{z}"]) == 2
        assert capsys.readouterr() == ("", f"error: calibration {message} as a float\n")


class TestPowerFactorsBeyondFloat:
    """(c + z)^p and mu_p of P4 and P5 must be floats: else exit 2, not a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["bounds", "--system", str(GOLDEN / "corpus_seed1_system10.json")],
                "z = 1e-200 has no float report: ",
            ),
            (
                ["calibrate", "--seed", "1", "--count", "3", "--bound", "p5"],
                "calibration z value 1e-200 underflows (c + z)^p to 0.0 as a float",
            ),
        ],
        ids=["bounds", "calibrate"],
    )
    def test_c_plus_z_that_underflows(self, capsys, argv, message):
        assert main([*argv, "--c", "1e-300", "--z-grid", "1e-200:1:1e-200"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--system", str(GOLDEN / "corpus_seed1_system10.json")],
            ["calibrate", "--seed", "1", "--count", "3", "--bound", "p5"],
        ],
        ids=["bounds", "calibrate"],
    )
    def test_mu_p_past_the_float_range(self, capsys, argv):
        assert main([*argv, "--p", "5000", "--c", "0.9", "--z-grid", "0.1:1:0.1"]) == 2
        assert capsys.readouterr() == ("", "error: mu_p at p = 5000.0 overflows a float\n")


CALIBRATE_ARGV = ["calibrate", "--seed", "1", "--count", "1", "--bound", "p5"]
MC_ARGV = ["mc", "--family", "standardized-exponential", "--n", "4"]
MC_ARGV += ["--samples", "2000", "--seed", "1"]


class TestParamsBeyondFloat:
    """--v and --w are exact, so a value past the float range parses; readers of floats reject it."""

    @pytest.mark.parametrize(
        "argv, name, value, message",
        [
            pytest.param(argv, name, value, message, id=case + suffix)
            for case, argv, name in [
                ("calibrate-v", CALIBRATE_ARGV, "v"),
                ("calibrate-w", CALIBRATE_ARGV, "w"),
                ("mc-check-bounds-w", [*MC_ARGV, "--check-bounds"], "w"),
                ("mc-tails-w", [*MC_ARGV, "--mode", "winsorize"], "w"),
            ]
            for suffix, value, message in [
                ("", "1e400", f"must be at most {sys.float_info.max!r}"),
                ("-rounds-to-zero", "1e-400", "is positive but rounds to 0.0 as a float"),
            ]
        ],
    )
    def test_usage_error_before_any_work(self, capsys, monkeypatch, argv, name, value, message):
        from sumtails import cli, mc, verify

        def no_work(*_args):
            raise AssertionError("v and w are checked before any work")

        monkeypatch.setattr(cli, "gen_corpus", no_work)
        monkeypatch.setattr(verify, "SystemOracle", no_work)
        monkeypatch.setattr(mc, "_tail_counts", no_work)
        assert main([*argv, f"--{name}={value}"]) == 2
        out, err = capsys.readouterr()
        assert err == f"error: parameter {name} {message}\n"
        assert out == ""

    @pytest.mark.parametrize(
        "command, flag, message",
        [
            pytest.param(command, f"--{name}=inf", message, id=f"{command}-{name}")
            for command in ("bounds", "calibrate")
            for name, message in [
                ("lambda", "parameter lam must be finite and positive, got inf"),
                ("p", "parameter p must be finite and positive, got inf"),
                ("c", "parameter c must be finite and positive, got inf"),
                ("constant=theorem", "constant 'theorem' must be finite and positive"),
            ]
            # calibrate takes no constants (see TestUnreadFlags)
            if not (command == "calibrate" and name.startswith("constant"))
        ],
    )
    def test_not_finite_is_a_usage_error(
        self, two_coins_path, capsys, monkeypatch, command, flag, message
    ):
        from sumtails import cli

        def no_work(*_args):
            raise AssertionError("parameters are checked before any work")

        monkeypatch.setattr(cli, "load_system", no_work)
        monkeypatch.setattr(cli, "gen_corpus", no_work)
        argv = {
            "bounds": ["bounds", "--system", two_coins_path],
            "calibrate": ["calibrate", "--seed", "1", "--count", "1", "--bound", "theorem"],
        }[command]
        assert main([*argv, flag]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert out == ""

    def test_least_subnormal_is_read(self, capsys):
        # the least subnormal float, 5e-324, is positive as a float
        assert main([*MC_ARGV, "--z-grid", "0:1:1", "--check-bounds", "--w=5e-324"]) == 0
        assert capsys.readouterr().out.count("\n") == 4

    def test_bounds_still_reads_them_exactly(self, two_coins_path, capsys):
        argv = ["bounds", "--system", two_coins_path, "--v=1e400", "--w=1e400"]
        assert main([*argv, "--z-grid", "0:1:2"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 4


class TestUnreadFlags:
    """A flag that changes no output of its command is not accepted."""

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("calibrate", ["--y", "1/3"], "unrecognized arguments: --y 1/3"),
            ("calibrate", ["--constant", "theorem=5"], "unrecognized arguments: --constant"),
            ("mc-check", ["--v", "2"], "unrecognized arguments: --v 2"),
            ("mc-check", ["--lambda", "3"], "unrecognized arguments: --lambda 3"),
            # no flag is read as an abbreviation: --c is not --check-bounds
            ("mc-check", ["--c", "5"], "unrecognized arguments: --c 5"),
            ("mc-check", ["--constant", "p4=9"], "unrecognized arguments: --constant p4=9"),
            ("mc", ["--mode", "winsorize", "--mc-w", "0.5"], "unrecognized arguments: --mc-w"),
            ("bounds", ["--constant", "bikelis=1"], "unknown constant 'bikelis'"),
        ],
        ids=[
            "calibrate-y",
            "calibrate-constant",
            "mc-check-v",
            "mc-check-lambda",
            "mc-check-c",
            "mc-check-constant",
            "mc-mc-w",
            "bounds-bikelis",
        ],
    )
    def test_is_a_usage_error(self, two_coins_path, capsys, command, flags, message):
        argv = {
            "bounds": ["bounds", "--system", two_coins_path],
            "calibrate": ["calibrate", "--seed", "1", "--count", "1", "--bound", "p5"],
            "mc": ["mc", "--family", "standardized-exponential", "--n", "4"]
            + ["--samples", "2000", "--seed", "1"],
        }
        argv["mc-check"] = [*argv["mc"], "--check-bounds"]
        with pytest.raises(SystemExit) as info:
            main([*argv[command], *flags])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert message in err
        assert out == ""


class TestAbbreviatedFlags:
    """A unique prefix of a flag is not read as the flag, on any command."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--vers", "young", "--k", "0.5"], "--vers"),
            (["bounds", "--system", "{system}", "--cons", "p5=1"], "--cons"),
            (["verify", "--seed", "1", "--co", "1"], "--co"),
            (
                ["calibrate", "--seed", "1", "--count", "1", "--bound", "p5", "--mo", "truncate"],
                "--mo",
            ),
            (["extremal", "--n-l", "2"], "--n-l"),
            (
                ["mc", "--family", "standardized-exponential", "--n", "4"]
                + ["--samples", "2000", "--seed", "1", "--z-grid", "0:1:1", "--c"],
                "--c",
            ),
            (["young", "--k", "0.5", "--u-ma", "1"], "--u-ma"),
        ],
        ids=["top-level", "bounds", "verify", "calibrate", "extremal", "mc-check", "young"],
    )
    def test_is_a_usage_error(self, two_coins_path, capsys, monkeypatch, argv, flag):
        from sumtails import cli

        def no_work(*_args, **_kwargs):
            raise AssertionError("an abbreviated flag is rejected before any work")

        for name in ("load_system", "gen_corpus", "mc_check_bounds", "young_delta"):
            monkeypatch.setattr(cli, name, no_work)
        with pytest.raises(SystemExit) as info:
            main([arg.format(system=two_coins_path) for arg in argv])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert f"unrecognized arguments: {flag}" in err
        assert out == ""


class TestExtremalCommand:
    def test_json_rows(self, capsys):
        code = main(["extremal", "--n-list", "2,101"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["n"] for row in rows] == [2, 101]
        assert rows[1]["ratio"] == pytest.approx(rows[1]["ratio_closed_form"], abs=1e-12)

    def test_v_beyond_float_is_a_usage_error(self, capsys):
        assert main(["extremal", "--v=1e400"]) == 2
        out, err = capsys.readouterr()
        assert err == f"error: --v must be at most {sys.float_info.max!r}\n"
        assert out == ""

    def test_empty_list_csv_is_the_header_alone(self, capsys):
        assert main(["extremal", "--format", "csv", "--n-list", ","]) == 0
        header = (GOLDEN / "extremal.csv").read_text().splitlines(keepends=True)[0]
        assert capsys.readouterr().out == header
        assert main(["extremal", "--format", "json", "--n-list", ","]) == 0
        assert capsys.readouterr().out == "[]\n"


class TestMcCommand:
    def test_tail_estimates_csv(self, tmp_path, capsys):
        out = tmp_path / "mc.csv"
        code = main(
            [
                "mc",
                "--family",
                "standardized-exponential",
                "--n",
                "4",
                "--samples",
                "20000",
                "--seed",
                "3",
                "--z-grid",
                "0:1:2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 3
        assert float(rows[0]["p_hat"]) > float(rows[-1]["p_hat"])

    def test_check_bounds_clean(self, two_coins_path, capsys):
        code = main(
            [
                "mc",
                "--family",
                "discrete-system",
                "--system",
                two_coins_path,
                "--samples",
                "20000",
                "--seed",
                "3",
                "--z-grid",
                "0:0.5:2",
                "--check-bounds",
                "--w",
                "1/4",
            ]
        )
        assert code == 0

    def test_negative_control_flags_exit_one(self, two_coins_path, capsys):
        code = main(
            [
                "mc",
                "--family",
                "discrete-system",
                "--system",
                two_coins_path,
                "--samples",
                "20000",
                "--seed",
                "3",
                "--z-grid",
                "0:0.5:2",
                "--check-bounds",
                "--w",
                "1/4",
                "--bound-scale",
                "0.001",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("check", [[], ["--check-bounds"]])
    @pytest.mark.parametrize(
        "flags", [["--samples", "0", "--seed", "1"], ["--samples", "2000", "--seed", "-1"]]
    )
    def test_bad_samples_or_seed_is_a_usage_error(self, capsys, flags, check):
        code = main(["mc", "--family", "standardized-exponential", "--n", "4", *flags, *check])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("check", [[], ["--check-bounds"]])
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_nonpositive_workers_is_a_usage_error(self, capsys, workers, check):
        argv = ["mc", "--family", "standardized-exponential", "--n", "4"]
        argv += ["--samples", "2000", "--seed", "1", "--workers", workers, *check]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err == f"error: workers must be >= 1, got {workers}\n"
        assert out == ""

    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
    def test_bad_bound_scale_is_a_usage_error(self, two_coins_path, capsys, scale):
        argv = ["mc", "--family", "discrete-system", "--system", two_coins_path]
        argv += ["--samples", "2000", "--seed", "1", "--check-bounds", "--bound-scale", scale]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: bound_scale must be finite and positive")
        assert out == ""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--bound-scale", "0.5"], "--bound-scale applies only with --check-bounds"),
            (["--bound-scale", "nan"], "--bound-scale applies only with --check-bounds"),
            (
                ["--w", "0.25"],
                "--w applies only with --check-bounds or --mode winsorize or truncate",
            ),
            (
                ["--mode", "raw", "--w", "0.25"],
                "--w applies only with --check-bounds or --mode winsorize or truncate",
            ),
            (
                ["--check-bounds", "--mode", "raw"],
                "--mode raw does not apply with --check-bounds, which caps at --w",
            ),
        ],
        ids=[
            "bound-scale-alone",
            "nan-bound-scale-alone",
            "w-default-raw",
            "w-raw",
            "raw-with-check",
        ],
    )
    def test_ignored_flag_is_a_usage_error(self, capsys, monkeypatch, flags, message):
        from sumtails import cli

        monkeypatch.setattr(cli, "mc_tails", None)  # a run would raise TypeError
        monkeypatch.setattr(cli, "mc_check_bounds", None)
        argv = ["mc", "--family", "standardized-exponential", "--n", "4"]
        assert main([*argv, "--samples", "2000", "--seed", "1", *flags]) == 2
        out, err = capsys.readouterr()
        assert err == f"error: {message}\n"
        assert out == ""

    @pytest.mark.parametrize("alpha", ["inf", "nan"])
    def test_pareto_alpha_not_finite_is_a_usage_error(self, capsys, monkeypatch, alpha):
        from sumtails import cli

        monkeypatch.setattr(cli, "mc_tails", None)  # a run would raise TypeError
        argv = ["mc", "--family", "standardized-pareto", "--n", "4", "--alpha", alpha]
        assert main([*argv, "--samples", "1000", "--seed", "1", "--z-grid", "0:2:100"]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: alpha must be finite and exceed 2") and err.count("\n") == 1
        assert out == ""

    def test_explicit_default_bound_scale_changes_nothing(self, capsys):
        argv = ["mc", "--family", "standardized-exponential", "--n", "4", "--samples", "2000"]
        argv += ["--seed", "1", "--check-bounds", "--w", "1/4"]
        assert main(argv) == 0
        default = capsys.readouterr()
        assert main([*argv, "--bound-scale", "1"]) == 0
        assert capsys.readouterr() == default

    def test_discrete_family_needs_system(self, capsys):
        code = main(
            ["mc", "--family", "discrete-system", "--samples", "20000", "--seed", "1"]
        )
        assert code == 2


class TestGrids:
    def test_default_grids_are_parsed_only_when_used(self, monkeypatch):
        from sumtails import cli

        calls, parse_grid = [], cli._parse_grid

        def counting(spec):
            calls.append(spec)
            return parse_grid(spec)

        monkeypatch.setattr(cli, "_parse_grid", counting)
        parser = cli.build_parser()
        assert calls == []
        args = parser.parse_args(["bounds", "--system", "s.json"])
        assert args.z_grid == [F(n, 4) for n in range(33)]
        assert calls == ["0:0.25:8"]
        args = parser.parse_args(["mc", "--family", "standardized-pareto", "--samples", "1", "--seed", "1"])
        assert args.z_grid == [F(n, 2) for n in range(9)]
        calls.clear()
        args = parser.parse_args(["calibrate", "--seed", "1", "--bound", "p4", "--z-grid", "1:1:3"])
        assert args.z_grid == [1, 2, 3]
        assert calls == ["1:1:3"]

    def test_grid_points(self):
        from sumtails.cli import _parse_grid

        assert _parse_grid("0:0.1:2") == [F(n, 10) for n in range(21)]
        assert _parse_grid("-1:1/3:0") == [F(-1), F(-2, 3), F(-1, 3), F(0)]
        assert _parse_grid("0:0.3:1") == [F(0), F(3, 10), F(6, 10), F(9, 10)]
        assert _parse_grid("1:1:0") == []

    def test_point_count_ceiling(self, monkeypatch):
        import argparse

        from sumtails import cli

        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 5)
        assert len(cli._parse_grid("0:1:4")) == 5
        with pytest.raises(argparse.ArgumentTypeError, match="6 points, more than 5"):
            cli._parse_grid("0:1:5")

    @pytest.mark.parametrize("command", ["bounds", "calibrate", "mc"])
    def test_negative_start_in_either_form(self, two_coins_path, capsys, command):
        argv = {
            "bounds": ["bounds", "--system", two_coins_path],
            "calibrate": ["calibrate", "--seed", "1", "--count", "3", "--bound", "theorem"],
            "mc": ["mc", "--family", "standardized-exponential", "--n", "4"]
            + ["--samples", "2000", "--seed", "1"],
        }[command]
        outputs = []
        for grid in (["--z-grid", "-1:0.5:1"], ["--z-grid=-1:0.5:1"]):
            assert main([*argv, *grid]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out.count("\n") > 1

    @pytest.mark.parametrize("command", ["bounds", "calibrate", "mc"])
    def test_large_grid_is_a_usage_error(self, tmp_path, capsys, command):
        # 800,001 points is over the ceiling but small enough to build, and
        # each command fails right after parsing (missing system, empty
        # corpus, no samples), so a missing check fails fast with another error
        argv = {
            "bounds": ["bounds", "--system", str(tmp_path / "missing.json")],
            "calibrate": ["calibrate", "--seed", "1", "--count", "0", "--bound", "p4"],
            "mc": ["mc", "--family", "standardized-pareto", "--samples", "0", "--seed", "1"],
        }[command]
        with pytest.raises(SystemExit) as info:
            main([*argv, "--z-grid", "0:1e-5:8"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --z-grid: grid '0:1e-5:8' has 800001 points, more than" in err


class TestYoungCommand:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--u-step", "0"], "--u-step must be positive, got 0.0"),
            (["--u-step", "-0.5"], "--u-step must be positive, got -0.5"),
            (["--u-min", "3", "--u-max", "1"], "--u-min 3.0 is above --u-max 1.0"),
            (["--u-step", "nan"], "must be finite"),
            (["--u-max", "inf"], "must be finite"),
            # a million points: over the ceiling, yet harmless if a regression built them
            (["--u-step", "1e-5"], "more than 100000 points"),
        ],
    )
    @pytest.mark.parametrize("k", [["--k", "0.5"], []])
    def test_bad_u_grid_is_a_usage_error(self, capsys, monkeypatch, flags, message, k):
        from sumtails import cli

        def no_work(*_args):
            raise AssertionError("the grid is checked before any work")

        monkeypatch.setattr(cli, "young_delta", no_work)
        monkeypatch.setattr(cli, "young_grid_scan", no_work)
        assert main(["young", *k, *flags]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and message in err
        assert out == ""

    @pytest.mark.parametrize("k", ["inf", "-inf", "nan"])
    def test_k_not_finite_is_a_usage_error(self, capsys, monkeypatch, k):
        from sumtails import cli

        def no_work(*_args):
            raise AssertionError("k is checked before any work")

        monkeypatch.setattr(cli, "young_delta", no_work)
        assert main(["young", f"--k={k}"]) == 2
        out, err = capsys.readouterr()
        assert err == f"error: --k must be finite, got {float(k)!r}\n"
        assert out == ""

    def test_boundary_violation_witness(self, capsys):
        code = main(["young", "--k", "0.9"])
        assert code == 0  # above 8/9 a negative value documents the boundary
        out = capsys.readouterr().out
        report = json.loads(out[: out.rindex("}") + 1])
        assert report["negative"] is True
        assert report["argmin_u"] == pytest.approx(1.215, abs=1e-9)
        assert report["min_delta"] == pytest.approx(-0.0075, abs=1e-9)

    def test_safe_k_clean(self, capsys):
        code = main(["young", "--k", "0.5", "--u-step", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        report = json.loads(out[: out.rindex("}") + 1])
        assert report["negative"] is False

    def test_full_grid_scan(self, tmp_path, capsys):
        out = tmp_path / "young.json"
        code = main(["young", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["violations"] == []
        assert report["closed_form_max_gap"] < 1e-6
        assert report["u_grid"] == "0..10 step 0.001"

    def test_full_grid_scan_reads_the_u_grid(self, monkeypatch, capsys):
        from sumtails import cli

        scanned = []

        def scan(u_values):
            scanned.append(list(u_values))
            return [], 0.0

        monkeypatch.setattr(cli, "young_grid_scan", scan)
        assert main(["young", "--u-min", "0.5", "--u-max", "3", "--u-step", "0.5"]) == 0
        assert scanned == [[0.5, 1.0, 1.5, 2.0, 2.5, 3.0]]
        out = capsys.readouterr().out
        assert json.loads(out[: out.rindex("}") + 1])["u_grid"] == "0.5..3 step 0.5"



#: run in a fresh interpreter: the exact commands and one Monte Carlo run
#: must leave the named scipy modules unloaded
COLD_START = """\
import io, json, sys
from contextlib import redirect_stdout

import sumtails, sumtails.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

with redirect_stdout(io.StringIO()):
    code = sumtails.cli.main(["bounds", "--system", sys.argv[1], "--z-grid", "0:0.5:2"])
after_bounds = scipy_modules()
spec = sumtails.SamplerSpec("standardized-exponential", n=4)
sumtails.mc_tails(spec, [0.0, 1.0], 2_000, seed=1)
print(json.dumps({"code": code, "after_bounds": after_bounds,
                  "stats_after_mc": "scipy.stats" in sys.modules}))
"""


class TestColdStart:
    def test_exact_commands_load_no_scipy(self, two_coins_path):
        src = str(Path(st.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", COLD_START, two_coins_path],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
            check=True,
        )
        report = json.loads(done.stdout)
        assert report["code"] == 0
        assert report["after_bounds"] == []
        assert report["stats_after_mc"] is False
