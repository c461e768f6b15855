import argparse
import contextlib
import csv
import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupeffect import (build_design, cli, dataio, effect_report, fit_fwl, histogram,
                         load_column, load_csv, regression)
from groupeffect.cli import main
from groupeffect.errors import DataError, NumericError

from conftest import student_csv_path, traced_peak


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def student_args(*covariates):
    args = [
        "--data", str(student_csv_path()),
        "--response", "G3",
        "--group", "sex",
    ]
    if covariates:
        args += ["--covariates", ",".join(covariates)]
    return args


def fresh(capsys, argv):
    """``run`` with a parser built for this call alone."""
    cli._parser.cache_clear()
    return run(capsys, *argv)


def exits(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    captured = capsys.readouterr()
    return exit_.value.code, captured.out, captured.err


def _student_argvs():
    """The seven invocations of the benchmark's student mix."""
    base = student_args()
    cov = student_args("Fedu", "traveltime")
    hist = ["hist", "--data", str(student_csv_path()), "--response", "G3"]
    return [
        ["effect", *base],
        ["effect", *cov],
        ["effect", *cov, "--format", "json"],
        ["fit", *cov],
        ["fit", *cov, "--format", "json"],
        hist,
        [*hist, "--edges=0,5,10,15,20"],
    ]


class TestEffectCommand:
    def test_classic_text_report(self, capsys):
        code, out, err = run(capsys, "effect", *student_args())
        assert code == 0 and err == ""
        assert "d (classic): 0.264261" in out
        assert "t: 3.310938" in out
        assert "p: 0.0009815287" in out
        assert "groups: F (n=383) vs M (n=266)" in out

    def test_adjusted_text_report(self, capsys):
        code, out, _ = run(capsys, "effect", *student_args("Fedu", "traveltime"))
        assert code == 0
        assert "d (covariate-adjusted): 0.3016013" in out
        assert "f^2: 0.0219035" in out
        assert "gamma: 0.006438624" in out
        assert "sigma: 3.118756" in out

    def test_json_report_schema_and_routes(self, capsys):
        code, out, _ = run(
            capsys, "effect", *student_args("Fedu", "traveltime"), "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {
            "config", "data_summary", "coefficients", "effect", "distributions"
        }
        eff = doc["effect"]
        routes = eff["d_routes"]
        assert routes["from_group_summaries"] == pytest.approx(0.3016013, rel=1e-6)
        assert routes["from_coefficient"] == pytest.approx(eff["d"], rel=1e-9)
        assert routes["from_f_squared"] == pytest.approx(eff["d"], rel=1e-9)
        # emitted t is re-derivable from emitted d and gamma
        assert eff["t"] == pytest.approx(eff["d"] / math.sqrt(eff["gamma"]),
                                         rel=1e-12)
        summary = doc["data_summary"]
        assert summary["dummy_mapping"] == {"F": 0, "M": 1}
        assert summary["rows_used"] == 649 and summary["dropped_rows"] == 0
        assert doc["coefficients"]["sigma_hat"] == pytest.approx(3.118756, rel=1e-6)

    def test_text_and_json_agree(self, capsys):
        _, out_json, _ = run(
            capsys, "effect", *student_args("Fedu", "traveltime"), "--format", "json"
        )
        doc = json.loads(out_json)
        _, out_text, _ = run(capsys, "effect", *student_args("Fedu", "traveltime"))
        for value in (doc["effect"]["d"], doc["effect"]["f_squared"],
                      doc["effect"]["gamma"]):
            assert format(value, ".7g") in out_text

    def test_reference_level_flips_sign(self, capsys):
        _, out, _ = run(
            capsys, "effect", *student_args("Fedu", "traveltime"),
            "--ref-level", "M", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["effect"]["d"] == pytest.approx(-0.3016013, rel=1e-6)
        assert doc["data_summary"]["dummy_mapping"] == {"M": 0, "F": 1}

    @pytest.mark.parametrize("command", ["effect", "fit"])
    def test_reference_level_that_is_no_label_exits_2(self, capsys, command):
        code, out, err = run(capsys, command, *student_args(), "--ref-level", "m")
        assert (code, out) == (2, "")
        assert err == ("error: GroupTooSmallError: reference level 'm' is not a group label; "
                       "the labels are 'F' and 'M'\n")

    def test_missing_file_exits_2_without_output(self, capsys):
        code, out, err = run(
            capsys, "effect", "--data", "no_such_file.csv",
            "--response", "G3", "--group", "sex"
        )
        assert code == 2
        assert out == ""
        assert err != ""

    def test_not_binary_group_exits_2(self, capsys, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("g;y\nA;1\nB;2\nC;3\nA;4\n", encoding="utf-8")
        code, out, err = run(
            capsys, "effect", "--data", str(path), "--response", "y", "--group", "g"
        )
        assert code == 2
        assert "NotBinaryGroup" in err

    def test_collinear_covariate_exits_3_naming_column(self, capsys, tmp_path):
        path = tmp_path / "collinear.csv"
        path.write_text(
            "g;y;flat\nA;1;7\nA;2;7\nB;3;7\nB;4;7\nA;5;7\nB;6;7\n",
            encoding="utf-8",
        )
        code, out, err = run(
            capsys, "effect", "--data", str(path),
            "--response", "y", "--group", "g", "--covariates", "flat",
        )
        assert code == 3
        assert "RankDeficientDesign" in err and "flat" in err

    @pytest.mark.parametrize("command", ["effect", "fit"])
    def test_arithmetic_error_exits_3_with_one_line(self, capsys, monkeypatch, command):
        def overflow(design):
            raise OverflowError("(34, 'Numerical result out of range')")

        monkeypatch.setattr(cli, "fit_fwl", overflow)
        code, out, err = run(capsys, command, *student_args("Fedu"))
        assert (code, out) == (3, "")
        assert err == "error: OverflowError: (34, 'Numerical result out of range')\n"

    @pytest.mark.parametrize("covariates", [[], ["--covariates", "a,b"]],
                             ids=["w0", "w2"])
    @pytest.mark.parametrize("command", ["effect", "fit"])
    def test_overflowing_fit_exits_3_with_one_line(self, capsys, tmp_path, command,
                                                   covariates):
        # with y near 1e155 its sum of squares overflows; numpy's overflow
        # warning must not reach stderr ahead of the one error line
        rng = np.random.default_rng(155)
        rows = [["ab"[i % 2], repr(y * 1e155), repr(a), repr(b)]
                for i, (y, a, b) in enumerate(rng.standard_normal((500, 3)).tolist())]
        write_rows(tmp_path / "big.csv", ["g", "y", "a", "b"], rows)
        code, out, err = run(capsys, command, "--data", str(tmp_path / "big.csv"),
                             "--response", "y", "--group", "g", *covariates)
        assert (code, out) == (3, "")
        assert err.startswith("error: OverflowError: ") and err.count("\n") == 1, err

    def test_invalid_precision_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["effect", *student_args(), "--precision", "40"])
        assert err.value.code == 2

    def test_zero_variance_exits_3(self, capsys, tmp_path):
        path = tmp_path / "flatgroups.csv"
        path.write_text("g;y\nA;2\nA;2\nB;5\nB;5\n", encoding="utf-8")
        code, out, err = run(
            capsys, "effect", "--data", str(path), "--response", "y", "--group", "g"
        )
        assert code == 3
        assert "ZeroVariance" in err

    @pytest.mark.parametrize("covariates", [("G3", "Fedu"), ("G3",)])
    @pytest.mark.parametrize("command", ["effect", "fit"])
    def test_response_linear_in_group_and_covariates_exits_3(self, capsys, tmp_path,
                                                               command, covariates):
        # the response is a copy of G3 (a column may not be selected twice),
        # so with G3 among the covariates the residual is rounding noise,
        # not an exact zero: |R_ww| is about 3e-14 against a rank-check
        # tolerance of 1.4e-11; both output formats run the same check
        # before anything is printed
        path = tmp_path / "student_with_copy.csv"
        with open(student_csv_path(), newline="", encoding="utf-8") as src:
            header, *rows = csv.reader(src, delimiter=";")
        with open(path, "w", newline="", encoding="utf-8") as dst:
            g3 = header.index("G3")
            csv.writer(dst, delimiter=";").writerows(
                [header + ["G3_copy"], *(row + [row[g3]] for row in rows)])
        argv = [command, "--data", str(path), "--response", "G3_copy", "--group", "sex",
                "--covariates", ",".join(covariates)]
        for output_format in ("json", "text"):
            code, out, err = run(capsys, *argv, "--format", output_format)
            assert (code, out) == (3, ""), output_format
            assert err.startswith("error: ZeroVarianceError:"), output_format

    def test_precision_controls_text_digits(self, capsys):
        code, out, _ = run(capsys, "effect", *student_args(), "--precision", "3")
        assert code == 0
        assert "d (classic): 0.264 " in out

    def test_delimiter_override(self, capsys, tmp_path):
        path = tmp_path / "commas.csv"
        path.write_text(
            "g,y\na,1\na,2\nb,4\nb,6\na,3\nb,5\n", encoding="utf-8"
        )
        code, out, _ = run(
            capsys, "effect", "--data", str(path), "--response", "y",
            "--group", "g", "--delimiter", ",",
        )
        assert code == 0
        assert "groups: a (n=3) vs b (n=3)" in out

    @pytest.mark.parametrize("delimiter", [";;", ""])
    @pytest.mark.parametrize("command", ["effect", "hist"])
    def test_delimiter_of_other_than_one_character_exits_2(self, capsys, command,
                                                           delimiter):
        argv = [command, "--data", str(student_csv_path()), "--response", "G3",
                "--delimiter", delimiter]
        if command == "effect":
            argv += ["--group", "sex"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: DataError: delimiter must be one character, got {delimiter!r}\n"


class TestFitCommand:
    def test_coefficient_table(self, capsys):
        code, out, _ = run(
            capsys, "fit", *student_args("Fedu", "traveltime"), "--precision", "4"
        )
        assert code == 0
        lines = out.splitlines()
        assert any("(intercept)" in l and "11.41" in l for l in lines)
        assert any("group[M]" in l and "-0.9406" in l and "0.2503" in l
                   for l in lines)
        assert any("Fedu" in l and "0.6096" in l and "0.1144" in l for l in lines)
        assert any("traveltime" in l and "-0.3369" in l and "0.1676" in l
                   for l in lines)
        assert "df: 645" in out

    def test_two_row_table_without_covariates(self, capsys):
        code, out, _ = run(capsys, "fit", *student_args(), "--format", "json")
        doc = json.loads(out)
        table = doc["coefficients"]["table"]
        assert [row["name"] for row in table] == ["(intercept)", "group[M]"]
        # the dummy's |t| equals the two-sample t statistic
        assert abs(table[1]["t_value"]) == pytest.approx(3.310938, rel=1e-6)
        assert table[1]["p_value"] == pytest.approx(0.0009815287, rel=1e-6)

    def test_json_matches_effect_json(self, capsys):
        _, out_fit, _ = run(
            capsys, "fit", *student_args("Fedu", "traveltime"), "--format", "json"
        )
        _, out_eff, _ = run(
            capsys, "effect", *student_args("Fedu", "traveltime"), "--format", "json"
        )
        fit_doc, eff_doc = json.loads(out_fit), json.loads(out_eff)
        assert fit_doc["effect"]["d"] == pytest.approx(
            eff_doc["effect"]["d"], rel=1e-9
        )
        assert fit_doc["coefficients"]["r_squared"] == pytest.approx(
            eff_doc["coefficients"]["r_squared"], rel=1e-12
        )


    def test_exact_1e13_covariate_offset(self, capsys, tmp_path):
        # fit runs the same centered fit as effect, so an offset that the
        # first-row subtraction removes exactly changes nothing
        rng = np.random.default_rng(81)
        n = 2000
        group = rng.uniform(size=n) < 0.5
        # on the float grid near 1e13 (spacing 2**-9), so x + 1e13 is exact
        x = np.round(rng.standard_normal(n) * 2**9) / 2**9
        y = 1.0 + 0.4 * group + 0.6 * x + rng.standard_normal(n)
        tables = []
        for offset in (0.0, 1e13):
            path = tmp_path / f"offset{offset:g}.csv"
            path.write_text("g;y;x\n" + "".join(
                f"{'ab'[int(gi)]};{yi!r};{xi + offset:.9f}\n"
                for gi, yi, xi in zip(group, y.tolist(), x.tolist())))
            code, out, err = run(capsys, "fit", "--data", str(path), "--response",
                                 "y", "--group", "g", "--covariates", "x",
                                 "--format", "json")
            assert (code, err) == (0, "")
            tables.append(json.loads(out)["coefficients"]["table"])
        base, shifted = tables
        assert shifted[1]["name"] == base[1]["name"] == "group[b]"
        for key in ("estimate", "std_error", "t_value"):
            assert shifted[1][key] == pytest.approx(base[1][key], rel=1e-9)

    @pytest.mark.parametrize("offset", [1e9, 1e13])
    def test_d_routes_agree_under_a_covariate_offset(self, capsys, tmp_path, offset):
        # the reported d takes -beta1, which the first-row shift keeps exact,
        # as its numerator; the group means of y - X2 d2 carry the offset
        rng = np.random.default_rng(3)
        n = 2000
        group = rng.uniform(size=n) < 0.5
        x = np.round(rng.standard_normal(n) * 2**9) / 2**9  # x + offset is exact
        y = 1.0 + 0.4 * group + 0.6 * x + rng.standard_normal(n)
        path = tmp_path / "offset.csv"
        path.write_text("g;y;x\n" + "".join(
            f"{'ab'[int(gi)]};{yi!r};{xi + offset:.9f}\n"
            for gi, yi, xi in zip(group, y.tolist(), x.tolist())))
        code, out, err = run(capsys, "effect", "--data", str(path), "--response", "y",
                             "--group", "g", "--covariates", "x", "--format", "json")
        assert (code, err) == (0, "")
        routes = json.loads(out)["effect"]["d_routes"]
        d = routes["from_coefficient"]
        assert routes["from_group_summaries"] == pytest.approx(d, rel=1e-12)
        assert routes["from_f_squared"] == pytest.approx(d, rel=1e-12)



class TestHistCommand:
    def test_unit_bins_cover_grade_range(self, capsys):
        code, out, _ = run(
            capsys, "hist", "--data", str(student_csv_path()), "--response", "G3"
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 21
        assert sum(int(l.split(",")[2]) for l in lines) == 649

    def test_custom_edges(self, capsys):
        code, out, _ = run(
            capsys, "hist", "--data", str(student_csv_path()),
            "--response", "G3", "--edges", "0,10,20",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 2

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "hist", "--data", str(student_csv_path()),
            "--response", "G3", "--format", "json",
        )
        doc = json.loads(out)
        assert sum(doc["histogram"]["counts"]) == 649
        assert len(doc["histogram"]["edges"]) == len(doc["histogram"]["counts"]) + 1

    def test_unsorted_edges_exit_2(self, capsys):
        code, out, err = run(
            capsys, "hist", "--data", str(student_csv_path()),
            "--response", "G3", "--edges", "5,1,10",
        )
        assert code == 2
        assert "UnsortedEdges" in err

    def test_default_bins_are_capped(self, capsys, tmp_path):
        path = tmp_path / "span.csv"
        path.write_text("y\n0\n1000000\n", encoding="utf-8")
        code, out, err = run(capsys, "hist", "--data", str(path), "--response", "y")
        assert code == 2 and out == ""
        assert "--edges" in err and "10000" in err
        code, out, _ = run(capsys, "hist", "--data", str(path), "--response", "y",
                           "--edges", "0,1000000")
        assert code == 0 and out.strip() == "0,1000000,2"

    def test_negative_first_edge_in_spaced_form(self, capsys):
        base = ["hist", "--data", str(student_csv_path()), "--response", "G3"]
        want = run(capsys, *base, "--edges=-1,5,10,21")
        assert want[0] == 0 and len(want[1].splitlines()) == 3
        assert run(capsys, *base, "--edges", "-1,5,10,21") == want
        code, out, _ = run(capsys, *base, "--edges", "-.5,10,21", "--format", "json")
        assert code == 0 and json.loads(out)["histogram"]["edges"] == [-0.5, 10, 21]
        code, _, err = exits(capsys, [*base, "--edges", "--format", "json"])
        assert code == 2 and "--edges: expected one argument" in err
        assert "-1,5,10,21" in exits(capsys, ["hist", "--help"])[1]

    @pytest.mark.parametrize("edges", ["-inf,5", "0,inf", "0,1e400"])
    def test_non_finite_edge_exits_2(self, capsys, edges):
        # an infinite edge would print as -Infinity, which is not JSON, and
        # 1e400 would be read as inf although the reader drops such cells
        argv = ["hist", "--data", str(student_csv_path()), "--response", "G3",
                "--format", "json", f"--edges={edges}"]
        code, out, err = exits(capsys, argv)
        assert code == 2 and out == ""
        assert f"cannot parse finite bin edges from {edges!r}" in err

    def test_default_bins_at_the_cap(self, capsys, tmp_path):
        path = tmp_path / "span.csv"
        path.write_text("y\n0\n9999.5\n", encoding="utf-8")
        code, out, _ = run(capsys, "hist", "--data", str(path), "--response", "y")
        assert code == 0 and len(out.splitlines()) == 10_000

    def test_unit_bins_past_the_precision_print_apart(self, capsys, tmp_path):
        # at 7 significant digits both bins would read 1.234568e+07,1.234568e+07
        path = tmp_path / "big.csv"
        path.write_text("y\n12345678\n12345679.5\n", encoding="utf-8")
        base = ["hist", "--data", str(path), "--response", "y"]
        code, out, _ = run(capsys, *base)
        assert code == 0
        assert out.splitlines() == ["12345678,12345679,1", "12345679,12345680,1"]
        code, out, _ = run(capsys, *base, "--precision", "3", "--edges", "-1000,999.5,1e8")
        assert code == 0 and out.splitlines() == ["-1000,1e+03,0", "1e+03,100000000,2"]

    @pytest.mark.parametrize("cells", [["1e300", "1e300"],
                                       ["9007199254740993", "9007199254740994"]],
                             ids=["1e300", "2**53+1"])
    def test_default_bins_past_2_53_exit_2(self, capsys, tmp_path, cells):
        # past 2**53 consecutive integers collide as floats, so unit edges
        # cannot be formed; no edges were passed, so none can be unsorted
        path = tmp_path / "huge.csv"
        path.write_text("y\n" + "".join(f"{c}\n" for c in cells), encoding="utf-8")
        code, out, err = run(capsys, "hist", "--data", str(path), "--response", "y")
        assert code == 2 and out == ""
        assert err.startswith("error: DataError: default unit bins cannot be formed")
        assert "2**53" in err and "pass --edges" in err
        code, out, _ = run(capsys, "hist", "--data", str(path), "--response", "y",
                           "--edges", "0,1e301")
        assert code == 0 and out.strip() == "0,1e+301,2"


class TestInputHeaders:
    def test_utf8_bom_file(self, capsys, tmp_path):
        text = "y;g\n1;A\n2;B\n4;A\n8;B\n3;A\n5;B\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        for command, extra in (("effect", ["--group", "g"]), ("hist", [])):
            want = run(capsys, command, "--data", str(plain), "--response", "y", *extra)
            code, out, err = run(capsys, command, "--data", str(bom), "--response", "y",
                                 *extra)
            assert code == 0 and err == ""
            assert out.replace(str(bom), str(plain)) == want[1]

    @pytest.mark.parametrize("command", ["effect", "hist"])
    def test_selected_duplicate_header_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "dup.csv"
        path.write_text("g;y;y\nA;1;10\nB;2;20\nA;3;30\nB;4;40\n", encoding="utf-8")
        argv = [command, "--data", str(path), "--response", "y"]
        if command == "effect":
            argv += ["--group", "g"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "DuplicateColumnError" in err and "'y'" in err

    @pytest.mark.parametrize("command", ["effect", "hist"])
    def test_unselected_duplicate_header_allowed(self, capsys, tmp_path, command):
        path = tmp_path / "dup.csv"
        path.write_text("g;y;z;z\nA;1;0;0\nB;2;0;0\nA;4;0;0\nB;8;0;0\n",
                        encoding="utf-8")
        argv = [command, "--data", str(path), "--response", "y"]
        if command == "effect":
            argv += ["--group", "g"]
        code, _, err = run(capsys, *argv)
        assert code == 0 and err == ""

    @pytest.mark.parametrize("name, roles", [
        ("Fedu", ["--response", "G3", "--group", "sex", "--covariates", "Fedu,Fedu"]),
        ("G3", ["--response", "G3", "--group", "sex", "--covariates", "G3"]),
        ("sex", ["--response", "sex", "--group", "sex"]),
    ], ids=["two_covariates", "response_and_covariate", "response_and_group"])
    def test_column_selected_twice_exits_2(self, capsys, name, roles):
        code, out, err = run(capsys, "effect", "--data", str(student_csv_path()), *roles)
        assert code == 2 and out == ""
        assert f"DataError: column {name!r} is selected more than once" in err


class TestUnreadableInput:
    @staticmethod
    def argv(command, path):
        extra = ["--group", "g"] if command == "effect" else []
        return [command, "--data", str(path), "--response", "y", *extra]

    @pytest.mark.parametrize("command", ["effect", "hist"])
    def test_non_utf8_file_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"g;y\nA;1\nB;2\nA;4\nB;8\nA;\xff3\nB;5\n")
        code, out, err = run(capsys, *self.argv(command, path))
        assert code == 2 and out == ""
        assert err.startswith("error: DataError:") and "Traceback" not in err
        assert str(path) in err and "0xff" in err

    @pytest.mark.parametrize("command", ["effect", "hist"])
    def test_field_over_csv_limit_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "huge.csv"
        path.write_text("g;y\nA;1\nB;2\nA;" + "4" * 200_000 + "\nB;8\nA;3\nB;5\n",
                        encoding="utf-8")
        code, out, err = run(capsys, *self.argv(command, path))
        assert code == 2 and out == ""
        assert err.startswith("error: DataError:") and "Traceback" not in err
        assert f"{path}, line 4:" in err and "field larger than field limit" in err


class TestReportReuse:
    @pytest.mark.parametrize("command, fmt", [
        ("effect", "json"), ("effect", "text"), ("fit", "json")])
    def test_group_summaries_computed_once(self, capsys, monkeypatch, command, fmt):
        from groupeffect import cli, effects, regression

        calls = []

        def counted(*args):
            calls.append(1)
            return regression.group_summaries(*args)

        monkeypatch.setattr(effects, "group_summaries", counted)
        monkeypatch.setattr(cli, "group_summaries", counted)
        code, _, _ = run(capsys, command, *student_args("Fedu"), "--format", fmt)
        assert code == 0 and len(calls) == 1


class TestNumericCells:
    def test_exponent_cell_is_read(self, capsys, tmp_path):
        path = tmp_path / "exp.csv"
        path.write_text("g;y\nA;1e0\nB;2\nA;3\nB;4.5E-1\nA;5\nB;6e+0\n",
                        encoding="utf-8")
        code, out, err = run(capsys, "effect", "--data", str(path), "--response", "y",
                             "--group", "g", "--format", "json")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["data_summary"]["dropped_rows"] == 0
        assert doc["effect"]["group_summaries"]["A"]["mean_raw"] == 3.0
        assert doc["effect"]["group_summaries"]["B"]["mean_raw"] == pytest.approx(
            (2 + 0.45 + 6) / 3, rel=1e-15)

    @pytest.mark.parametrize("command", ["effect", "hist"])
    def test_overflowing_cell_drops_its_row(self, capsys, tmp_path, command):
        path = tmp_path / "big.csv"
        path.write_text("g;y\nA;1\nB;2\nA;1e999\nB;8\nA;3\nB;5\n", encoding="utf-8")
        argv = [command, "--data", str(path), "--response", "y", "--format", "json"]
        if command == "effect":
            argv += ["--group", "g"]
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        summary = json.loads(out)["data_summary"]
        assert summary["rows_used"] == 5 and summary["dropped_rows"] == 1


def dataset_path_outcome(path, covariates=(), reference_level=None):
    """(exit code, stderr, Dataset or None) of ``effect`` run through a
    Dataset: load_csv, build_design, fit_fwl and effect_report, each error
    mapped as main maps it."""
    try:
        ds = load_csv(path, response_col="y", group_col="g", covariate_cols=covariates)
        design = build_design(ds, reference_level=reference_level)
        effect_report(design, fit_fwl(design))
    except DataError as exc:
        return 2, f"error: {type(exc).__name__}: {exc}\n", None
    except (NumericError, ValueError) as exc:
        return 3, f"error: {type(exc).__name__}: {exc}\n", None
    return 0, "", ds


def _rows(*labels_and_values):
    return "".join(f"{label};{y};{x}\n" for label, y, x in labels_and_values)


# file text, --ref-level, the stderr both paths give
STREAMING_ERRORS = {
    "third_label": (
        "g;y;x\n" + _rows(("A", 1, 1), ("B", 2, 3), ("C", 3, 2), ("A", 4, 5), ("B", 5, 1)),
        None, "NotBinaryGroupError: group column must have exactly 2 distinct values, "
              "got ['A', 'B', 'C']"),
    "third_label_after_full_flushes": (
        "g;y;x\n" + _rows(*((("A", "B")[i % 2], i % 7, i % 5) for i in range(800)))
        + _rows(("C", 1, 1)),
        None, "NotBinaryGroupError: group column must have exactly 2 distinct values, "
              "got ['A', 'B', 'C']"),
    "three_usable_rows": (
        "g;y;x\n" + _rows(("A", 1, 1), ("B", 2, 3), ("A", 3, 2), ("B", "", 1)),
        None, "EmptyAfterFilteringError: only 3 usable row(s) in {path}; need at least 4"),
    "no_usable_rows": (
        "g;y;x\n" + _rows(("A", "", 1), ("B", "x", 3)),
        None, "EmptyAfterFilteringError: no usable rows in {path} after dropping 2 "
              "incomplete row(s)"),
    "one_row_group": (
        "g;y;x\n" + _rows(("A", 1, 1), ("B", 2, 3), ("B", 3, 2), ("B", 4, 5), ("B", 5, 1)),
        None, "GroupTooSmallError: group 'A' has only 1 row(s); need at least 2"),
    "reference_level_no_label": (
        "g;y;x\n" + _rows(("A", 1, 1), ("B", 2, 3), ("A", 3, 2), ("B", 4, 5), ("A", 2, 2)),
        "Z", "GroupTooSmallError: reference level 'Z' is not a group label; the labels "
             "are 'A' and 'B'"),
    "reference_level_before_group_size": (
        "g;y;x\n" + _rows(("A", 1, 1), ("B", 2, 3), ("B", 3, 2), ("B", 4, 5), ("B", 5, 1)),
        "Z", "GroupTooSmallError: reference level 'Z' is not a group label; the labels "
             "are 'A' and 'B'"),
    "overflow_leaves_three_rows": (
        "g;y;x\n" + _rows(("A", 1, 1), ("B", 2, 3), ("A", "1e999", 2), ("B", 4, 5)),
        None, "EmptyAfterFilteringError: only 3 usable row(s) in {path}; need at least 4"),
}


class TestStreamingErrors:
    """effect and fit build their design as the file is read; every error
    must be the one, in the same order, that loading a Dataset gives."""

    @pytest.mark.parametrize("case", sorted(STREAMING_ERRORS))
    @pytest.mark.parametrize("command", ["effect", "fit"])
    def test_same_exit_code_and_stderr(self, capsys, tmp_path, case, command):
        text, reference_level, message = STREAMING_ERRORS[case]
        path = tmp_path / f"{case}.csv"
        path.write_text(text, encoding="utf-8")
        argv = [command, "--data", str(path), "--response", "y", "--group", "g",
                "--covariates", "x"]
        if reference_level is not None:
            argv += ["--ref-level", reference_level]
        code, out, err = run(capsys, *argv)
        want_code, want_err, _ = dataset_path_outcome(path, ["x"], reference_level)
        assert (code, out, err) == (want_code, "", want_err)
        assert err == f"error: {message.format(path=path)}\n"

    @pytest.mark.parametrize("text, kept_labels", [
        # a counted overflow row, in the first staged block and at a later one
        ("g;y;x\n" + _rows(("A", 1, 1), ("B", 2, 3), ("A", "1e999", 2), ("B", 4, 5),
                           ("A", 5, 1), ("B", 7, 2), ("A", 2, 2)), ["A", "B"]),
        ("g;y;x\n" + _rows(*((("A", "B")[i % 3 == 0], i % 11, "1e999" if i == 500 else i % 4)
                             for i in range(700))), ["A", "B"]),
        # a label whose only row overflows is no label: B against C
        ("g;y;x\n" + _rows(("A", "1e999", 1), ("B", 2, 3), ("C", 3, 2), ("B", 4, 5),
                           ("C", 5, 1), ("B", 7, 2), ("C", 2, 2)), ["B", "C"]),
    ])
    def test_overflowing_row_is_dropped_and_counted(self, capsys, tmp_path, text, kept_labels):
        path = tmp_path / "overflow.csv"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "effect", "--data", str(path), "--response", "y",
                             "--group", "g", "--covariates", "x", "--format", "json")
        want_code, want_err, ds = dataset_path_outcome(path, ["x"])
        assert (code, err) == (want_code, want_err) == (0, "")
        summary = json.loads(out)["data_summary"]
        assert (summary["rows_used"], summary["dropped_rows"]) == (ds.n_rows, ds.dropped_rows)
        assert summary["dropped_rows"] == 1
        assert [summary["group1"], summary["group2"]] == kept_labels


def write_rows(path, header, rows):
    """Write ``rows``, lists of cells, under ``header``, ';'-separated."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(";".join(header) + "\n")
        fh.writelines(";".join(row) + "\n" for row in rows)


class TestStreamedRows:
    @pytest.mark.parametrize("command", ["effect", "fit"])
    def test_result_depends_only_on_the_kept_rows(self, capsys, tmp_path, command):
        # 5% of the rows hold a cell the reader drops them for, so its
        # 64-row blocks pass on fewer rows than those of the same file
        # without these rows. The stage flushes at fixed row counts, so
        # every number must come out the same bit for bit, and only
        # dropped_rows differ.
        rng = np.random.default_rng(142)
        n, w = 3000, 3
        values = rng.standard_normal((n, w + 1)) * [1.0, 3.0, 1e3, 0.01] + [50, 0, 1e6, 1]
        rows = [["ab"[int(rng.integers(2))], *map(repr, row)] for row in values.tolist()]
        bad = rng.choice(n, n // 20, replace=False)
        cells = ["", "NA", "1e999", "-1e999", " ", "+-1", "1.2.3"]
        for i, row in enumerate(bad):
            column = int(rng.integers(w + 2))  # the label as well
            rows[row][column] = "" if column == 0 else cells[i % len(cells)]
        argv = [command, "--data", str(tmp_path / "data.csv"), "--response", "y",
                "--group", "g", "--covariates", "x1,x2,x3", "--format", "json"]
        header = ["g", "y", "x1", "x2", "x3"]
        write_rows(tmp_path / "data.csv", header, rows)
        code, with_bad, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert json.loads(with_bad)["data_summary"]["dropped_rows"] == len(bad)
        kept = np.ones(n, bool)
        kept[bad] = False
        write_rows(tmp_path / "data.csv", header, [row for row, ok in zip(rows, kept) if ok])
        code, without, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert with_bad.replace(f'"dropped_rows": {len(bad)},', '"dropped_rows": 0,') == without


class TestStreamingMemory:
    def test_effect_peak_does_not_grow_with_n(self, capsys, tmp_path):
        # effect folds each staged block into per-label factors as the file
        # is read, so at w = 10 a run over 2e5 rows must peak within one
        # staging buffer (33.8 KB at 384 rows) of a run over 1e5; holding
        # the rows, as loading a Dataset does, adds about 20 MB per 1e5
        # rows. One-digit cells keep the files small and quick to write.
        n, w = 200_000, 10
        digits = np.random.default_rng(140).integers(0, 10, (n, w + 2)).tolist()
        lines = [f"{'ab'[row[0] % 2]};{';'.join(map(str, row[1:]))}\n" for row in digits]
        names = [f"x{j}" for j in range(w)]
        peaks = []
        run(capsys, "effect", *student_args(), "--format", "json")  # first-call caches
        for rows in (n // 2, n):
            path = tmp_path / f"rows{rows}.csv"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(";".join(["g", "y", *names]) + "\n")
                fh.writelines(lines[:rows])
            (code, out, err), peak, _ = traced_peak(lambda: run(
                capsys, "effect", "--data", str(path), "--response", "y", "--group", "g",
                "--covariates", ",".join(names), "--format", "json"))
            peaks.append(peak)
            assert (code, err) == (0, "")
            assert json.loads(out)["data_summary"]["rows_used"] == rows
        stage = 8 * regression._STAGE_ROWS * (w + 1)
        assert abs(peaks[1] - peaks[0]) < stage, [f"{p / 1e3:.1f} KB" for p in peaks]

    def test_effect_holds_no_label_strings(self, capsys, tmp_path):
        # the stage codes each label as one byte when a run is pushed, so
        # only the reader's current block holds label strings: 64 labels of
        # 60 characters take about 7 KB, while one-character labels are
        # cached by Python and take none. A stage of 384 label strings
        # would take 41 KB.
        rng = np.random.default_rng(143)
        values = rng.standard_normal((3000, 3)).round(3).tolist()
        peaks = []
        run(capsys, "effect", *student_args(), "--format", "json")  # first-call caches
        for width in (1, 60):
            labels = ["a" * width, "b" * width]
            path = tmp_path / f"labels{width}.csv"
            write_rows(path, ["g", "y", "x1", "x2"],
                       [[labels[i % 3 == 0], *map(str, row)] for i, row in enumerate(values)])
            (code, out, err), peak, _ = traced_peak(lambda: run(
                capsys, "effect", "--data", str(path), "--response", "y", "--group", "g",
                "--covariates", "x1,x2", "--format", "json"))
            assert (code, err) == (0, "")
            peaks.append(peak)
        assert abs(peaks[1] - peaks[0]) < 16e3, [f"{p / 1e3:.1f} KB" for p in peaks]


def hist_by_loading(path, edges=None):
    """(exit code, stderr, (edges, counts, rows_used, dropped_rows) or None)
    of ``hist`` on column y, done as it was before its counting was
    streamed: load_column, then histogram over ``edges`` or the default
    unit bins, each error mapped as main maps it."""
    try:
        values, dropped = load_column(path, "y")
        if edges is None:
            lo, hi = math.floor(values.min()), math.floor(values.max())
            if hi - lo + 1 > 10_000:
                raise DataError(f"default unit bins over [{lo}, {hi + 1}] would make "
                                f"{hi - lo + 1} bins (limit 10000); pass --edges")
            edges = [float(e) for e in range(lo, hi + 2)]
        counts = histogram(values, edges)
    except DataError as exc:
        return 2, f"error: {type(exc).__name__}: {exc}\n", None
    return 0, "", (list(edges), counts, len(values), dropped)


def hist_by_cli(path, edges=None):
    """``hist_by_loading``'s triple from ``hist --format json``."""
    argv = ["hist", "--data", str(path), "--response", "y", "--format", "json"]
    if edges is not None:
        argv.append("--edges=" + ",".join(map(repr, edges)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code:
        assert out == ""
        return code, err, None
    doc = json.loads(out)
    summary, hist = doc["data_summary"], doc["histogram"]
    return code, err, (hist["edges"], hist["counts"], summary["rows_used"],
                       summary["dropped_rows"])


STAGE = dataio._HIST_STAGE
# cells that no value draw makes, each at a few random rows
SPECIAL_CELLS = ["", "NA", "1e999", "-1e999", "-0.0", "0", "-1", "7.0", "-3.0"]


@st.composite
def hist_columns(draw, n):
    """A quote-free column y of ``n`` ints and decimals, negatives among
    them, whose range grows or shrinks along the file, with SPECIAL_CELLS at
    a few rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([40.0, 2500.0, 12_000.0, 3.0, 0.5]))
    ramp = np.linspace(0.05, 1.0, n)
    if draw(st.booleans()):
        ramp = ramp[::-1]
    offset = draw(st.sampled_from([0.0, -7.5, 100.0]))
    values = rng.uniform(-1.0, 1.0, n) * ramp * spread + offset
    decimals = rng.uniform(size=n) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    cells = [f"{v:.3f}" if dec else str(int(round(v))) for v, dec in zip(values, decimals)]
    for r, cell in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                           st.sampled_from(SPECIAL_CELLS)), max_size=8)):
        cells[r] = cell
    return cells


class TestHistStreaming:
    """hist counts its bins as the file is read; its output and its errors
    must be those of loading the column and binning it."""

    # row counts around the counter's stage of S values: S - 1, S, S + 1, 2S + 1;
    # then around 4096 and past 8192 rows, several flushes with a partial run last
    @pytest.mark.parametrize("n", [1, 65, STAGE - 1, STAGE, STAGE + 1, 2 * STAGE + 1,
                                   4095, 4096, 4097, 8193])
    @pytest.mark.parametrize("edges", ["default", "sorted", "unsorted"])
    @settings(derandomize=True, max_examples=6, deadline=None)
    @given(data=st.data(),
           cuts=st.lists(st.floats(-150.0, 150.0), min_size=2, max_size=6))
    def test_matches_load_column_and_histogram(self, tmp_path_factory, n, data, edges,
                                                cuts):
        cells = data.draw(hist_columns(n))
        path = tmp_path_factory.mktemp("hist") / "y.csv"
        path.write_text("x;y\n" + "".join(f"{i};{c}\n" for i, c in enumerate(cells)),
                        encoding="utf-8")
        if edges == "default":
            cuts = None
        elif edges == "sorted":
            cuts = sorted(set(cuts)) if len(set(cuts)) > 1 else [-1.0, 1.0]
        elif cuts == sorted(set(cuts)):
            cuts = cuts[::-1]
        want = hist_by_loading(path, cuts)
        assert hist_by_cli(path, cuts) == want

    @pytest.mark.parametrize("case", ["missing_column", "no_usable_values", "unsorted_edges",
                                      "too_many_default_bins", "bad_utf8_after_a_flush",
                                      "bad_utf8_after_a_flush_unsorted_edges"])
    def test_same_exit_code_and_stderr(self, tmp_path, case):
        rows = [f"{i % 17}\n" for i in range(STAGE + 10)]
        header, edges, tail = "y\n", None, b""
        if case == "missing_column":
            header = "z\n"
        elif case == "no_usable_values":
            rows = ["NA\n", "\n", "1e999\n"] * 3
        elif case == "unsorted_edges":
            edges = [0.0, 5.0, 5.0]
        elif case == "too_many_default_bins":
            rows[STAGE + 5] = "-50000\n"
        else:
            # past the first flush, by which the bins were already too many:
            # the reader's error still comes first
            rows[1] = "50000\n"
            rows += [f"{i % 17}\n" for i in range(STAGE)]
            tail = b"\xff3\n"
            edges = [2.0, 1.0] if case.endswith("unsorted_edges") else None
        path = tmp_path / f"{case}.csv"
        path.write_bytes((header + "".join(rows)).encode("utf-8") + tail)
        want = hist_by_loading(path, edges)
        assert want[0] == 2
        assert hist_by_cli(path, edges) == want


class TestHistMemory:
    def test_hist_peak_does_not_grow_with_n(self, capsys, tmp_path):
        # hist counts each staged run of values into its bins as the file is
        # read, so a run over 2e5 rows must peak within one stage buffer of a
        # run over 1e5; holding the column, as load_column does, adds about
        # 1.6 MB per 1e5 rows
        n = 200_000
        rng = np.random.default_rng(13)
        grades = rng.integers(0, 21, n).astype(str).astype(object)
        grades[rng.choice(n, n // 100, replace=False)] = "NA"
        lines = [f'"GP";17;{g}\n' for g in grades]
        peaks = []
        run(capsys, *_student_argvs()[5])  # first-call caches
        for rows in (n // 2, n):
            path = tmp_path / f"rows{rows}.csv"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("school;age;G3\n")
                fh.writelines(lines[:rows])
            (code, out, err), peak, _ = traced_peak(lambda: run(
                capsys, "hist", "--data", str(path), "--response", "G3", "--format", "json"))
            peaks.append(peak)
            assert (code, err) == (0, "")
            summary = json.loads(out)["data_summary"]
            assert summary["rows_used"] + summary["dropped_rows"] == rows
        assert abs(peaks[1] - peaks[0]) < 8 * STAGE, [f"{p / 1e3:.1f} KB" for p in peaks]


class TestWidthMemory:
    def test_peak_does_not_grow_with_unselected_columns(self, capsys, tmp_path):
        # the reader keeps only each row's selected cells, so 296 unselected
        # columns, quoted strings and decimals in turn, must raise the peaks
        # of hist and effect by under 64 KB each; a block of 64 whole rows
        # of them takes about 1.1 MB
        rng = np.random.default_rng(171)
        rows = [["ab"[i % 3 == 0], *map(str, row)]
                for i, row in enumerate(rng.standard_normal((2000, 3)).round(4).tolist())]
        filler = [f'"s{j}"' if j % 2 else f"{j}.{j % 7}5" for j in range(296)]
        narrow, padded = tmp_path / "narrow.csv", tmp_path / "padded.csv"
        write_rows(narrow, ["g", "y", "a", "b"], rows)
        write_rows(padded, [f"f{j}" for j in range(148)] + ["g", "y", "a", "b"]
                   + [f"f{j}" for j in range(148, 296)],
                   [filler[:148] + row + filler[148:] for row in rows])
        for argv in (["hist", "--response", "y", "--format", "json"],
                     ["effect", "--response", "y", "--group", "g", "--covariates", "a,b",
                      "--format", "json"]):
            run(capsys, argv[0], "--data", str(narrow), *argv[1:])  # first-call caches
            outs, peaks = [], []
            for path in (narrow, padded):
                (code, out, err), peak, _ = traced_peak(
                    lambda: run(capsys, argv[0], "--data", str(path), *argv[1:]))
                assert (code, err) == (0, "")
                outs.append(out.replace(str(path), "data.csv"))
                peaks.append(peak)
            assert outs[0] == outs[1]
            assert peaks[1] - peaks[0] < 64e3, (argv[0], [f"{p / 1e3:.1f} KB" for p in peaks])


class _ClosedStdout:
    """A stdout whose reader has gone, as under `groupeffect ... | head -1`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    @pytest.mark.parametrize("which", [2, 3, 5])  # effect json, fit text, hist text
    def test_exits_1_without_an_error_line(self, capsys, monkeypatch, which):
        monkeypatch.setattr(sys, "stdout", _ClosedStdout())
        assert main(_student_argvs()[which]) == 1
        assert capsys.readouterr().err == ""

    def test_missing_input_still_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _ClosedStdout())
        assert main(["hist", "--data", "no_such_file.csv", "--response", "G3"]) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 2]")


class TestParserReuse:
    def test_repeated_calls_match_a_fresh_parser(self, capsys):
        argvs = _student_argvs()
        want = [fresh(capsys, argv) for argv in argvs]
        assert all(code == 0 and out and err == "" for code, out, err in want)
        for order in ([0, 1, 2, 3, 4, 5, 6], [5, 2, 6, 0, 4, 1, 3]):
            for i in order:
                assert run(capsys, *argvs[i]) == want[i]

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0),
        (["hist", "--help"], 0),
        (["effect", *student_args(), "--precision", "99"], 2),
        (["nosuch"], 2)], ids=["help", "hist-help", "bad-precision", "unknown-command"])
    def test_exits_leave_later_calls_unaffected(self, capsys, argv, code):
        later = _student_argvs()[2]
        want = fresh(capsys, later)
        cli._parser.cache_clear()
        first = exits(capsys, argv)
        assert first[0] == code and (first[1] if code == 0 else first[2])
        assert exits(capsys, argv) == first
        assert run(capsys, *later) == want
        assert exits(capsys, argv) == first

    def test_one_parser_per_process(self, capsys, monkeypatch):
        built, constructed = [], []
        build, init = cli.build_parser, argparse.ArgumentParser.__init__

        def counted_build():
            built.append(1)
            return build()

        def counted_init(self, *args, **kwargs):
            constructed.append(1)
            init(self, *args, **kwargs)

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counted_build)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
        argvs = _student_argvs()
        assert run(capsys, *argvs[0])[0] == 0
        after_first = len(constructed)
        for argv in argvs[1:] + argvs:
            assert run(capsys, *argv)[0] == 0
        exits(capsys, ["--help"])
        assert len(built) == 1
        assert len(constructed) == after_first > 0
