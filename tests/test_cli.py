"""Command-line interface: exit codes, output formats, and determinism."""

import json
import os
import subprocess
import sys

import mpmath
import pytest
from mpmath import mpc, mpf

import updownlab
from updownlab import (
    CMPoint,
    PrecisionContext,
    alpha_n,
    cli,
    epstein_sl2,
    identities,
    load_corpus,
    serialize_corpus,
    series,
    series_constants_from_cm,
)
from updownlab.cli import (
    EXIT_CORPUS,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    format_ap,
)
from updownlab.numerics import DomainError

from conftest import run_bounded
from oracles import gamma0_lattice_sum


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFormatAp:
    def test_significant_figures(self):
        assert format_ap(mpf(1) / 3, 5) == "0.33333"
        assert format_ap(mpf(12345.678), 6) == "12345.7"

    def test_half_even_rounding(self):
        assert format_ap(mpf("0.125"), 2) == "0.12"
        assert format_ap(mpf("0.135"), 2) == "0.14"

    def test_complex_values(self):
        with mpmath.workdps(30):
            assert "*i" in format_ap(mpmath.mpc(1, 2), 5)
            assert format_ap(mpmath.mpc(2, 0), 5) == "2.0000"

    def test_rounding_noise_imaginary_part_prints_real(self):
        with mpmath.workdps(30):
            value = mpmath.mpc(-2, mpf(10) ** -26)
            assert format_ap(value, 20) == format_ap(mpf(-2), 20)
            assert "*i" in format_ap(value, 27)

    def test_rounding_noise_real_part_prints_imaginary(self):
        with mpmath.workdps(30):
            value = mpmath.mpc(mpf(10) ** -26, -2)
            assert format_ap(value, 20) == format_ap(mpf(-2), 20) + "*i"
            assert " + " in format_ap(value, 27)

    def test_negative(self):
        assert format_ap(mpf("-1.5"), 3) == "-1.50"

    @pytest.mark.parametrize("value, exponent", [
        ("1e-2000000", "-2000000"), ("1e-1000000", "-1000000"), ("1.5e2000000", "2000000")])
    def test_exponent_beyond_decimal_range(self, value, exponent):
        # A subnormal Decimal keeps fewer than ``digits`` figures, so an
        # exponent past +-999999 is a usage error, not a megabyte of zeros.
        with pytest.raises(DomainError, match=f"exponent {exponent} is beyond"):
            format_ap(mpf(value), 5)

    @pytest.mark.parametrize("sign", [1, -1], ids=["2^1e400", "2^-1e400"])
    def test_huge_exponent_is_named_short(self, sign):
        # The decimal exponent of 2^(+-10^400) has 400 digits; the message
        # names it to 3 significant figures.
        with pytest.raises(DomainError) as info:
            format_ap(mpmath.ldexp(1, sign * 10**400), 40)
        assert len(str(info.value)) < 120
        assert f"exponent {'-' if sign < 0 else ''}3.01e+399 is beyond" in str(info.value)


class TestVerifyCommand:
    def test_single_identity(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "zeilberger",
                           "--digits", "30")
        assert code == EXIT_OK
        assert "PASS zeilberger" in out
        assert "1/1 passed" in out

    def test_single_kronecker_instance(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "e-i", "--digits", "25")
        assert code == EXIT_OK
        assert "PASS e-i" in out

    def test_unknown_id(self, capsys):
        code, _, err = run(capsys, "verify", "--id", "nonsense")
        assert code == EXIT_USAGE
        assert "unknown id" in err

    def test_filter_json_deterministic(self, capsys):
        argv = ("verify", "--filter", "d-*", "--digits", "30", "--json")
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["summary"]["total"] == 4
        assert payload["summary"]["failed"] == 0
        assert all("elapsed_ms" not in r for r in payload["reports"])

    def test_timings_flag_adds_elapsed(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "zeilberger",
                           "--digits", "20", "--json", "--timings")
        assert code == EXIT_OK
        assert "elapsed_ms" in json.loads(out)["reports"][0]

    def test_filter_matching_nothing(self, capsys):
        code, _, err = run(capsys, "verify", "--filter", "zzz*")
        assert code == EXIT_USAGE
        assert "matched nothing" in err

    def test_missing_corpus_file(self, capsys):
        code, _, err = run(capsys, "verify", "--all",
                           "--corpus", "/no/such/file.json")
        assert code == EXIT_CORPUS
        assert "corpus error" in err

    def test_failing_identity_exits_one(self, capsys, tmp_path):
        # Corrupt one right-hand side coefficient and expect a FAIL report.
        data = json.loads(serialize_corpus(load_corpus()))
        rec = next(r for r in data["identities"] if r["id"] == "zeilberger")
        rec["rhs"][0]["coeff"]["a"][0] += 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, _ = run(capsys, "verify", "--id", "zeilberger",
                           "--digits", "20", "--corpus", str(path))
        assert code == EXIT_VERIFY_FAILED
        assert "FAIL zeilberger" in out

    def test_id_with_glob_characters_matched_literally(self, capsys, tmp_path):
        data = json.loads(serialize_corpus(load_corpus()))
        rec = next(r for r in data["identities"] if r["id"] == "zeilberger")
        rec["id"] = "zeil[1]"
        data = {"identities": [rec], "kronecker": []}
        path = tmp_path / "glob.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, _ = run(capsys, "verify", "--id", "zeil[1]",
                           "--digits", "20", "--corpus", str(path))
        assert code == EXIT_OK
        assert "PASS zeil[1]" in out
        assert "1/1 passed" in out

    def test_empty_instance_is_a_corpus_error(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        inst = {"id": "empty", "points": [], "signs": [], "d1": -4, "d2": 1}
        path.write_text(json.dumps({"kronecker": [inst]}), encoding="utf-8")
        code, out, err = run(capsys, "verify", "--all", "--corpus", str(path))
        assert code == EXIT_CORPUS
        assert "no points" in err and out == ""

    def test_huge_radicand_is_a_corpus_error(self, tmp_path):
        # A radicand past the squarefree test's 10^12 bound fails the load
        # (exit 3) within the child's time limit instead of hanging it.
        data = json.loads(serialize_corpus(load_corpus()))
        data["identities"][0]["rhs"][0]["coeff"] = {
            "a": [0, 1], "b": [1, 1], "D": 10**18 + 3}
        path = tmp_path / "radicand.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        result = run_bounded("-m", "updownlab.cli", "verify", "--all",
                             "--corpus", str(path))
        assert result.returncode == EXIT_CORPUS
        assert "corpus error" in result.stderr and "10^12" in result.stderr

    @pytest.mark.parametrize("path, value", [
        (("kronecker", 0, "d1"), -3.9),
        (("kronecker", 0, "signs", 0), True),
        (("identities", 4, "rhs", 0, "coeff", "D"), 5.7),
        (("identities", 4, "rhs", 0, "coeff", "D"), "5"),
    ])
    def test_non_integer_is_a_corpus_error(self, capsys, tmp_path, path, value):
        # e-i and fib2 with a float, bool or string where an integer goes:
        # exit 3 before anything is verified, never a verdict on int(value).
        data = json.loads(serialize_corpus(load_corpus()))
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, "verify", "--all", "--corpus", str(corpus))
        assert code == EXIT_CORPUS and out == ""
        assert "corpus error" in err and "is not an integer" in err

    def test_lhs_entry_not_an_object_is_a_corpus_error(self, capsys, tmp_path):
        data = json.loads(serialize_corpus(load_corpus()))
        data["identities"][0]["lhs"] = [5]
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run(capsys, "verify", "--all", "--corpus", str(corpus))
        assert code == EXIT_CORPUS and out == ""
        assert err.startswith("corpus error: identities[0] (zeilberger): lhs entry 5")

    def test_mixed_radicands_under_one_m(self, capsys, tmp_path):
        # Two series on m = 1 with a in Q(sqrt2) and Q(sqrt3): no one field
        # holds their sum, which is a usage error naming both radicands.
        terms = [{"weight": {"a": [1, 1], "b": [0, 1], "D": 1},
                  "kind": "updown", "family": "CENTRAL3",
                  "a": {"a": [0, 1], "b": [1, 1], "D": d},
                  "b": {"a": [0, 1], "b": [0, 1], "D": 1},
                  "m": {"a": [1, 1], "b": [0, 1], "D": 1}} for d in (2, 3)]
        rec = {"id": "mixed", "lhs": terms,
               "rhs": [{"coeff": {"a": [1, 1], "b": [0, 1], "D": 1}, "tag": "PI2"}]}
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps({"identities": [rec]}), encoding="utf-8")
        code, out, err = run(capsys, "verify", "--all", "--corpus", str(path))
        assert code == EXIT_USAGE
        assert "sqrt(2)" in err and "sqrt(3)" in err and out == ""


class TestValueCommands:
    def test_lvalue_catalan(self, capsys):
        code, out, _ = run(capsys, "lvalue", "--d", "-4", "--digits", "30")
        assert code == EXIT_OK
        with mpmath.workdps(40):
            expected = mpmath.nstr(+mpmath.catalan, 25)
        assert expected[:20] in out

    def test_lvalue_catalan_300_digits(self, capsys):
        code, out, _ = run(capsys, "lvalue", "--d", "-4", "--digits", "300")
        assert code == EXIT_OK
        with mpmath.workdps(320):
            expected = format_ap(+mpmath.catalan, 300)
        assert out.strip() == f"L_-4(2) = {expected}"

    def test_lvalue_bad_discriminant(self, capsys):
        code, _, err = run(capsys, "lvalue", "--d", "-5")
        assert code == EXIT_USAGE

    def test_lvalue_even_character_past_max_terms_residues(self, capsys):
        # 5 * 10007^2 is above MAX_TERMS, but the closed form sums d0 = 5.
        code, out, err = run(capsys, "lvalue", "--d", "500700245", "--digits", "30")
        assert code == EXIT_OK and err == ""
        assert out.startswith("L_500700245(2) = 0.70621141031197841450965491909")

    def test_lvalue_more_residues_than_max_terms(self, capsys):
        code, _, err = run(capsys, "lvalue", "--d", "-40000003")
        assert code == EXIT_USAGE
        assert "MAX_TERMS" in err

    def test_epstein_gaussian_point(self, capsys):
        code, out, _ = run(capsys, "epstein", "--z", "i", "--digits", "25",
                           "--json")
        assert code == EXIT_OK
        with mpmath.workdps(40):
            value = mpf(json.loads(out)["value"])
            expected = 30 * mpmath.catalan / mpmath.pi**2
            assert abs(value - expected) < mpf(10) ** -23

    def test_epstein_gamma0(self, capsys):
        code, out, _ = run(capsys, "epstein", "--z", "2*i", "--gamma0", "2",
                           "--digits", "12")
        assert code == EXIT_OK
        assert "E_gamma0(2)" in out

    def test_gamma0_prints_only_certified_digits(self, capsys):
        # The closed form is good to every one of the --digits digits: the
        # whole payload, with no tail bound, and the value within the float
        # lattice sum's tail bound (4.4e-5 at radius 600).
        value = "4.058147691914991513491884198371428796255"
        code, out, _ = run(capsys, "epstein", "--z", "2*i", "--gamma0", "2",
                           "--digits", "40", "--json")
        assert code == EXIT_OK
        assert json.loads(out) == {"label": "E_gamma0(2)(2*i, 2)", "digits": 40, "value": value}
        far = gamma0_lattice_sum(mpc(0, 2), 2, PrecisionContext(digits=20))
        assert abs(mpf(value) - far.value) < far.tail
        code, out, _ = run(capsys, "epstein", "--z", "2*i", "--gamma0", "2")
        assert out == f"E_gamma0(2)(2*i, 2) = {value}\n"

    def test_gamma0_near_the_cusp_prints_every_digit(self, capsys):
        # About 6 digits cancel at 1/100*i; the E values carry them, so the
        # 40 digits printed are the 60-digit run's, rounded.
        code, out, err = run(capsys, "epstein", "--z", "1/100*i", "--gamma0", "2", "--json")
        assert code == EXIT_OK and err == ""
        code, wide, _ = run(capsys, "epstein", "--z", "1/100*i", "--gamma0", "2",
                            "--digits", "60", "--json")
        with mpmath.workdps(80):
            assert json.loads(out)["value"] == format_ap(mpf(json.loads(wide)["value"]), 40)

    def test_alpha(self, capsys):
        code, out, _ = run(capsys, "alpha", "--z", "i", "--N", "2",
                           "--digits", "20", "--json")
        assert code == EXIT_OK
        assert "alpha_2" in json.loads(out)["label"]

    def test_alpha_real_at_cm_point(self, capsys):
        # alpha_3 is real at this CM point; its computed imaginary part is
        # rounding noise near 1e-78 and is not printed.
        code, out, _ = run(capsys, "alpha", "--z", "1/2+1/2*sqrt(7)*i",
                           "--N", "3", "--digits", "60")
        assert code == EXIT_OK
        label, value = out.strip().split(" = ")
        assert label == "alpha_3(1/2+1/2*sqrt(7)*i)"
        assert value == "-0.00665525354553807537317293437509377305246264779526802235164410"

    def test_constants(self, capsys):
        # A leading "-" needs the --z=... form so argparse keeps the value.
        code, out, _ = run(capsys, "constants", "--z=-1/8+1/8*sqrt(15)*i",
                           "--N", "4", "--digits", "20", "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert set(payload) >= {"c1", "c2", "m"}

    def test_constants_drop_a_noise_real_part(self, capsys):
        # c1 and c2 are purely imaginary here; their computed real parts are
        # about 10^-46 of the modulus, rounding noise at 30 digits.
        code, out, _ = run(capsys, "constants", "--z=-1/8+1/8*sqrt(15)*i",
                           "--N", "4", "--digits", "30")
        assert code == EXIT_OK
        assert out.splitlines()[:2] == [
            "c1 = 1.20385899530023700036856733123*i",
            "c2 = 0.372508469834851520647594208022*i",
        ]

    def test_epstein_height_beyond_max_terms(self, capsys):
        # Im z = 10^-8 would need about 2 * 10^9 q-series terms; the SL(2, Z)
        # reduction takes it to 10^8 i, where E is the same.
        code, out, _ = run(capsys, "epstein", "--z", "1/100000000*i", "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        ctx = PrecisionContext(payload["digits"])
        with ctx.working():
            expected = epstein_sl2(mpmath.mpc(0, 10**8), ctx)
        assert payload["value"] == format_ap(expected, ctx.digits)

    @pytest.mark.parametrize("point, digits, exponent", [
        ("1/1" + "0" * 400 + "*i", ["--digits", "30"], 800),
        ("1" + "0" * 30 + "*i", [], 60),
    ], ids=["1e-400", "1e30"])
    def test_epstein_cm_point_at_extreme_height(self, capsys, monkeypatch, point, digits,
                                                exponent):
        # 10^-400 i is the form (10^800, 0, 1), which reduces to (1, 0, 10^800)
        # at 10^400 i, a height no float holds; E(i y, 2) = y^2 + 45 zeta(3) /
        # (pi^3 y) up to e^(-2 pi y) prints as y^2 at both heights.
        monkeypatch.delenv(cli.ENV_DIGITS, raising=False)
        code, out, err = run(capsys, "epstein", "--z", point, *digits)
        assert code == EXIT_OK and err == ""
        assert out == f"E({point}, 2) = 1{'0' * exponent}\n"

    @pytest.mark.parametrize("command, point, level", [
        ("epstein", "sqrt(232)*i", None),
        ("alpha", "1/2+1/2*sqrt(7)*i", 3),
        ("constants", "-1/8+1/8*sqrt(15)*i", 4),
    ])
    def test_point_kept_at_working_precision(self, capsys, command, point, level):
        # The point is embedded at 60 digits; no public function may round
        # it to mpmath's ambient 53 bits before its own working context.
        ctx = PrecisionContext(60)
        with ctx.working():
            z = CMPoint.from_string(point).to_point(ctx)
            if command == "constants":
                expected = series_constants_from_cm(z, level, ctx)
            elif command == "alpha":
                expected = (alpha_n(z, level, ctx),)
            else:
                expected = (epstein_sl2(z, ctx),)
        argv = [command, f"--z={point}", "--digits", "60", "--json"]
        if level is not None:
            argv += ["--N", str(level)]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        payload = json.loads(out)
        printed = [payload[k] for k in ("c1", "c2", "m")] \
            if command == "constants" else [payload["value"]]
        assert printed == [format_ap(v, 60) for v in expected]

    @pytest.mark.parametrize("height", ["1" + "0" * 200, "1/1" + "0" * 200],
                             ids=["1e200", "1e-200"])
    def test_gamma0_height_beyond_floats(self, capsys, height):
        # Both print, as floats could not: at 10^200 i, G_2 = y^2 + 45 zeta(3)
        # / (15 pi^3 y) rounds to 10^400; at 10^-200 i about 800 digits cancel,
        # within MAX_EXTRA_DIGITS, and G_2 = 21 zeta(3) 10^-200 / pi^3 up to
        # e^(-10^200 pi / 2).
        code, out, err = run(capsys, "epstein", "--z", f"{height}*i", "--gamma0", "2")
        assert code == EXIT_OK and err == ""
        with mpmath.workdps(60):
            want = ("1" + "0" * 400 if height.startswith("1" + "0") else
                    format_ap(21 * mpmath.zeta(3) * mpf(10) ** -200 / mpmath.pi**3, 40))
        assert out == f"E_gamma0(2)({height}*i, 2) = {want}\n"

    def test_gamma0_past_the_budget(self, capsys):
        # 10^-600 i would cancel about 2400 digits.
        code, out, err = run(capsys, "epstein", "--z", "1/1" + "0" * 600 + "*i", "--gamma0", "2")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and "MAX_EXTRA_DIGITS" in err

    @pytest.mark.parametrize("height", ["1/1" + "0" * 400, "1/100000"],
                             ids=["1e-400", "1e-5"])
    def test_alpha_at_extreme_height(self, height):
        # Eta reduces the point first, so even a height whose float is 0
        # gives alpha_2, which rounds to 1.
        result = run_bounded("-m", "updownlab.cli", "alpha", "--z", f"{height}*i",
                             "--N", "2", seconds=30)
        assert result.returncode == EXIT_OK
        assert result.stdout.startswith(f"alpha_2({height}*i) = 1.000")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("height", ["1/100000"], ids=["1e-5"])
    def test_constants_at_extreme_height(self, height):
        # alpha_2 at 10^-5 i rounds to 1, yet the constants, rational in the
        # eta quotient t, are defined there: m = 64 (1 + t)^2 / t, about
        # 4.3e136437, prints in full with the digits of a 120-digit run.
        result = run_bounded("-m", "updownlab.cli", "constants", "--z", f"{height}*i",
                             "--N", "2", "--digits", "40", seconds=30)
        assert result.returncode == EXIT_OK
        assert "Traceback" not in result.stderr
        want = series_constants_from_cm(CMPoint.from_string(f"{height}*i"), 2,
                                         PrecisionContext(digits=120))
        assert result.stdout.splitlines() == [
            f"{name:<2} = {format_ap(v, 40)}" for name, v in zip(("c1", "c2", "m"), want)]

    @pytest.mark.parametrize("digits", [10, 20, 30, 40, 60])
    @pytest.mark.parametrize("command", ["alpha", "constants"])
    @pytest.mark.parametrize("point, level", [("1/2+1/2*i", 2), ("1/2+1/6*sqrt(3)*i", 3)])
    def test_elliptic_point_is_a_usage_error(self, capsys, point, level, command, digits):
        # alpha_2 and alpha_3 have poles at these elliptic points of Gamma0(2)
        # and Gamma0(3): 1 + Q/s cancels to rounding noise, and at 1/2+1/2*i
        # N E2*(2z) - E2*(z) is exactly 0. Exit 2, never noise or a traceback.
        code, out, err = run(capsys, command, "--z", point, "--N", str(level),
                             "--digits", str(digits))
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and "pole" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["alpha", "constants"])
    def test_near_pole_is_a_usage_error(self, capsys, command):
        # alpha_4(1/2+1/100*i) is about -1.03e67, so 1 + Q/s keeps none of its
        # 45 digits.
        code, out, err = run(capsys, command, "--z", "1/2+1/100*i", "--N", "4",
                             "--digits", "30")
        assert code == EXIT_USAGE and "pole" in err and out == ""

    def test_value_beyond_decimal_range_is_a_usage_error(self):
        # alpha_2(10^30 i) is about 64 e^(-2 pi 10^30): its decimal exponent,
        # about -2.7e30, is past the largest one Decimal parses.
        result = run_bounded("-m", "updownlab.cli", "alpha", "--z",
                             "1" + "0" * 30 + "*i", "--N", "2")
        assert result.returncode == EXIT_USAGE
        assert result.stderr.startswith("error: decimal exponent -")
        assert "Traceback" not in result.stderr and result.stdout == ""

    def test_bad_point_string(self, capsys):
        code, _, err = run(capsys, "epstein", "--z", "not-a-point")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("command", ["alpha", "constants"])
    def test_bad_point_rejected(self, capsys, command):
        code, out, err = run(capsys, command, "--z", "not-a-point", "--N", "2")
        assert code == EXIT_USAGE
        assert err.startswith("error: ")
        assert out == ""


class TestTablesCommand:
    def test_table_logic_lives_in_the_library(self):
        assert cli.check_table is identities.check_table
        assert cli.load_tables is identities.load_tables

    @pytest.mark.parametrize("table", [1, 2, 3])
    def test_all_cells_match(self, capsys, table):
        code, out, _ = run(capsys, "tables", "--table", str(table),
                           "--digits", "25")
        assert code == EXIT_OK
        assert "FAIL" not in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "tables", "--table", "3",
                           "--digits", "25", "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["pass"] is True
        assert len(payload["cells"]) == 9

    def test_floor_digits_can_fail_a_cell(self, capsys, monkeypatch):
        # A table cell passes below 10^-(digits - 5), as a record does; at
        # the floor of 10 digits a residual of 10^-3 fails.
        monkeypatch.setattr(cli, "check_table",
                            lambda table, ctx: iter([("i", "c1", mpf("1e-3"))]))
        code, out, _ = run(capsys, "tables", "--table", "1", "--digits", "10")
        assert code == EXIT_VERIFY_FAILED
        assert out.startswith("FAIL table 1 ")

    def test_tables_parsed_once(self, monkeypatch):
        tables = identities.load_tables()
        assert identities.load_tables() is tables
        assert isinstance(tables, tuple)
        assert all(isinstance(tab["rows"], tuple) for tab in tables)
        calls = []
        read = identities._read_data

        def counted(*args):
            calls.append(args)
            return read(*args)

        monkeypatch.setattr(identities, "_read_data", counted)
        ctx = PrecisionContext(digits=10)
        for table in (1, 2, 3):
            assert list(identities.check_table(table, ctx))
        assert calls == []


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


class TestGoldenOutputs:
    """Outputs compared byte for byte with tests/golden/<name>, which holds
    ``python -m updownlab.cli <argv>``. A change that moves a value rewrites
    the file with that command and names the moved fields."""

    @pytest.mark.parametrize("name, argv", [
        ("verify_all_10.json", "verify --all --digits 10 --json"),
        ("verify_all_40.json", "verify --all --digits 40 --json"),
        ("verify_all_300.json", "verify --all --digits 300 --json"),
        pytest.param("verify_all_1000.json", "verify --all --digits 1000 --json",
                     marks=pytest.mark.highprec),
        *((f"tables_{n}_{digits}.json", f"tables --table {n} --digits {digits} --json")
          for digits in (40, 100) for n in (1, 2, 3)),
        *(pytest.param(f"tables_{n}_1000.json", f"tables --table {n} --digits 1000 --json",
                       marks=pytest.mark.highprec) for n in (1, 2, 3)),
    ])
    def test_matches_golden(self, capsys, name, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == EXIT_OK and err == ""
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
            assert out == fh.read()

    def test_warm_memos_give_the_cold_bytes(self, capsys):
        # verify --all at 40 and then 300 digits in one process, first with
        # the memos of computed values empty and then with them full: every
        # report holds the golden bytes, which a fresh process wrote.
        outputs = []
        for _ in ("cold", "warm"):
            for digits in (40, 300):
                code, out, err = run(capsys, "verify", "--all", "--digits", str(digits), "--json")
                assert code == EXIT_OK and err == ""
                outputs.append(out)
        assert series._real_lanes.cache_info().hits > 0
        assert series._fib_halves.cache_info().hits > 0
        assert identities._kept_epstein.cache_info().hits > 0
        assert identities._kept_constant.cache_info().hits > 0
        for digits, out in zip((40, 300, 40, 300), outputs):
            with open(os.path.join(GOLDEN, f"verify_all_{digits}.json"), encoding="utf-8") as fh:
                assert out == fh.read(), digits


class TestArgumentHandling:
    def test_no_command(self, capsys):
        assert cli.main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_digits_floor(self, capsys):
        code, _, err = run(capsys, "lvalue", "--d", "-4", "--digits", "5")
        assert code == EXIT_USAGE
        assert "digits" in err

    @pytest.mark.parametrize("argv, option", [
        (["lvalue", "--d", "-4", "--digits", "abc"], "--digits"),
        (["tables", "--table", "7"], "--table"),
    ])
    def test_parse_error_names_the_argument(self, capsys, argv, option):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        lines = err.splitlines()
        assert lines[0].startswith(f"usage: updownlab {argv[0]} ")
        assert lines[-1].startswith(f"updownlab {argv[0]}: error: ")
        assert option in lines[-1]

    def test_cache_option_is_gone(self, capsys, tmp_path):
        # No option reads constants from a file: --cache is an unknown
        # argument, which argparse reports from the top-level parser.
        cache = tmp_path / "c.json"
        code, out, err = run(capsys, "verify", "--all", "--cache", str(cache))
        assert code == EXIT_USAGE and out == ""
        assert "unrecognized arguments: --cache" in err.splitlines()[-1]
        assert not cache.exists()

    def test_env_default_digits(self, monkeypatch):
        monkeypatch.setenv(cli.ENV_DIGITS, "33")
        assert cli._default_digits() == 33
        monkeypatch.setenv(cli.ENV_DIGITS, "junk")
        with pytest.raises(DomainError, match=cli.ENV_DIGITS):
            cli._default_digits()
        monkeypatch.delenv(cli.ENV_DIGITS)
        assert cli._default_digits() == 40

    @pytest.mark.parametrize("raw", ["5", "junk", ""])
    def test_env_digits_invalid_exits_two(self, capsys, monkeypatch, raw):
        # An unusable value is an error, as --digits 5 is, not a silent 10 or 40.
        monkeypatch.setenv(cli.ENV_DIGITS, raw)
        code, out, err = run(capsys, "lvalue", "--d", "-4")
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and out == ""

    def test_env_digits_used_and_overridden(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_DIGITS, "15")
        code, out, _ = run(capsys, "lvalue", "--d", "-4")
        assert code == EXIT_OK and out == "L_-4(2) = 0.915965594177219\n"
        monkeypatch.setenv(cli.ENV_DIGITS, "junk")
        code, out, _ = run(capsys, "lvalue", "--d", "-4", "--digits", "12")
        assert code == EXIT_OK and out == "L_-4(2) = 0.915965594177\n"


def test_import_loads_no_numpy():
    # mpmath is the one runtime dependency: importing the package and its
    # command line, as every command does, must not load numpy.
    src = os.path.dirname(os.path.dirname(updownlab.__file__))
    code = "import sys, updownlab, updownlab.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert result.stdout.strip() == "False"
