"""Corpus loading, serialization, the constants cache, and the verifier."""

import dataclasses
import json
import os
from fractions import Fraction
from importlib import resources

import mpmath
import pytest
from mpmath import mp, mpf

from updownlab import (
    CorpusError,
    PrecisionContext,
    QuadraticNumber,
    load_corpus,
    serialize_corpus,
    verify_all,
    verify_identity,
    verify_kronecker,
)
from updownlab.identities import (
    ConstantsCache,
    KroneckerInstance,
    UpsideDownSeries,
    check_table,
    constant_value,
    corpus_from_json,
    load_tables,
)
from updownlab import identities
from updownlab.lfunctions import Discriminant, dirichlet_l2
from updownlab.modular import CMPoint
from updownlab.numerics import embed_quadratic
from updownlab.series import _FAMILY_BY_LEVEL, evaluate_series_sum


class TestCorpusLoading:
    def test_shipped_corpus_size(self, corpus):
        assert len(corpus.identities) >= 25
        assert len(corpus.kronecker) >= 10

    def test_lookup(self, corpus):
        assert corpus.identity("zeilberger").id == "zeilberger"
        assert corpus.instance("e-i").id == "e-i"
        with pytest.raises(KeyError):
            corpus.identity("nope")
        with pytest.raises(KeyError):
            corpus.instance("nope")

    def test_serialization_round_trip(self, corpus):
        text = resources.files("updownlab").joinpath("data/corpus.json") \
            .read_text("utf-8")
        assert serialize_corpus(corpus) == text
        assert serialize_corpus(corpus_from_json(serialize_corpus(corpus))) \
            == serialize_corpus(corpus)

    def test_load_from_path(self, corpus, tmp_path):
        p = tmp_path / "corpus.json"
        p.write_text(serialize_corpus(corpus), encoding="utf-8")
        again = load_corpus(str(p))
        assert [r.id for r in again.identities] == \
            [r.id for r in corpus.identities]


class TestCorpusAgainstTables:
    # The updown records outside the golden-ratio group are weighted series
    # at table CM points: m is one row's m cell, and (a, b) is proportional
    # to (c1, c2) = (2 y c1_cell, y c2_cell), so a c2_cell = 2 b c1_cell.
    @pytest.mark.parametrize("record_id", [
        "d-352", "d-928", "d-448", "d-112",
        "b1", "b2", "b3", "b4", "b5", "b6", "b7", "c1", "c2", "c3",
    ])
    def test_record_sits_on_one_table_row(self, corpus, record_id):
        ctx = PrecisionContext(digits=50)
        (term,) = corpus.identity(record_id).lhs
        s = term.series
        level = {f: n for n, f in _FAMILY_BY_LEVEL.items()}[s.family]
        close = mpf(10) ** -40
        with ctx.working():
            a, b, m = (embed_quadratic(q, ctx) for q in (s.a, s.b, s.m))
            rows = [row["cells"] for tab in load_tables() if tab["level"] == level
                    for row in tab["rows"]
                    if abs(row["cells"]["m"].embed(ctx) - m) < close * abs(m)]
            assert len(rows) == 1
            c1, c2 = rows[0]["c1"].embed(ctx), rows[0]["c2"].embed(ctx)
            assert abs(a * c2 - 2 * b * c1) < close * abs(a * c2)


class TestTableResiduals:
    def test_points_embedded_where_the_constants_run(self):
        # check_table embeds each point at ctx.bumped(), as
        # series_constants_from_cm runs there; embedded at ctx, the worst of
        # the 42 cells at 100 digits read 2.3e-110.
        ctx = PrecisionContext(digits=100)
        cells = [res for n in (1, 2, 3) for _, _, res in check_table(n, ctx)]
        assert len(cells) == 42 and max(cells) < mpf("1e-112")


class TestCorpusValidation:
    def test_invalid_json(self):
        with pytest.raises(CorpusError):
            corpus_from_json("{nope")

    def test_top_level_must_be_object(self):
        with pytest.raises(CorpusError):
            corpus_from_json("[1, 2]")

    def test_duplicate_ids(self):
        rec = {
            "id": "x", "source": "", "lhs": [{
                "weight": {"a": [1, 1], "b": [0, 1], "D": 1},
                "kind": "fiblucas",
                "p": [1, 1], "q": [0, 1], "r": [0, 1], "s": [0, 1],
                "t": [0, 1], "u": [0, 1],
            }],
            "rhs": [{"coeff": {"a": [1, 1], "b": [0, 1], "D": 1},
                     "tag": "PI2"}],
        }
        text = json.dumps({"identities": [rec, rec]})
        with pytest.raises(CorpusError, match="duplicate"):
            corpus_from_json(text)

    def test_empty_lhs_rejected(self):
        rec = {"id": "x", "lhs": [],
               "rhs": [{"coeff": {"a": [1, 1], "b": [0, 1], "D": 1},
                        "tag": "PI2"}]}
        with pytest.raises(CorpusError, match="empty lhs"):
            corpus_from_json(json.dumps({"identities": [rec]}))

    def test_empty_lhs_rejected_by_the_record(self):
        with pytest.raises(CorpusError, match="empty lhs"):
            identities.IdentityRecord("x", "", (), ((QuadraticNumber(1), "PI2"),))

    @pytest.mark.parametrize("section", ["identities", "kronecker"])
    @pytest.mark.parametrize("record_id", [None, "", 7])
    def test_missing_id_rejected(self, section, record_id):
        data = json.loads(serialize_corpus(load_corpus()))
        data[section][1]["id"] = record_id
        with pytest.raises(CorpusError, match=rf"^{section}\[1\]: missing id"):
            corpus_from_json(json.dumps(data))

    @pytest.mark.parametrize("section", ["identities", "kronecker"])
    def test_record_that_is_not_an_object_rejected(self, section):
        data = json.loads(serialize_corpus(load_corpus()))
        data[section][0] = [1, 2]
        with pytest.raises(CorpusError, match="missing id"):
            corpus_from_json(json.dumps(data))

    # A JSON number that is not an integer, a bool or a numeric string is
    # never coerced: int(-3.9) would verify the instance at d1 = -3, and
    # True would pass as the sign 1.
    @pytest.mark.parametrize("section, record_id, path, value", [
        ("kronecker", "e-i", ("d1",), -3.9),
        ("kronecker", "e-i", ("d2",), True),
        ("kronecker", "e-i", ("d1",), "-4"),
        ("kronecker", "e-i", ("signs", 0), True),
        ("kronecker", "e-i", ("signs", 0), 1.0),
        ("kronecker", "e-i", ("twist", 0), 2.0),
        ("identities", "fib2", ("rhs", 0, "coeff", "D"), 5.7),
        ("identities", "fib2", ("rhs", 0, "coeff", "D"), "5"),
        ("identities", "fib2", ("rhs", 0, "coeff", "b", 1), 25.0),
        ("identities", "fib2", ("lhs", 0, "weight", "a", 0), True),
        ("identities", "fib2", ("lhs", 0, "p", 0), "-105"),
    ])
    def test_non_integer_rejected(self, section, record_id, path, value):
        data = json.loads(serialize_corpus(load_corpus()))
        node = next(r for r in data[section] if r["id"] == record_id)
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(CorpusError, match=rf"\({record_id}\): .* is not an integer"):
            corpus_from_json(json.dumps(data))

    # A list field that is not a list, or an lhs/rhs entry that is not an
    # object, is a corpus error at its record: "points": "i" would load as
    # the one point i, and an entry 5 would fail on 5.get().
    @pytest.mark.parametrize("section, record_id, changes, message", [
        ("identities", "fib2", {"lhs": [5]}, "lhs entry 5 is not an object"),
        ("identities", "fib2", {"rhs": [5]}, "rhs entry 5 is not an object"),
        ("identities", "fib2", {"lhs": {"kind": "fiblucas"}}, "lhs must be a list"),
        ("identities", "fib2", {"lhs": "fiblucas"}, "lhs must be a list"),
        ("identities", "fib2", {"rhs": {"tag": "PI2"}}, "rhs must be a list"),
        ("identities", "fib2", {"rhs": "PI2"}, "rhs must be a list"),
        ("kronecker", "e-i", {"points": "i", "signs": [1]}, "points must be a list"),
        ("kronecker", "e-i", {"signs": {"0": 1}}, "signs must be a list"),
        ("kronecker", "e-i", {"points": [5], "signs": [1]}, "cannot parse CM point 5"),
    ])
    def test_malformed_list_rejected(self, section, record_id, changes, message):
        data = json.loads(serialize_corpus(load_corpus()))
        next(r for r in data[section] if r["id"] == record_id).update(changes)
        with pytest.raises(CorpusError, match=rf"\({record_id}\): {message}"):
            corpus_from_json(json.dumps(data))

    # source is a free-form string: any other JSON value would make the
    # frozen record unhashable, or print as something it is not.
    @pytest.mark.parametrize("value", [{"x": [1, 2]}, None, 5])
    def test_source_that_is_not_a_string_rejected(self, value):
        data = json.loads(serialize_corpus(load_corpus()))
        next(r for r in data["identities"] if r["id"] == "fib2")["source"] = value
        with pytest.raises(CorpusError, match=r"\(fib2\): source must be a string"):
            corpus_from_json(json.dumps(data))

    def test_missing_source_reads_as_empty(self):
        data = json.loads(serialize_corpus(load_corpus()))
        del next(r for r in data["identities"] if r["id"] == "fib2")["source"]
        record = corpus_from_json(json.dumps(data)).identity("fib2")
        assert record.source == "" and hash(record) == hash(record)

    @pytest.mark.parametrize("section", ["identities", "kronecker"])
    def test_section_that_is_not_a_list_rejected(self, section):
        data = json.loads(serialize_corpus(load_corpus()))
        data[section] = {"id": "x"}
        with pytest.raises(CorpusError, match=rf"^corpus: {section} must be a list"):
            corpus_from_json(json.dumps(data))

    def test_unhashable_family_rejected(self):
        data = json.loads(serialize_corpus(load_corpus()))
        term = next(t for r in data["identities"] for t in r["lhs"] if t["kind"] == "updown")
        term["family"] = ["CENTRAL3"]
        with pytest.raises(CorpusError, match=r"unknown family \['CENTRAL3'\]"):
            corpus_from_json(json.dumps(data))

    @pytest.mark.parametrize("value", [[1], [1, 2, 3], [1, 0], [1, 0.0], "1/2", None])
    def test_bad_rational_rejected(self, value):
        data = json.loads(serialize_corpus(load_corpus()))
        data["kronecker"][0]["twist"] = value
        with pytest.raises(CorpusError, match="bad rational"):
            corpus_from_json(json.dumps(data))

    @pytest.mark.parametrize("value", [None, [0, 1], {"a": [1, 1], "b": [0, 1]},
                                       {"a": [1, 1], "b": [1, 1], "D": 4}])
    def test_bad_quadratic_number_rejected(self, value):
        data = json.loads(serialize_corpus(load_corpus()))
        data["identities"][0]["rhs"][0]["coeff"] = value
        with pytest.raises(CorpusError, match="bad quadratic number"):
            corpus_from_json(json.dumps(data))

    def test_unknown_tag_rejected(self):
        rec = {
            "id": "x", "lhs": [{
                "weight": {"a": [1, 1], "b": [0, 1], "D": 1},
                "kind": "fiblucas",
                "p": [1, 1], "q": [0, 1], "r": [0, 1], "s": [0, 1],
                "t": [0, 1], "u": [0, 1],
            }],
            "rhs": [{"coeff": {"a": [1, 1], "b": [0, 1], "D": 1},
                     "tag": "EULER"}],
        }
        with pytest.raises(CorpusError):
            corpus_from_json(json.dumps({"identities": [rec]}))

    def test_bad_l_tag_discriminant_rejected(self):
        # L(-5): -5 is not 0 or 1 mod 4, hence not a discriminant.
        from updownlab.numerics import DomainError
        with pytest.raises((CorpusError, DomainError)):
            constant_value("L(-5)", PrecisionContext(digits=20))

    def test_signs_validation(self):
        with pytest.raises(CorpusError, match="signs"):
            KroneckerInstance("x", (CMPoint(1, 0, 1),), (2,), Fraction(1),
                              Discriminant(-4), Discriminant(1), "KRONECKER")
        with pytest.raises(CorpusError, match="mismatch"):
            KroneckerInstance("x", (CMPoint(1, 0, 1),), (1, -1), Fraction(1),
                              Discriminant(-4), Discriminant(1), "KRONECKER")
        with pytest.raises(CorpusError, match="kind"):
            KroneckerInstance("x", (), (), Fraction(1),
                              Discriminant(-4), Discriminant(1), "OTHER")

    def test_empty_points_rejected(self):
        # An instance with no points would assert 0 = 0 and always pass.
        with pytest.raises(CorpusError, match="no points"):
            KroneckerInstance("empty", (), (), Fraction(1),
                              Discriminant(-4), Discriminant(1), "KRONECKER")
        inst = {"id": "empty", "points": [], "signs": [], "d1": -4, "d2": 1}
        with pytest.raises(CorpusError, match="no points"):
            corpus_from_json(json.dumps({"kronecker": [inst]}))


class TestPointStrings:
    @pytest.mark.parametrize("text", [
        "i", "3*i", "sqrt(2)*i", "2*sqrt(7)*i", "1/2+1/2*sqrt(7)*i",
        "-1/8+1/8*sqrt(15)*i", "1/2+3/2*sqrt(11)*i",
    ])
    def test_round_trip(self, text):
        p = CMPoint.from_string(text)
        assert CMPoint.from_string(str(p)) == p

    def test_corpus_points_round_trip(self, corpus):
        for inst in corpus.kronecker:
            for p in inst.points:
                assert CMPoint.from_string(str(p)) == p


class TestConstantsCache:
    def test_put_get_and_persistence(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = ConstantsCache(path)
        with mpmath.workdps(45):
            value = mp.pi**2
        cache.put("PI2", 45, value)
        assert cache.get("PI2", 45)._mpf_ == value._mpf_
        assert cache.get("PI2", 30) is None
        # Read back bit for bit, whatever the ambient precision.
        assert ConstantsCache(path).get("PI2", 45)._mpf_ == value._mpf_

    def test_negative_value_round_trips(self, tmp_path):
        path = str(tmp_path / "cache.json")
        with mpmath.workdps(45):
            value = -mp.pi / 7
        ConstantsCache(path).put("L(-4)", 45, mpf(-0.5))
        cache = ConstantsCache(path)
        cache.put("L(-3)", 45, value)
        assert cache.get("L(-4)", 45) == -0.5
        assert ConstantsCache(path).get("L(-3)", 45)._mpf_ == value._mpf_
        # A positive value is stored as before: [mantissa, exponent].
        cache.put("ZETA2", 45, mpf(0.75))
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh)["ZETA2@45"] == [3, -2]

    def test_corrupt_file_ignored(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{nope", encoding="utf-8")
        assert ConstantsCache(str(path)).get("PI2", 30) is None
        path.write_text("[1, 2]", encoding="utf-8")
        assert ConstantsCache(str(path)).get("PI2", 30) is None

    def test_old_format_entries_are_misses(self, tmp_path):
        # An older version stored decimal strings under tag@digits; at 25
        # digits the working precision is 40, so "ZETA3@40" collides.
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({
            "ZETA3@40": "1.202056903159594285399738161511449990765",
            "PI2@40": [True, 3],
            "L(-4)@40": [1, 2, 3],
        }), encoding="utf-8")
        ctx = PrecisionContext(digits=25)
        cache = ConstantsCache(str(path))
        for tag in ("ZETA3", "PI2", "L(-4)"):
            assert cache.get(tag, ctx.dps) is None
        value = constant_value("ZETA3", ctx, cache)
        assert value._mpf_ == constant_value("ZETA3", ctx)._mpf_
        stored = json.loads(path.read_text(encoding="utf-8"))
        assert stored["ZETA3@40"] == list(value.man_exp)

    def test_constant_value_uses_cache(self):
        ctx = PrecisionContext(digits=20)
        cache = ConstantsCache()
        sentinel = mpf("123.5")
        cache.put("ZETA3", ctx.dps, sentinel)
        assert constant_value("ZETA3", ctx, cache) == sentinel

    def test_constant_value_fills_cache(self):
        ctx = PrecisionContext(digits=20)
        cache = ConstantsCache()
        v = constant_value("L(-4)", ctx, cache)
        stored = cache.get("L(-4)", ctx.dps)
        assert stored is not None
        assert stored._mpf_ == v._mpf_


def _separate_run_mismatches(ctx):
    """(bad, n): the ids, among the n records and instances of the shipped
    corpus, whose report from verify_all(ctx, id) differs from its entry in
    verify_all(ctx) in any bit of lhs_value, rhs_value or abs_residual, or in
    terms_used."""
    def bits(report):
        return (report.lhs_value._mpf_, report.rhs_value._mpf_,
                report.abs_residual._mpf_, report.terms_used)

    full = verify_all(ctx)
    bad = [r.id for r in full if [bits(s) for s in verify_all(ctx, r.id)] != [bits(r)]]
    return bad, len(full)


class TestVerification:
    def test_identity_passes(self, corpus, ctx40):
        report = verify_identity("zeilberger", ctx40, corpus)
        assert report.passed
        assert report.abs_residual < mpf(10) ** -35
        assert report.terms_used > 0

    def test_kronecker_passes(self, corpus, ctx40):
        report = verify_kronecker("e-i", ctx40, corpus)
        assert report.passed
        assert report.abs_residual < mpf(10) ** -35

    def test_dirichlet_pair_with_d2_not_one(self, corpus, ctx40):
        # No shipped DIRICHLET instance has d2 != 1. Its right-hand side is
        # -twist d1 d2 zeta(2) L_{d1 d2}(2) / (4 zeta(4)) all the same.
        base = next(k for k in corpus.kronecker if k.kind == "DIRICHLET")
        inst = dataclasses.replace(base, id="dirichlet-12", twist=Fraction(3, 2),
                                   d1=Discriminant(-3), d2=Discriminant(-4))
        report = verify_kronecker(inst, ctx40)
        with ctx40.working():
            expected = (-mpf(3) / 2 * (-3) * (-4) * mpmath.zeta(2)
                        * dirichlet_l2(12, ctx40) / (4 * mpmath.zeta(4)))
            assert abs(report.rhs_value - expected) < 10 * ctx40.eps * abs(expected)
        # The pair is symmetric in d1 and d2: the shipped identity with its
        # discriminants swapped to d1 = 1 still passes.
        swapped = dataclasses.replace(base, d1=Discriminant(1), d2=base.d1)
        assert base.d2.d == 1 and verify_kronecker(swapped, ctx40).passed

    def test_residual_scales_with_precision(self, corpus):
        r30 = verify_identity("grnew", PrecisionContext(digits=30), corpus)
        r40 = verify_identity("grnew", PrecisionContext(digits=40), corpus)
        floor = mpf(10) ** -45
        assert r40.abs_residual < max(r30.abs_residual * mpf(10) ** -8, floor)

    def test_single_series_terms_used_at_40_digits(self, corpus, ctx40):
        # The a-priori count of each record's one loop: K, or CRVZ's n for
        # b6 and c3.
        expected = {"zeilberger": 33, "grnew": 448, "grold": 18,
                    "b6": 82, "c3": 82}
        got = {rid: verify_identity(rid, ctx40, corpus).terms_used
               for rid in expected}
        assert got == expected

    @pytest.mark.parametrize("record_id", [
        "flpm-plus", "flpm-minus", "grnew-plus-grold", "grnew-minus-grold"])
    def test_grouped_lhs_matches_separate_terms(self, corpus, record_id):
        # One loop per (family, m) sums to the weighted one-term evaluations.
        ctx = PrecisionContext(digits=300)
        record = corpus.identity(record_id)
        separate_terms = []
        grouped, grouped_terms = evaluate_series_sum(
            ((t.weight, t.series) for t in record.lhs), ctx)
        with ctx.working():
            separate = mpf(0)
            for t in record.lhs:
                one, terms = evaluate_series_sum(((QuadraticNumber(1), t.series),), ctx)
                separate_terms.append(terms)
                separate += embed_quadratic(t.weight, ctx) * one
            assert abs(grouped - separate) < 10 * ctx.tol
        shared = not all(isinstance(t.series, UpsideDownSeries) for t in record.lhs)
        assert (grouped_terms < sum(separate_terms)) == shared

    def test_filter_and_ordering(self, corpus, ctx30):
        reports = verify_all(ctx30, "fib*", corpus)
        assert [r.id for r in reports] == ["fib1", "fib1p", "fib2", "fib2p"]
        assert all(r.passed for r in reports)

    def test_exact_id_skips_fnmatch(self, corpus, ctx30, monkeypatch):
        def refuse(*args):
            raise AssertionError("an exact id went through fnmatch")

        monkeypatch.setattr(identities.fnmatch, "fnmatchcase", refuse)
        assert [r.id for r in verify_all(ctx30, "b6", corpus)] == ["b6"]

    @pytest.mark.parametrize("pattern,ids", [
        ("b[67]", ["b6", "b7"]),
        ("k*-minus", ["k1012-minus", "k112-minus", "k192-minus", "k195-minus",
                      "k340-minus", "k352-minus", "k435-minus", "k448-minus",
                      "k555-minus", "k928-minus", "k96-minus"]),
    ])
    def test_globs_still_match(self, corpus, ctx30, pattern, ids):
        assert [r.id for r in verify_all(ctx30, pattern, corpus)] == ids

    def test_full_corpus_passes_at_100_digits(self, corpus):
        reports = verify_all(PrecisionContext(digits=100), corpus=corpus)
        assert len(reports) == 54
        assert all(r.passed for r in reports), [r.id for r in reports if not r.passed]

    def test_parallelism_other_than_one_rejected(self, corpus, ctx30):
        with pytest.raises(ValueError):
            verify_all(ctx30, "d-*", corpus, parallelism=4)

    def test_precision_restored_after_verify_all(self, corpus, ctx30):
        before = mp.dps
        verify_all(ctx30, "d-*", corpus)
        assert mp.dps == before

    def test_cache_never_changes_a_report(self, corpus, tmp_path):
        # Cold and warm cache runs must reproduce the uncached run exactly,
        # on every record and every field but the timing.
        ctx = PrecisionContext(digits=20)
        path = str(tmp_path / "cache.json")

        def untimed(cache):
            return [dataclasses.replace(r, elapsed_ms=0.0)
                    for r in verify_all(ctx, None, corpus, cache)]

        plain = untimed(None)
        assert len(plain) == len(corpus.identities) + len(corpus.kronecker)
        assert untimed(ConstantsCache(path)) == plain  # cold
        assert untimed(ConstantsCache(path)) == plain  # warm

    @pytest.mark.parametrize("digits", [40, 300, pytest.param(1000, marks=pytest.mark.highprec)])
    def test_record_alone_gives_the_bits_of_the_full_run(self, digits):
        # A record's bits depend on the record alone, not on which others run.
        assert _separate_run_mismatches(PrecisionContext(digits=digits)) == ([], 54)

    def test_each_l_value_computed_once_per_run(self, corpus, monkeypatch):
        # Without a cache, verify_all still computes every L(d) tag once,
        # and its reports equal those of records verified one by one.
        ctx = PrecisionContext(digits=20)
        tags = {tag for rec in corpus.identities for _, tag in rec.rhs
                if tag.startswith("L(")}
        for inst in corpus.kronecker:
            d1, d2 = inst.d1.d, inst.d2.d
            tags |= ({f"L({d1})", f"L({d2})"} if inst.kind == "KRONECKER"
                     else {f"L({d1 * d2})"})
        separate = [dataclasses.replace(verify_identity(r, ctx), elapsed_ms=0.0)
                    for r in corpus.identities]
        separate += [dataclasses.replace(verify_kronecker(k, ctx), elapsed_ms=0.0)
                     for k in corpus.kronecker]
        calls = []

        def counting(d, ctx):
            calls.append(d)
            return dirichlet_l2(d, ctx)

        monkeypatch.setattr(identities, "dirichlet_l2", counting)
        reports = [dataclasses.replace(r, elapsed_ms=0.0)
                   for r in verify_all(ctx, None, corpus)]
        assert len(calls) == len(tags) == len(set(calls))
        assert sorted(reports, key=lambda r: r.id) == \
            sorted(separate, key=lambda r: r.id)


class TestNegativeControls:
    # Each record with its first right-hand-side coefficient, and each
    # lattice-sum instance with its twist, scaled by 1 + 10^-(digits-8):
    # every one FAILs, and its residual is the error injected to 20 digits,
    # as the true residuals sit at least 10 digits below the verdict
    # tolerance. Measured: 23.3 digits or more at 40 and 300 digits.
    @pytest.mark.parametrize("digits", [40, 300])
    def test_every_mutant_fails_by_the_injected_error(self, corpus, digits):
        ctx = PrecisionContext(digits=digits)
        delta = Fraction(1, 10 ** (digits - 8))
        records, injected = [], {}
        with ctx.working():
            for rec in corpus.identities:
                (coeff, tag), *rest = rec.rhs
                records.append(dataclasses.replace(rec, rhs=((coeff * (1 + delta), tag), *rest)))
                term = embed_quadratic(coeff, ctx) * constant_value(tag, ctx)
                injected[rec.id] = abs(term) * mpf(delta.numerator) / delta.denominator
            instances = [dataclasses.replace(inst, twist=inst.twist * (1 + delta))
                         for inst in corpus.kronecker]
            for inst in corpus.kronecker:
                rhs = verify_kronecker(inst, ctx).rhs_value
                injected[inst.id] = abs(rhs) * mpf(delta.numerator) / delta.denominator
        reports = verify_all(ctx, corpus=identities.Corpus(tuple(records), tuple(instances)))
        assert len(reports) == len(injected) == 54
        for r in reports:
            assert not r.passed, r.id
            with ctx.working():
                gap = abs(r.abs_residual - injected[r.id])
            assert gap < mpf("1e-20") * injected[r.id], r.id

    def test_last_sign_flipped_fails_every_multi_point_instance(self, corpus, ctx40):
        flipped = [dataclasses.replace(inst, signs=(*inst.signs[:-1], -inst.signs[-1]))
                   for inst in corpus.kronecker if len(inst.points) > 1]
        assert len(flipped) == 25
        assert not any(verify_kronecker(inst, ctx40).passed for inst in flipped)
