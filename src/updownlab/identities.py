"""Declarative corpus of series identities and lattice-sum instances.

The corpus ships as a JSON file: every record stores exact algebraic data
(QuadraticNumber coefficients, CM points, discriminants), and the verifier
recomputes both sides of each equality to a requested precision, reporting
the absolute residual.
"""

from __future__ import annotations

import fnmatch
import json
import os
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import Optional, Sequence, Tuple, Union

from mpmath import libmp, mp, mpf

from .numerics import (
    DomainError,
    PrecisionContext,
    QuadExpr,
    QuadraticNumber,
    embed_quadratic,
    zeta_int,
)
from .lfunctions import Discriminant, dirichlet_l2
from .epstein import epstein_sl2
from .modular import CMPoint, series_constants_from_cm
from .series import FibLucasSeries, SeriesFamily, UpsideDownSeries, evaluate_series_sum
# perfbench traces the series layer at these two names.
from .series import evaluate_fib_series, evaluate_updown  # noqa: F401


class CorpusError(ValueError):
    """The corpus file violates the documented schema."""


_L_TAG_RE = re.compile(r"L\((-?\d+)\)")
_SIMPLE_TAGS = ("PI2", "ZETA2", "ZETA3")


def _check_tag(tag: str) -> Optional[Discriminant]:
    """The discriminant of an L(d) tag, None for PI2, ZETA2 and ZETA3.
    CorpusError for any other tag, DomainError for an invalid d."""
    if tag in _SIMPLE_TAGS:
        return None
    m = _L_TAG_RE.fullmatch(tag) if isinstance(tag, str) else None
    if not m:
        raise CorpusError(f"unknown constant tag {tag!r}")
    return Discriminant(int(m.group(1)))


@dataclass(frozen=True)
class SeriesTerm:
    """One weighted series on the left-hand side of an identity."""

    weight: QuadraticNumber
    series: Union[UpsideDownSeries, FibLucasSeries]


@dataclass(frozen=True)
class IdentityRecord:
    id: str
    source: str
    lhs: Tuple[SeriesTerm, ...]
    rhs: Tuple[Tuple[QuadraticNumber, str], ...]

    def __post_init__(self) -> None:
        if not self.lhs:
            raise CorpusError(f"record {self.id!r} has empty lhs")
        if not self.rhs:
            raise CorpusError(f"record {self.id!r} has empty rhs")
        for _, tag in self.rhs:
            _check_tag(tag)


@dataclass(frozen=True)
class KroneckerInstance:
    id: str
    points: Tuple[CMPoint, ...]
    signs: Tuple[int, ...]
    twist: Fraction
    d1: Discriminant
    d2: Discriminant
    kind: str  # KRONECKER or DIRICHLET

    def __post_init__(self) -> None:
        if len(self.points) != len(self.signs):
            raise CorpusError(f"instance {self.id!r}: points/signs length mismatch")
        if any(s not in (1, -1) for s in self.signs):
            raise CorpusError(f"instance {self.id!r}: signs must be +-1")
        if self.kind not in ("KRONECKER", "DIRICHLET"):
            raise CorpusError(f"instance {self.id!r}: unknown kind {self.kind!r}")
        if not self.points:
            raise CorpusError(f"instance {self.id!r}: no points")


@dataclass(frozen=True)
class VerificationReport:
    id: str
    digits: int
    lhs_value: mpf
    rhs_value: mpf
    abs_residual: mpf
    passed: bool
    terms_used: int
    elapsed_ms: float


@dataclass(frozen=True)
class Corpus:
    identities: Tuple[IdentityRecord, ...]
    kronecker: Tuple[KroneckerInstance, ...]

    def identity(self, record_id: str) -> IdentityRecord:
        for rec in self.identities:
            if rec.id == record_id:
                return rec
        raise KeyError(f"no identity record with id {record_id!r}")

    def instance(self, instance_id: str) -> KroneckerInstance:
        for inst in self.kronecker:
            if inst.id == instance_id:
                return inst
        raise KeyError(f"no lattice-sum instance with id {instance_id!r}")


# -- JSON (de)serialization ------------------------------------------------

def _quad_to_json(q: QuadraticNumber) -> dict:
    return {
        "a": [q.a.numerator, q.a.denominator],
        "b": [q.b.numerator, q.b.denominator],
        "D": q.D,
    }


def _int_from_json(v, where: str) -> int:
    """``v`` if it is a JSON integer; a float, bool or string is never coerced."""
    if type(v) is not int:
        raise CorpusError(f"{where}: {v!r} is not an integer")
    return v


def _quad_from_json(obj, where: str) -> QuadraticNumber:
    if not (isinstance(obj, dict) and {"a", "b", "D"} <= obj.keys()):
        raise CorpusError(f"{where}: bad quadratic number {obj!r}")
    a, b = _frac_from_json(obj["a"], where), _frac_from_json(obj["b"], where)
    D = _int_from_json(obj["D"], where)
    try:
        return QuadraticNumber(a, b, D)
    except ValueError as exc:
        raise CorpusError(f"{where}: bad quadratic number {obj!r}: {exc}") from None


def _frac_to_json(x: Fraction) -> list:
    return [x.numerator, x.denominator]


def _frac_from_json(obj, where: str) -> Fraction:
    if not (isinstance(obj, list) and len(obj) == 2) or obj[1] == 0:
        raise CorpusError(f"{where}: bad rational {obj!r}")
    return Fraction(_int_from_json(obj[0], where), _int_from_json(obj[1], where))


def _term_to_json(term: SeriesTerm) -> dict:
    s = term.series
    if isinstance(s, UpsideDownSeries):
        body = {
            "kind": "updown",
            "family": s.family.tag,
            "a": _quad_to_json(s.a),
            "b": _quad_to_json(s.b),
            "m": _quad_to_json(s.m),
        }
    else:
        body = {
            "kind": "fiblucas",
            "p": _frac_to_json(s.p),
            "q": _frac_to_json(s.q),
            "r": _frac_to_json(s.r),
            "s": _frac_to_json(s.s),
            "t": _frac_to_json(s.t),
            "u": _frac_to_json(s.u),
        }
    return {"weight": _quad_to_json(term.weight), **body}


def _list_from_json(obj: dict, key: str, where: str, objects: bool = False) -> list:
    """``obj[key]``, default [], if it is a JSON list (of objects, if
    ``objects``); CorpusError otherwise."""
    v = obj.get(key, [])
    if not isinstance(v, list):
        raise CorpusError(f"{where}: {key} must be a list, got {v!r}")
    for e in v if objects else ():
        if not isinstance(e, dict):
            raise CorpusError(f"{where}: {key} entry {e!r} is not an object")
    return v


def _term_from_json(obj, where: str) -> SeriesTerm:
    weight = _quad_from_json(obj.get("weight"), where)
    kind = obj.get("kind")
    if kind == "updown":
        family = next((f for f in SeriesFamily if f.tag == obj.get("family")), None)
        if family is None:
            raise CorpusError(f"{where}: unknown family {obj.get('family')!r}")
        series = UpsideDownSeries(
            family,
            _quad_from_json(obj.get("a"), where),
            _quad_from_json(obj.get("b"), where),
            _quad_from_json(obj.get("m"), where),
        )
    elif kind == "fiblucas":
        series = FibLucasSeries(*(
            _frac_from_json(obj.get(f), where) for f in "pqrstu"
        ))
    else:
        raise CorpusError(f"{where}: unknown series kind {kind!r}")
    return SeriesTerm(weight, series)


def _with_id(obj, where: str) -> str:
    """``where`` followed by the record's id; CorpusError if it has none."""
    if not (isinstance(obj, dict) and isinstance(obj.get("id"), str) and obj["id"]):
        raise CorpusError(f"{where}: missing id")
    return f"{where} ({obj['id']})"


def _record_from_json(obj, index: int) -> IdentityRecord:
    where = _with_id(obj, f"identities[{index}]")
    lhs = tuple(_term_from_json(t, where)
                for t in _list_from_json(obj, "lhs", where, objects=True))
    rhs = tuple((_quad_from_json(e.get("coeff"), where), e.get("tag"))
                for e in _list_from_json(obj, "rhs", where, objects=True))
    source = obj.get("source", "")
    if not isinstance(source, str):
        raise CorpusError(f"{where}: source must be a string, got {source!r}")
    try:
        return IdentityRecord(obj["id"], source, lhs, rhs)
    except (CorpusError, DomainError) as exc:
        raise CorpusError(f"{where}: {exc}") from None


def _instance_from_json(obj, index: int) -> KroneckerInstance:
    where = _with_id(obj, f"kronecker[{index}]")
    try:
        points = tuple(CMPoint.from_string(s) for s in _list_from_json(obj, "points", where))
    except DomainError as exc:
        raise CorpusError(f"{where}: {exc}") from None
    signs = tuple(_int_from_json(s, where) for s in _list_from_json(obj, "signs", where))
    try:
        d1, d2 = (Discriminant(_int_from_json(obj.get(k), where)) for k in ("d1", "d2"))
    except DomainError as exc:
        raise CorpusError(f"{where}: bad discriminant: {exc}") from None
    return KroneckerInstance(
        obj["id"], points, signs,
        _frac_from_json(obj.get("twist", [1, 1]), where),
        d1, d2, obj.get("kind", "KRONECKER"),
    )


def corpus_from_json(text: str) -> Corpus:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise CorpusError("top level must be an object")
    identities = tuple(_record_from_json(o, i) for i, o
                       in enumerate(_list_from_json(data, "identities", "corpus")))
    kronecker = tuple(_instance_from_json(o, i) for i, o
                      in enumerate(_list_from_json(data, "kronecker", "corpus")))
    ids = [r.id for r in identities] + [k.id for k in kronecker]
    if len(set(ids)) != len(ids):
        dupes = sorted({x for x in ids if ids.count(x) > 1})
        raise CorpusError(f"duplicate ids: {dupes}")
    return Corpus(identities, kronecker)


def serialize_corpus(corpus: Corpus) -> str:
    """Canonical JSON text; load/serialize round-trips byte for byte."""
    data = {
        "identities": [
            {
                "id": r.id,
                "source": r.source,
                "lhs": [_term_to_json(t) for t in r.lhs],
                "rhs": [
                    {"coeff": _quad_to_json(c), "tag": tag} for c, tag in r.rhs
                ],
            }
            for r in corpus.identities
        ],
        "kronecker": [
            {
                "id": k.id,
                "points": [str(p) for p in k.points],
                "signs": list(k.signs),
                "twist": _frac_to_json(k.twist),
                "d1": k.d1.d,
                "d2": k.d2.d,
                "kind": k.kind,
            }
            for k in corpus.kronecker
        ],
    }
    return json.dumps(data, indent=2, sort_keys=False) + "\n"


def _read_data(path: Optional[str], packaged: str) -> str:
    """Text of the file at ``path``, or of the named file shipped in the package."""
    if path is None:
        return resources.files(__package__).joinpath(packaged).read_text("utf-8")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def load_corpus(path: Optional[str] = None) -> Corpus:
    """Load and validate a corpus; defaults to the file shipped in the package."""
    return corpus_from_json(_read_data(path, "data/corpus.json"))


# -- table reconstruction --------------------------------------------------

@lru_cache(maxsize=None)
def load_tables() -> tuple:
    """Rows of the three packaged CM-point tables, with exact cell values; parsed once."""
    data = json.loads(_read_data(None, "data/tables.json"))
    tables = []
    for tab in data["tables"]:
        rows = []
        for row in tab["rows"]:
            cells = {}
            for name in ("c1", "c2", "m"):
                cells[name] = QuadExpr(
                    _quad_from_json(row[name]["num"], "tables"),
                    _quad_from_json(row[name]["den"], "tables"),
                )
            rows.append({"point": CMPoint.from_string(row["point"]),
                         "text": row["point"], "cells": cells})
        tables.append({"table": tab["table"], "level": tab["level"], "rows": tuple(rows)})
    return tuple(tables)


def check_table(table_no: int, ctx: PrecisionContext):
    """Recompute every cell of one table; yields (row_text, cell, residual).
    The constants start at the exact CM point (series_constants_from_cm on
    the row's CMPoint), and Im z, which c1 and c2 are divided by, is taken
    at ctx.bumped(), where the constants are computed."""
    for tab in load_tables():
        if tab["table"] != table_no:
            continue
        level = tab["level"]
        for row in tab["rows"]:
            y = row["point"].to_point(ctx.bumped()).imag
            with ctx.working():
                c1, c2, m = series_constants_from_cm(row["point"], level, ctx)
                for name, value in zip(("c1", "c2", "m"), (c1 / 2 / y, c2 / y, m)):
                    yield row["text"], name, abs(value - row["cells"][name].embed(ctx))
        return
    raise DomainError(f"no table {table_no}")


# -- RHS constants: the kept values and perfbench's file -------------------

class ConstantsCache:
    """RHS constants in a JSON file, keyed by tag and working precision (dps),
    each stored exactly as its signed ``(man, exp)`` pair: a warm file returns
    the bits a cold run computed. An entry of any other shape, such as a
    decimal string written by an older version, is a miss that the next
    ``put`` overwrites. Its one user is perfbench's ``corpus-40-cached``
    workload; the library and the CLI read no file (ROADMAP item 13).
    """

    def __init__(self, path: str):
        self.path, self._data = path, {}
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):  # no file yet, or not JSON
            return
        if isinstance(data, dict):
            self._data = data

    def get(self, tag: str, dps: int) -> Optional[mpf]:
        entry = self._data.get(f"{tag}@{dps}")
        if not (isinstance(entry, list) and len(entry) == 2
                and all(type(x) is int for x in entry)):
            return None
        return mp.make_mpf(libmp.from_man_exp(entry[0], entry[1]))

    def put(self, tag: str, dps: int, value: mpf) -> None:
        # The signed mantissa: ``mpf.man_exp`` drops the sign.
        sign, man, exp, _ = value._mpf_
        self._data[f"{tag}@{dps}"] = [int(-man if sign else man), int(exp)]
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self._data, fh, indent=2, sort_keys=True)
        os.replace(tmp, self.path)


@lru_cache(maxsize=128)
def _kept_constant(tag: str, ctx: PrecisionContext) -> mpf:
    """The value of a RHS constant tag at ctx's working precision, kept per
    process: it depends on the tag and ctx alone. One ``verify --all`` reads
    33 distinct tags per precision (31 L(d), PI2 and ZETA2), so 128 values
    hold three precisions."""
    d = _check_tag(tag)
    with ctx.working():
        if tag == "PI2":
            return mp.pi**2
        if tag == "ZETA2":
            return zeta_int(2, ctx)
        if tag == "ZETA3":
            return zeta_int(3, ctx)
        return dirichlet_l2(d, ctx)


@lru_cache(maxsize=128)
def _kept_epstein(point: CMPoint, ctx: PrecisionContext) -> mpf:
    """E(point, 2) by epstein_sl2 for a reduced CMPoint, kept per process:
    the value depends on the reduced form and ctx alone."""
    return epstein_sl2(point, ctx)


def constant_value(tag: str, ctx: PrecisionContext,
                   cache: Optional[ConstantsCache] = None) -> mpf:
    """Value of a RHS constant tag at the working precision. Every RHS
    constant of either record kind comes from here, and so from
    _kept_constant. A ``cache`` is read first; a miss fills it."""
    if cache is None:
        return _kept_constant(tag, ctx)
    value = cache.get(tag, ctx.dps)
    if value is None:
        value = _kept_constant(tag, ctx)
        cache.put(tag, ctx.dps, value)
    return value


# -- verification ----------------------------------------------------------

def _report(record_id, ctx, lhs, rhs, terms, t0) -> VerificationReport:
    with ctx.working():
        residual = abs(lhs - rhs)
        passed = bool(residual < ctx.verdict_tol)
    return VerificationReport(
        id=record_id, digits=ctx.digits, lhs_value=lhs, rhs_value=rhs,
        abs_residual=residual, passed=passed, terms_used=terms,
        elapsed_ms=(time.monotonic() - t0) * 1000.0,
    )


def verify_identity(record: Union[str, IdentityRecord], ctx: PrecisionContext,
                    corpus: Optional[Corpus] = None,
                    cache: Optional[ConstantsCache] = None) -> VerificationReport:
    if isinstance(record, str):
        corpus = corpus if corpus is not None else load_corpus()
        record = corpus.identity(record)
    t0 = time.monotonic()
    lhs, terms = evaluate_series_sum(((t.weight, t.series) for t in record.lhs), ctx)
    with ctx.working():
        rhs = mpf(0)
        for coeff, tag in record.rhs:
            rhs += embed_quadratic(coeff, ctx) * constant_value(tag, ctx, cache)
    return _report(record.id, ctx, lhs, rhs, terms, t0)


def verify_kronecker(instance: Union[str, KroneckerInstance],
                     ctx: PrecisionContext,
                     corpus: Optional[Corpus] = None,
                     cache: Optional[ConstantsCache] = None) -> VerificationReport:
    """The report of one lattice-sum instance. Each E(z_Q, 2) is read once
    per reduced point and precision in a process (_kept_epstein, up to 128
    values): the corpus's 94 points reduce to 52 forms."""
    if isinstance(instance, str):
        corpus = corpus if corpus is not None else load_corpus()
        instance = corpus.instance(instance)
    t0 = time.monotonic()
    with ctx.working():
        lhs = mpf(0)
        for point, sign in zip(instance.points, instance.signs):
            lhs += sign * _kept_epstein(point.reduced(), ctx)
        four_zeta4 = 4 * zeta_int(4, ctx)
        twist = mpf(instance.twist.numerator) / instance.twist.denominator
        d1, d2 = instance.d1.d, instance.d2.d
        first, second = ((f"L({d1})", f"L({d2})") if instance.kind == "KRONECKER"
                         else ("ZETA2", f"L({d1 * d2})"))
        rhs = -twist * d1 * d2 * constant_value(first, ctx, cache) \
            * constant_value(second, ctx, cache) / four_zeta4
    return _report(instance.id, ctx, lhs, rhs, len(instance.points), t0)


def verify_all(ctx: PrecisionContext, pattern: Optional[str] = None,
               corpus: Optional[Corpus] = None,
               cache: Optional[ConstantsCache] = None,
               parallelism: int = 1) -> Sequence[VerificationReport]:
    """Verify every matching record and instance, in ascending id order.

    Records run one after another in this process: mpmath's working
    precision is process-global, so ``parallelism`` must be 1. Each RHS
    constant and each E(z_Q, 2) is computed once per input in a process
    (_kept_constant, _kept_epstein), whichever call reads it first. ``cache``
    has one user: perfbench's ``corpus-40-cached`` workload passes a file.
    """
    if parallelism != 1:
        raise ValueError(f"parallelism must be 1, got {parallelism}")
    corpus = corpus if corpus is not None else load_corpus()
    # A pattern with none of *?[ names one id: compare, skip fnmatch.
    glob = pattern is not None and not set(pattern).isdisjoint("*?[")
    work = sorted((r for r in corpus.identities + corpus.kronecker
                   if pattern is None or (fnmatch.fnmatchcase(r.id, pattern) if glob
                                          else r.id == pattern)),
                  key=lambda r: r.id)
    return [
        verify_identity(r, ctx, cache=cache) if isinstance(r, IdentityRecord)
        else verify_kronecker(r, ctx, cache=cache)
        for r in work
    ]
