"""The benchmark's workloads and the loop that times them.

Each workload is a fixed set of corpus inputs. An operation is one corpus
record, one Kronecker left-hand side, or one table row. A pass runs every
operation once, in an order drawn from the seed, so that a cache or memo that
depends on order shows. Every call into updownlab goes through a module
attribute looked up at call time, so the traced run sees it.

The caller puts the repository's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Optional

import mpmath

from updownlab import PrecisionContext, cli, epstein, identities

from oracle import LatticeOracle, discriminants
from spans import NOTE, OP, OP_SPAN
from speed import SpeedSampler

# The eleven identities whose right-hand side is a multiple of pi^2 only.
PI2_ONLY = ("zeilberger", "grnew", "grold", "fib1", "fib2", "fib1p", "fib2p",
            "flpm-plus", "flpm-minus", "grnew-plus-grold", "grnew-minus-grold")


@dataclass(frozen=True)
class OpResult:
    """The checked outcome of one operation."""

    id: str
    ok: bool
    margin: Optional[float]    # log10(tol / residual); None after an error
    values: tuple              # compared between runs, passes and seeds
    error: Optional[str] = None


@dataclass
class PassResult:
    """One pass: ids in the order run, raw program outputs, and per-operation
    wall and CPU seconds, raw and corrected for the machine's speed."""

    order: list = field(default_factory=list)
    raws: list = field(default_factory=list)
    op_raw_s: list = field(default_factory=list)
    op_cpu_raw_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)
    op_cpu_s: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.op_s)

    @property
    def cpu_s(self) -> float:
        return sum(self.op_cpu_s)

    @property
    def wall_raw_s(self) -> float:
        return sum(self.op_raw_s)

    @property
    def cpu_raw_s(self) -> float:
        return sum(self.op_cpu_raw_s)


def _margin(tol, residual, ctx: PrecisionContext) -> float:
    """log10(tol / residual); a zero residual counts as 10^-dps."""
    with ctx.working():
        floor = mpmath.mpf(10) ** (-ctx.dps)
        return float(mpmath.log10(tol / max(residual, floor)))


def _error(op_id: str, exc: BaseException) -> OpResult:
    text = f"{type(exc).__name__}: {exc}"
    return OpResult(op_id, False, None, ("error", text), text)


def check_report(op_id: str, reports, ctx: PrecisionContext) -> OpResult:
    """Gate for a corpus record: the program's verdict, and the residual
    recomputed from the reported sides, both against 10^-(digits-5)."""
    if isinstance(reports, BaseException):
        return _error(op_id, reports)
    if len(reports) != 1 or reports[0].id != op_id:
        return OpResult(op_id, False, None, ("wrong reports",), "wrong reports")
    r = reports[0]
    with ctx.working():
        tol = mpmath.mpf(10) ** (-(ctx.digits - 5))
        residual = abs(r.lhs_value - r.rhs_value)
        ok = bool(r.passed and residual < tol)
        values = (mpmath.nstr(r.lhs_value, ctx.digits),
                  mpmath.nstr(r.rhs_value, ctx.digits),
                  mpmath.nstr(residual, 5), r.passed, r.terms_used)
    return OpResult(op_id, ok, _margin(tol, residual, ctx), values)


class Workload:
    """A fixed set of operations. ``run`` yields ``(op_id, raw)`` as each
    operation finishes; ``check`` gates one raw output."""

    setup_code = "updownlab.load_corpus()"  # what a user's command loads
    has_setup_pass = False
    store: Optional[Path] = None  # kept between runs for the oracle's values

    def __init__(self, name: str, digits: int):
        self.name = name
        self.ctx = PrecisionContext(digits)
        self.op_ids = []

    def units(self) -> list:
        """What the seed permutes; operation ids unless a subclass differs."""
        return list(self.op_ids)

    def prepare(self, workdir: Path) -> None:
        """Reset any state a set-up pass writes."""

    def cache_bytes(self) -> int:
        return 0


class CorpusWorkload(Workload):
    """Every corpus record through ``verify_all(parallelism=1)``, one record
    per call, as ``updownlab verify --id`` runs it.

    With ``cached``, the set-up pass writes a fresh constants cache file and
    the timed passes read it, as ``verify --cache`` does on a warm file.
    """

    def __init__(self, name: str, digits: int = 40, cached: bool = False,
                 only=None):
        super().__init__(name, digits)
        self.has_setup_pass = cached
        self.corpus = identities.load_corpus()
        ids = [r.id for r in self.corpus.identities]
        ids += [k.id for k in self.corpus.kronecker]
        self.op_ids = sorted(i for i in ids if only is None or i in only)
        self.cache_path = None

    def prepare(self, workdir: Path) -> None:
        if self.has_setup_pass:
            workdir.mkdir(parents=True, exist_ok=True)
            self.cache_path = workdir / f"constants-{self.name}.json"
            self.cache_path.unlink(missing_ok=True)

    def run(self, order: list):
        cache = None
        if self.cache_path is not None:
            cache = identities.ConstantsCache(str(self.cache_path))
        for op_id in order:
            try:
                raw = identities.verify_all(self.ctx, op_id, self.corpus, cache, 1)
            except Exception as exc:  # counted as a failed operation
                raw = exc
            yield op_id, raw

    def check(self, op_id: str, raw) -> OpResult:
        return check_report(op_id, raw, self.ctx)

    def cache_bytes(self) -> int:
        if self.cache_path is None or not self.cache_path.exists():
            return 0
        return self.cache_path.stat().st_size


class SeriesEpsteinWorkload(Workload):
    """The PI2-only identities through ``verify_identity``, and the signed
    ``epstein_sl2`` left-hand side of every lattice-sum instance, which the
    benchmark checks against its own L-value oracle."""

    def __init__(self, name: str, digits: int = 300, only=None):
        super().__init__(name, digits)
        self.corpus = identities.load_corpus()
        self.records = {i: self.corpus.identity(i) for i in PI2_ONLY}
        self.instances = {k.id: k for k in self.corpus.kronecker}
        ids = list(self.records) + list(self.instances)
        self.op_ids = sorted(i for i in ids if only is None or i in only)
        self._oracle = None

    def _lattice_lhs(self, instance):
        ctx = self.ctx
        with ctx.working():
            lhs = mpmath.mpf(0)
            for point, sign in zip(instance.points, instance.signs):
                lhs += sign * epstein.epstein_sl2(point.to_point(ctx), ctx)
            return lhs

    def run(self, order: list):
        for op_id in order:
            try:
                if op_id in self.records:
                    raw = [identities.verify_identity(
                        self.records[op_id], self.ctx, self.corpus)]
                else:
                    raw = self._lattice_lhs(self.instances[op_id])
            except Exception as exc:  # counted as a failed operation
                raw = exc
            yield op_id, raw

    def check(self, op_id: str, raw) -> OpResult:
        if op_id in self.records or isinstance(raw, BaseException):
            return check_report(op_id, raw, self.ctx)
        if self._oracle is None:
            needed = discriminants(self.instances[i] for i in self.op_ids
                                   if i in self.instances)
            cache = self.store / f"oracle-l2-{self.ctx.dps}.json" if self.store else None
            self._oracle = LatticeOracle(self.ctx.dps, needed, cache)
        rhs = self._oracle.rhs(self.instances[op_id])
        ctx = self.ctx
        with ctx.working():
            tol = mpmath.mpf(10) ** (-(ctx.digits - 5))
            residual = abs(raw - rhs)
            values = (mpmath.nstr(raw, ctx.digits), mpmath.nstr(residual, 5))
            return OpResult(op_id, bool(residual < tol),
                            _margin(tol, residual, ctx), values)


class TablesWorkload(Workload):
    """Tables 1-3 through ``cli.check_table``; an operation is one row of
    three cells. ``check_table`` walks a table's rows in file order, so the
    seed permutes the order of the tables."""

    setup_code = "updownlab.cli.load_tables()"

    def __init__(self, name: str, digits: int = 100, only=None):
        super().__init__(name, digits)
        self.rows = {tab["table"]: [f"{tab['table']}:{row['text']}" for row in tab["rows"]]
                     for tab in cli.load_tables()}
        self.op_ids = sorted(i for rows in self.rows.values() for i in rows)

    def units(self) -> list:
        return sorted(self.rows)

    def run(self, order: list):
        for table in order:
            rows = self.rows[table]
            done = 0
            cells = []
            try:
                for row_text, cell, residual in cli.check_table(table, self.ctx):
                    cells.append((row_text, cell, residual))
                    if len(cells) == 3:
                        yield f"{table}:{row_text}", cells
                        done += 1
                        cells = []
            except Exception as exc:  # the rest of the table fails
                for op_id in rows[done:]:
                    yield op_id, exc
                continue
            for op_id in rows[done:]:
                yield op_id, RuntimeError("check_table yielded no cells for row")

    def check(self, op_id: str, raw) -> OpResult:
        if isinstance(raw, BaseException):
            return _error(op_id, raw)
        ctx = self.ctx
        with ctx.working():
            tol = mpmath.mpf(10) ** (-(ctx.digits - 10))
            names = tuple(cell for _, cell, _ in raw)
            worst = max(residual for _, _, residual in raw)
            ok = bool(names == ("c1", "c2", "m") and worst < tol)
            values = tuple((cell, mpmath.nstr(res, 5)) for _, cell, res in raw)
        return OpResult(op_id, ok, _margin(tol, worst, ctx), values)


# Passes a run makes at 20 seconds. Each gives about 20 s of speed-corrected
# work, and puts the op_tail_ms order statistic (the eleventh slowest sample)
# inside one operation's cluster of samples rather than at the gap between
# two clusters, where it would jump from run to run. The count is fixed, not
# timed, so that parent and change collect the same number of samples.
PASSES_AT_20_S = {
    "corpus-40": 2,
    "corpus-40-cached": 2,
    "series-epstein-300": 4,
    "tables-100": 4,
}


def make(name: str, only=None, digits: Optional[int] = None):
    """The named workload, optionally cut to the operation ids in ``only``
    or run at other digits (both for the self-tests)."""
    if name in ("corpus-40", "corpus-40-cached"):
        return CorpusWorkload(name, digits or 40, name == "corpus-40-cached", only)
    if name == "series-epstein-300":
        return SeriesEpsteinWorkload(name, digits or 300, only)
    if name == "tables-100":
        return TablesWorkload(name, digits or 100, only)
    raise KeyError(f"unknown workload {name!r}")


def passes_for(name: str, seconds: float) -> int:
    return max(1, round(PASSES_AT_20_S[name] * seconds / 20))


def order_for(workload, seed: int, pass_index: int) -> list:
    """The seed's permutation of the workload's units for one pass."""
    units = workload.units()
    random.Random(seed * 1000 + pass_index).shuffle(units)
    return units


def run_pass(workload, order: list, tracer=None) -> PassResult:
    """Run one pass, timing each operation on its own while a SpeedSampler
    measures the machine's speed. A tracer numbers operations across passes."""
    result = PassResult()
    intervals = []
    gen = workload.run(order)
    with SpeedSampler() as sampler:
        while True:
            if tracer is not None:
                tracer.op = tracer.ops_done
                span = tracer.open(OP_SPAN)
            t0, c0 = perf_counter(), process_time()
            try:
                op_id, raw = next(gen)
            except StopIteration:
                if tracer is not None:
                    tracer.close(span)
                    span[OP] = None
                break
            t1, c1 = perf_counter(), process_time()
            if tracer is not None:
                tracer.close(span)
                span[NOTE] = op_id
                tracer.ops_done += 1
            intervals.append((t0, t1))
            result.order.append(op_id)
            result.raws.append(raw)
            result.op_raw_s.append(t1 - t0)
            result.op_cpu_raw_s.append(c1 - c0)
    if tracer is not None:
        tracer.op = None
    for (t0, t1), wall, cpu in zip(intervals, result.op_raw_s, result.op_cpu_raw_s):
        wall_c, cpu_c = sampler.correct(t0, t1, [wall, cpu])
        result.op_s.append(wall_c)
        result.op_cpu_s.append(cpu_c)
    return result


def setup_pass(workload, workdir: Path, order: list, tracer=None):
    """Reset the workload's state and run its set-up pass, if it has one."""
    workload.prepare(workdir)
    if workload.has_setup_pass:
        return run_pass(workload, order, tracer)
    return None


def margin_histogram(results) -> dict:
    """Operations per whole digit of precision margin, floor(log10(tol/res));
    'error' counts operations that raised."""
    counts = {}
    for r in results:
        key = "error" if r.margin is None else str(math.floor(r.margin))
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items(),
                       key=lambda kv: (kv[0] == "error",
                                       0 if kv[0] == "error" else int(kv[0]))))
