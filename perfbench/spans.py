"""Span recorder for the traced benchmark run.

The tracer replaces public updownlab functions, as they are bound in the
modules that call them, with wrappers that record one span per call: name,
start, end, parent span and the operation it belongs to. Spans stay in
memory; the benchmark writes them out when it ends. Nothing under ``src/``
knows about tracing, and ``installed()`` puts every original object back.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

# Span fields, stored as lists so a wrapper can fill in the end time.
NAME, START, END, PARENT, OP, NOTE = range(6)

OP_SPAN = "bench.op"


def _l2_key(args, kwargs, result):
    d, ctx = args[0], args[1]
    return [int(getattr(d, "d", d)), ctx.dps]


def _sl2_key(args, kwargs, result):
    z, ctx = args[0], args[1]
    return [str(z), ctx.dps]


def _cache_hit(args, kwargs, result):
    return result is not None


def _series_terms(args, kwargs, result):
    counter = args[2] if len(args) > 2 else kwargs.get("counter")
    return counter[-1] if counter else 0


# (module, class or None, attribute, span name, note taken from the call).
# Each function is wrapped where its callers look it up, so that a call made
# from another module through its own import is still seen.
TARGETS = (
    ("updownlab.lfunctions", None, "trigamma", "numerics.trigamma", None),
    ("updownlab.numerics", None, "zeta_int", "numerics.zeta_int", None),
    ("updownlab.lfunctions", None, "zeta_int", "numerics.zeta_int", None),
    ("updownlab.epstein", None, "zeta_int", "numerics.zeta_int", None),
    ("updownlab.numerics", None, "embed_quadratic", "numerics.embed", None),
    ("updownlab.series", None, "embed_quadratic", "numerics.embed", None),
    ("updownlab.identities", None, "embed_quadratic", "numerics.embed", None),
    ("updownlab.identities", None, "dirichlet_l2", "lfunctions.l2", _l2_key),
    ("updownlab.lfunctions", None, "kronecker_symbol", "lfunctions.kronecker", None),
    ("updownlab.identities", None, "verify_identity", "identities.verify", None),
    ("updownlab.identities", None, "verify_kronecker", "identities.verify", None),
    ("updownlab.identities", None, "constant_value", "identities.constant", None),
    ("updownlab.identities", "ConstantsCache", "get", "identities.cache.get", _cache_hit),
    ("updownlab.identities", "ConstantsCache", "put", "identities.cache.put", None),
    ("updownlab.identities", None, "evaluate_updown", "series.eval", _series_terms),
    ("updownlab.identities", None, "evaluate_fib_series", "series.eval", _series_terms),
    ("updownlab.identities", None, "epstein_sl2", "epstein.sl2", _sl2_key),
    ("updownlab.epstein", None, "epstein_sl2", "epstein.sl2", _sl2_key),
    ("updownlab.series", None, "alpha_n", "modular.alpha", None),
    ("updownlab.modular", None, "alpha_n", "modular.alpha", None),
    ("updownlab.modular", None, "dedekind_eta", "modular.eta", None),
    ("updownlab.series", None, "legendre_ramanujan_r", "modular.r_nu", None),
    ("updownlab.modular", None, "legendre_p", "modular.legendre", None),
    ("updownlab.modular", None, "legendre_p_dt", "modular.legendre", None),
)


def target_owners():
    """(owner object, attribute, span name, note) for every target."""
    out = []
    for module, cls, attr, name, note in TARGETS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        out.append((owner, attr, name, note))
    return out


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None      # the operation new spans belong to
        self.ops_done = 0   # operations finished, numbered across passes

    def open(self, name: str) -> list:
        span = [name, perf_counter(), None,
                self._stack[-1] if self._stack else None, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, note=None):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, note in target_owners():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, note))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _name_stats(spans, durations):
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time skips spans nested inside a span of the same name, so a
    recursive layer is not counted twice. Self time is a span's duration
    minus the time its direct children cover.
    """
    child = [0.0] * len(spans)
    for s, dur in zip(spans, durations):
        if s[PARENT] is not None:
            child[s[PARENT]] += dur
    stats = {}
    for i, s in enumerate(spans):
        st = stats.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                         "notes": []})
        dur = durations[i]
        st["calls"] += 1
        st["self_s"] += dur - child[i]
        if s[NOTE] is not None:
            st["notes"].append(s[NOTE])
        p = s[PARENT]
        while p is not None and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        if p is None:
            st["s"] += dur
    return stats


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, cache_bytes: int, scales: list) -> dict:
    """Per-layer metrics, as ``{name: (value, unit)}``.

    ``scales[op]`` is operation ``op``'s speed correction, corrected over raw
    time; every span inside the operation is scaled by it, so that layer
    times add up to the end-to-end ones and children never outlast parents.
    ``unattributed_s`` is the traced time, the summed duration of the
    top-level operation spans, minus the self times of all layer spans.
    """
    durations = [(s[END] - s[START]) * (1.0 if s[OP] is None else scales[s[OP]])
                 for s in spans]
    stats = _name_stats(spans, durations)
    traced_s = sum(d for s, d in zip(spans, durations) if s[PARENT] is None)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "notes": []}

    def get(name):
        return stats.get(name, empty)

    trig, zeta, embed = get("numerics.trigamma"), get("numerics.zeta_int"), get("numerics.embed")
    l2, kron = get("lfunctions.l2"), get("lfunctions.kronecker")
    verify, const = get("identities.verify"), get("identities.constant")
    cget, cput = get("identities.cache.get"), get("identities.cache.put")
    series, sl2 = get("series.eval"), get("epstein.sl2")
    alpha, eta = get("modular.alpha"), get("modular.eta")
    r_nu, leg = get("modular.r_nu"), get("modular.legendre")

    hits = sum(1 for n in cget["notes"] if n)
    misses = len(cget["notes"]) - hits
    terms = sum(series["notes"])
    l2_distinct = len({tuple(n) for n in l2["notes"]})
    sl2_distinct = len({tuple(n) for n in sl2["notes"]})
    attributed = sum(st["self_s"] for name, st in stats.items() if name != OP_SPAN)

    return {
        "numerics.trigamma.calls": (trig["calls"], "count"),
        "numerics.trigamma.s": (trig["s"], "s"),
        "numerics.trigamma.ms_per_call": (1000 * _ratio(trig["s"], trig["calls"]), "ms"),
        "numerics.zeta_int.calls": (zeta["calls"], "count"),
        "numerics.zeta_int.s": (zeta["s"], "s"),
        "numerics.embed.calls": (embed["calls"], "count"),
        "numerics.embed.s": (embed["s"], "s"),
        "lfunctions.l2.calls": (l2["calls"], "count"),
        "lfunctions.l2.distinct": (l2_distinct, "count"),
        "lfunctions.l2.useful_ratio": (_ratio(l2_distinct, l2["calls"]), "ratio"),
        "lfunctions.l2.s": (l2["s"], "s"),
        "lfunctions.l2.self_s": (l2["self_s"], "s"),
        "lfunctions.kronecker.calls": (kron["calls"], "count"),
        "identities.verify.calls": (verify["calls"], "count"),
        "identities.verify.self_s": (verify["self_s"], "s"),
        "identities.constant.calls": (const["calls"], "count"),
        "identities.cache.hits": (hits, "count"),
        "identities.cache.misses": (misses, "count"),
        "identities.cache.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "identities.cache.put_s": (cput["s"], "s"),
        "identities.cache.bytes": (cache_bytes, "bytes"),
        "series.calls": (series["calls"], "count"),
        "series.terms": (terms, "count"),
        "series.s": (series["s"], "s"),
        "series.us_per_term": (1e6 * _ratio(series["s"], terms), "us"),
        "epstein.sl2.calls": (sl2["calls"], "count"),
        "epstein.sl2.distinct": (sl2_distinct, "count"),
        "epstein.sl2.useful_ratio": (_ratio(sl2_distinct, sl2["calls"]), "ratio"),
        "epstein.sl2.s": (sl2["s"], "s"),
        "modular.alpha.calls": (alpha["calls"], "count"),
        "modular.alpha.s": (alpha["s"], "s"),
        "modular.eta.calls": (eta["calls"], "count"),
        "modular.r_nu.calls": (r_nu["calls"], "count"),
        "modular.r_nu.s": (r_nu["s"], "s"),
        "modular.legendre.calls": (leg["calls"], "count"),
        "modular.legendre.per_r_nu": (_ratio(leg["calls"], r_nu["calls"]), "ratio"),
        "modular.legendre.s": (leg["s"], "s"),
        "unattributed_s": (traced_s - attributed, "s"),
    }
