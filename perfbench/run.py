"""updownlab benchmark: times one workload and checks every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --out FILE

Run it from the repository root; it imports updownlab from ``src/``. Load
comes from this one process and thread, serially (closed loop, one client).

With ``--trace 0`` the run measures the end-to-end metrics: set-up, then a
fixed number of timed passes over the workload's operations. With
``--trace 1`` it runs an untraced, a traced and another untraced pass in the
same order, checks that all give identical values and verdicts, and reports
the per-layer metrics of the traced pass and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
with provenance, per-operation outcomes and the precision-margin histogram,
goes to ``perfbench/out/`` (or ``--out``); a traced run also writes its
spans there as JSON lines. ``--workload all`` runs every workload, traced and
untraced, each in its own process, prints all metrics and writes them to
``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_MS, SETUP_REFERENCE_CODE, SETUP_REFERENCE_S

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("corpus-40", "corpus-40-cached", "series-epstein-300", "tables-100")
SETUP_REPEATS = 9

# name -> unit, in the order they are printed. fail_share is printed beside
# the others; the last-line JSON carries pass_share, which is never zero.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "fail_share": "ratio",
    "pass_share": "ratio",
    "min_margin_digits": "digits",
    "peak_rss_mb": "MB",
}
LAST_LINE_END_TO_END = ("setup_s", "wall_s", "cpu_s", "op_p50_ms", "op_tail_ms",
                        "pass_share", "min_margin_digits", "peak_rss_mb")


def git_commit(root: Path):
    """The checked-out commit, read from .git without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload) -> dict:
    import mpmath

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "git_commit": git_commit(ROOT),
        "machine": platform.machine(),
        "digits": workload.ctx.digits,
    }


def measure_setup(workload, repeats: int) -> list:
    """(raw, corrected) seconds of fresh interpreters that import updownlab
    and load the workload's inputs, as a user's command starts; each is
    corrected by a reference interpreter started just before it."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            f"import updownlab, updownlab.cli; {workload.setup_code}")
    samples = []
    for _ in range(repeats):
        ref = interpreter_s(SETUP_REFERENCE_CODE)
        raw = interpreter_s(code)
        samples.append((raw, raw * SETUP_REFERENCE_S / ref))
    return samples


def interpreter_s(code: str) -> float:
    """Wall seconds of a fresh interpreter running ``code``."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
    return perf_counter() - t0


def tail(samples_ms: list):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples_ms)
    n = len(ordered)
    j = max(0, n - 11)
    return ordered[j], 100.0 * (j + 1) / n


def check_pass(workload, pass_result) -> list:
    return [workload.check(i, raw) for i, raw in zip(pass_result.order, pass_result.raws)]


def unstable_ids(checked) -> list:
    """Ids whose values differ between checked passes of the same operations."""
    first = {r.id: r.values for r in checked[0]}
    return sorted({r.id for rs in checked[1:] for r in rs if first.get(r.id) != r.values})


def end_to_end(passes, checked, setup_s) -> tuple:
    results = [r for rs in checked for r in rs]
    op_ms = [1000 * t for p in passes for t in p.op_s]
    tail_ms, tail_pct = tail(op_ms)
    failed = sum(not r.ok for r in results)
    margins = [r.margin for r in checked[0] if r.margin is not None]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "op_p50_ms": statistics.median(op_ms),
        "op_tail_ms": tail_ms,
        "fail_share": failed / len(results),
        "pass_share": 1 - failed / len(results),
        "min_margin_digits": min(margins) if margins else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"op_tail_percentile": tail_pct, "op_samples": len(op_ms),
              "attempted": len(results), "failed": failed}
    return metrics, detail


def write_spans(path: Path, spans) -> None:
    from spans import END, NAME, NOTE, OP, PARENT, START

    t0 = spans[0][START] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START] - t0,
                                 "end": s[END] - t0, "parent": s[PARENT],
                                 "op": s[OP], "note": s[NOTE]}) + "\n")


def pass_figures(p) -> dict:
    """Corrected and raw times of one pass, and each operation's times."""
    return {"wall_s": p.wall_s, "cpu_s": p.cpu_s, "wall_raw_s": p.wall_raw_s,
            "cpu_raw_s": p.cpu_raw_s, "order": p.order, "op_s": p.op_s,
            "op_raw_s": p.op_raw_s}


def run_workload(args) -> int:
    if not (SRC / "updownlab" / "__init__.py").is_file():
        print(f"error: no updownlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer, layer_metrics

    name = args.workload
    workload = workloads.make(name)
    workload.store = OUT_DIR
    workdir = OUT_DIR / f"work-{name}-{os.getpid()}"
    out_path = Path(args.out) if args.out else \
        OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    order0 = workloads.order_for(workload, args.seed, 0)

    result = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(workload),
              "operations": len(workload.op_ids),
              "reference_ms": REFERENCE_MS}
    problems = []
    if args.trace:
        # Untraced, traced, untraced: the overhead compares the traced pass
        # with the second untraced one, as both run in a warm process.
        plain_setup = workloads.setup_pass(workload, workdir, order0)
        cold = workloads.run_pass(workload, order0)
        tracer = Tracer()
        with tracer.installed():
            traced_setup = workloads.setup_pass(workload, workdir, order0, tracer)
            traced = workloads.run_pass(workload, order0, tracer)
        plain = workloads.run_pass(workload, order0)
        checked = [check_pass(workload, p) for p in (cold, traced, plain)]
        bad = unstable_ids(checked)
        if plain_setup is not None:
            bad += unstable_ids([check_pass(workload, plain_setup),
                                 check_pass(workload, traced_setup)])
        if bad:
            problems.append(f"traced and untraced values differ: {bad}")
        # Each operation's speed correction, in the tracer's operation order.
        scales = [c / r if r else 1.0 for p in (traced_setup, traced) if p is not None
                  for c, r in zip(p.op_s, p.op_raw_s)]
        layers = layer_metrics(tracer.spans, workload.cache_bytes(), scales)
        layers["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
        layers["trace.overhead_share"] = ((traced.wall_s - plain.wall_s) / plain.wall_s,
                                          "ratio")
        layers["trace.spans"] = (len(tracer.spans), "count")
        metrics = {k: v for k, (v, _) in layers.items()}
        units = {k: u for k, (_, u) in layers.items()}
        spans_path = out_path.with_suffix(".spans.jsonl")
        write_spans(spans_path, tracer.spans)
        result["spans_file"] = str(spans_path)
        result["untraced_passes"] = [pass_figures(cold), pass_figures(plain)]
        result["traced_pass"] = pass_figures(traced)
        results = [r for rs in checked for r in rs]
        detail = {"attempted": len(results), "failed": sum(not r.ok for r in results)}
        setup_checked = check_pass(workload, plain_setup) if plain_setup else None
    else:
        # Set-up is sampled before, between and after the passes, so that
        # its median spans the host's speed changes over the whole run.
        n_passes = workloads.passes_for(name, args.seconds)
        per_gap = -(-SETUP_REPEATS // (n_passes + 1))
        setup_samples = measure_setup(workload, per_gap)
        first = workloads.setup_pass(workload, workdir, order0)
        passes = []
        for p in range(n_passes):
            passes.append(workloads.run_pass(
                workload, workloads.order_for(workload, args.seed, p)))
            setup_samples += measure_setup(workload, per_gap)
        setup_s = statistics.median(c for _, c in setup_samples)
        checked = [check_pass(workload, p) for p in passes]
        bad = unstable_ids(checked)
        if bad:
            problems.append(f"values differ between passes: {bad}")
        if first is not None:
            setup_s += first.wall_s
        metrics, detail = end_to_end(passes, checked, setup_s)
        units = END_TO_END_UNITS
        result["setup_samples_raw_s"] = [r for r, _ in setup_samples]
        result["setup_samples_s"] = [c for _, c in setup_samples]
        setup_checked = check_pass(workload, first) if first else None

    if setup_checked is not None:
        result["setup_pass"] = {"passed": sum(r.ok for r in setup_checked),
                                "total": len(setup_checked)}
    if sorted(r.id for r in checked[0]) != workload.op_ids:
        problems.append("a pass did not run every operation exactly once")
    failures = sorted({r.id for rs in checked for r in rs if not r.ok})
    correct = not problems and detail["failed"] == 0
    result.update({
        "correct": correct, "problems": problems, "failures": failures,
        "margin_histogram": workloads.margin_histogram(checked[0]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        **detail,
        "results": [{"id": r.id, "ok": r.ok, "margin": r.margin, "error": r.error}
                    for r in sorted(checked[0], key=lambda r: r.id)],
    })
    if not args.trace:
        result["passes"] = [pass_figures(p) for p in passes]
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=str)
    shutil.rmtree(workdir, ignore_errors=True)

    print_summary(result)
    keys = list(metrics) if args.trace else LAST_LINE_END_TO_END
    print(json.dumps({
        "correct": correct, "attempted": detail["attempted"], "failed": detail["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in keys},
    }))
    return 0


def print_summary(result: dict) -> None:
    prov = result["provenance"]
    passes = "2 untraced passes around 1 traced pass" if result["trace"] \
        else f"{len(result['passes'])} pass(es)"
    print(f"workload {result['workload']}: {result['operations']} operations, "
          f"{passes} at {prov['digits']} digits, seed {result['seed']}")
    print(f"  provenance: {json.dumps(prov)}")
    if "setup_pass" in result:
        sp = result["setup_pass"]
        print(f"  set-up pass verdicts: {sp['passed']}/{sp['total']} passed")
    for p in result.get("passes", []):
        print(f"  pass: {p['wall_s']:.3f} s corrected, {p['wall_raw_s']:.3f} s raw wall")
    for name, m in result["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            note = (f"  (p{result['op_tail_percentile']:.1f} of "
                    f"{result['op_samples']} samples)")
        if name == "fail_share":
            note = f"  ({result['failed']}/{result['attempted']})"
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"  margin histogram (digits: operations): "
          f"{json.dumps(result['margin_histogram'])}")
    gate = "PASS" if result["correct"] else "FAIL"
    print(f"  correctness gate: {gate}; failed operations: "
          f"{', '.join(result['failures']) or 'none'}")
    for p in result["problems"]:
        print(f"  problem: {p}")


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    combined = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOAD_NAMES:
        entry = {}
        for trace in (0, 1):
            path = OUT_DIR / f"{name}-seed{args.seed}-trace{trace}.json"
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", str(path)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"error: {name} trace {trace} exited {proc.returncode}",
                      file=sys.stderr)
                return proc.returncode
            with open(path, encoding="utf-8") as fh:
                res = json.load(fh)
            entry["provenance"] = res["provenance"]
            entry["correct" if not trace else "traced_correct"] = res["correct"]
            entry["failures" if not trace else "traced_failures"] = res["failures"]
            if not trace:
                entry["attempted"], entry["failed"] = res["attempted"], res["failed"]
                entry["end_to_end"] = {k: {**m, "claim": None}
                                       for k, m in res["metrics"].items()}
                entry["op_tail_percentile"] = res["op_tail_percentile"]
                entry["op_samples"] = res["op_samples"]
                entry["margin_histogram"] = res["margin_histogram"]
                if "setup_pass" in res:
                    entry["setup_pass"] = res["setup_pass"]
            else:
                entry["per_layer"] = res["metrics"]
        combined["workloads"][name] = entry

    print()
    print(f"{'metric':<20}" + "".join(f"{n:>20}" for n in WORKLOAD_NAMES))
    for metric, unit in END_TO_END_UNITS.items():
        row = "".join(f"{combined['workloads'][n]['end_to_end'][metric]['value']:>20.6g}"
                      for n in WORKLOAD_NAMES)
        print(f"{metric + ' [' + unit + ']':<20}{row}")
    runs = [combined["workloads"][n] for n in WORKLOAD_NAMES]
    print(f"{'failed/attempted':<20}" + "".join(
        f"{str(e['failed']) + '/' + str(e['attempted']):>20}" for e in runs))
    print(f"{'correctness gate':<20}" + "".join(
        f"{'PASS' if e['correct'] else 'FAIL':>20}" for e in runs))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(combined, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="result file (default under perfbench/out/)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
