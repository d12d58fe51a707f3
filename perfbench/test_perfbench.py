"""Self-tests of the benchmark harness, on small cuts of its workloads.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import pytest

BENCH_DIR = Path(__file__).resolve().parent
for path in (BENCH_DIR.parent / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import oracle  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END_UNITS, LAST_LINE_END_TO_END, check_pass, tail  # noqa: E402
from spans import Tracer, layer_metrics, target_owners  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from updownlab.lfunctions import kronecker_symbol  # noqa: E402

FAST_RECORDS = {"zeilberger", "grold", "fib1", "e-i", "e-7", "k12", "b1"}

CUTS = [
    ("corpus-40", FAST_RECORDS, None),
    ("corpus-40-cached", FAST_RECORDS, None),
    ("series-epstein-300", {"zeilberger", "fib1", "e-i", "k12"}, None),
    ("tables-100", None, 20),
]


def test_traced_run_restores_every_wrapped_attribute():
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr, _, _ in target_owners()]
    workload = workloads.make("corpus-40", only=FAST_RECORDS)
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="leave the block"):
        with tracer.installed():
            for owner, attr, original in originals:
                assert vars(owner)[attr] is not original
            workloads.run_pass(workload, workload.units(), tracer)
            raise RuntimeError("leave the block by an exception")
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original
    names = {span[0] for span in tracer.spans}
    assert {"identities.verify", "lfunctions.l2", "numerics.trigamma"} <= names


@pytest.mark.parametrize("name, only, digits", CUTS, ids=[c[0] for c in CUTS])
def test_traced_and_untraced_runs_agree(name, only, digits, tmp_path):
    workload = workloads.make(name, only=only, digits=digits)
    order = workloads.order_for(workload, 7, 0)
    workloads.setup_pass(workload, tmp_path, order)
    plain = check_pass(workload, workloads.run_pass(workload, order))
    tracer = Tracer()
    with tracer.installed():
        workloads.setup_pass(workload, tmp_path, order, tracer)
        traced = check_pass(workload, workloads.run_pass(workload, order, tracer))
    assert plain == traced
    assert all(r.ok for r in plain), [r for r in plain if not r.ok]
    assert sorted(r.id for r in plain) == workload.op_ids


def test_held_out_seed_gives_same_results_in_another_order():
    workload = workloads.make("corpus-40", only=FAST_RECORDS)
    first = workloads.run_pass(workload, workloads.order_for(workload, 1, 0))
    held_out = workloads.run_pass(workload, workloads.order_for(workload, 9001, 0))
    assert first.order != held_out.order
    by_id = sorted(check_pass(workload, first), key=lambda r: r.id)
    assert by_id == sorted(check_pass(workload, held_out), key=lambda r: r.id)


def test_oracle_character_matches_the_program():
    for d in (-1012, -116, -87, -4, -3, 5, 8, 12, 253):
        for n in range(1, 300):
            assert oracle.kronecker(d, n) == kronecker_symbol(d, n), (d, n)


def test_oracle_l_value_is_catalans_constant():
    with mpmath.workdps(60):
        assert abs(oracle.LatticeOracle(60, [-4]).l2(-4) - mpmath.catalan) < mpmath.mpf(10) ** -58


def test_oracle_file_round_trips_exactly(tmp_path):
    path = tmp_path / "l2.json"
    built = oracle.LatticeOracle(80, [-4, 5], path)
    read = oracle.LatticeOracle(80, [-4, 5], path)
    assert read.l2(-4) == built.l2(-4) and read.l2(5) == built.l2(5)
    assert read.l2(5)._mpf_[3] > 200  # full precision, not the 53-bit default


def test_speed_sampler_samples_and_restores_the_signal():
    previous = signal.getsignal(signal.SIGALRM)
    with SpeedSampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        t1 = time.perf_counter()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(sampler.ms) >= 5
    (corrected,) = sampler.correct(t0, t1, [t1 - t0])
    assert 0 < corrected < 10 * (t1 - t0)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(k, END_TO_END_UNITS[k]) for k in LAST_LINE_END_TO_END]
    layers = layer_metrics([], 0, [])
    traced = [m["name"] for m in spec["per_layer"]]
    assert traced[:len(layers)] == list(layers)
    assert traced[len(layers):] == ["trace.overhead_s", "trace.overhead_share",
                                    "trace.spans"]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.PASSES_AT_20_S)


def test_tail_has_ten_samples_beyond_it():
    value, pct = tail(list(range(54)))
    assert value == 43 and sum(v > value for v in range(54)) == 10
    assert pct == pytest.approx(100 * 44 / 54)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables-100",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
