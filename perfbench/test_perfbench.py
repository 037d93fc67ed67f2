"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Recorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_units(workload, units: int) -> run.Loop:
    loop = run.Loop(workload, Recorder(False), run.ReferenceSampler())
    stream = workload.units()
    for _ in range(units):
        for stage, fn in next(stream):
            if not loop.step(stage, fn):
                break
    return loop


def test_generators_are_deterministic_per_seed():
    assert workloads.certs_inputs(5) == workloads.certs_inputs(5)
    assert workloads.certs_inputs(5) != workloads.certs_inputs(6)
    assert workloads.FFLadder(5).negate == workloads.FFLadder(5).negate
    assert workloads.curve_table(5) == workloads.curve_table(5)
    assert workloads.curve_table(5)[0] != workloads.curve_table(6)[0]
    assert workloads.Survey(5).describe() == workloads.Survey(5).describe()


def test_curve_table_labels_follow_construction():
    lines, shape, square, rank_one, disc = workloads.curve_table(3)
    assert len(lines) == 28 and rank_one == 24
    assert set(square) <= set(shape) == set(disc)
    assert max(disc.values()) > 10**13  # the long a1 = 1 rows stay in


def test_certs_seed_code_passes_its_checks():
    loop = run_units(workloads.Certs(1, count=6), 6)
    assert loop.failed == 0, loop.failures
    assert all(loop.samples[stage] for stage in ("certify", "verify", "reject"))


def test_tampered_certificate_reported_verified_is_a_failure(monkeypatch):
    real = workloads.verify_certificate

    def always_ok(cert):
        return type(real(cert))(True, ())

    monkeypatch.setattr(workloads, "verify_certificate", always_ok)
    loop = run_units(workloads.Certs(1, count=6), 6)
    assert loop.failed > 0
    assert any("tampered leaf" in f or "verified" in f for f in loop.failures)


def test_off_by_one_height_is_a_failure(monkeypatch):
    real = workloads.canonical_height
    calls = []

    class Shifted:
        def __init__(self, total):
            self.total = total

    def shifted(E, P):
        calls.append(1)
        rep = real(E, P)
        return Shifted(rep.total + 1) if len(calls) > 1 else rep

    monkeypatch.setattr(workloads, "canonical_height", shifted)
    loop = run_units(workloads.FFLadder(1, target_degree=4, count=1), 1)
    assert loop.failed == 1 and "h(2P)" in loop.failures[0]


def test_documented_refusal_is_not_a_failure():
    # the first seeded pair that certify refuses (a cusp, a torsion point)
    workload = workloads.Certs(1, count=1)
    workload.pairs = [find_refused_pair()]
    loop = run_units(workload, 1)
    assert loop.failed == 0
    assert sum(loop.refused.values()) == 1
    assert loop.attempted == 1


def find_refused_pair():
    for s, t1, t2 in workloads.certs_inputs(1, 200):
        loop = run_units(_single(s, t1, t2), 1)
        if loop.refused:
            return s, t1, t2
    pytest.fail("no refused pair among 200 seeded pairs")


def _single(s, t1, t2):
    workload = workloads.Certs(1, count=1)
    workload.pairs = [(s, t1, t2)]
    return workload


def test_sweep_useful_ratio_counts_each_walk():
    from cleanpair.search import SweepEntry

    rows = [SweepEntry("models-v-positive", 10, 9, None), SweepEntry("models-v-both", 20, 18, None),
            SweepEntry("models-coprime", 6, 6, None), SweepEntry("models-dedupe-curve", 10, 9, None)]
    assert workloads.sweep_useful_ratio(rows) == 10 / 36


def last_json(argv) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_result_line_has_every_end_to_end_metric():
    result = last_json(["--workload", "certs", "--seed", "4", "--seconds", "0.5", "--trace", "0"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_run_has_every_per_layer_metric():
    result = last_json(["--workload", "certs", "--seed", "4", "--seconds", "0.5", "--trace", "1"])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["metrics"]["kummer_cert.reject_caught_ratio"]["value"] == 1
    assert result["metrics"]["ec_core.doubling_waste"]["value"] > 1


def test_refuses_to_run_without_the_sources():
    bare = BENCH_DIR / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "certs", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
