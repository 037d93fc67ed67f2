"""Benchmark for cleanpair: one process, one client, a closed loop.

    python3 perfbench/run.py --workload certs --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; cleanpair is imported from ./src.  The
workload's inputs are made from --seed, then its units of work run one
after another, each stage checked, until --seconds have passed and every
stage has at least one sample; a unit in progress is finished.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With --trace 0 the
metrics are the end-to-end ones (set-up time and each stage's median,
both scaled by a reference kernel timed around and during them);
with --trace 1 the stages are recorded as spans and the per-layer probe
(probe.py) runs after the loop.  A readable report and a results file
under perfbench/out/ hold the rest: tails, refusals, per-layer self time
and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from math import gcd
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# stage -> (name in the report, unit, scale from seconds)
STAGE_REPORT = {
    "certify": ("certify_ms", "ms", 1e3),
    "verify": ("verify_ms", "ms", 1e3),
    "reject": ("reject_ms", "ms", 1e3),
    "ladder": ("ladder_s", "s", 1.0),
    "doubling": ("doubling_s", "s", 1.0),
    "rank": ("rank_ff_ms", "ms", 1e3),
    "search": ("search_s", "s", 1.0),
    "enumerate": ("enumerate_s", "s", 1.0),
    "dbfilter": ("dbfilter_s", "s", 1.0),
}
SETUP_REPS = 3
# the reference kernel's time that setup_s is scaled to
REF_NOMINAL_S = 0.001
IMPORTS = "import cleanpair.cli, cleanpair.kummer_cert, cleanpair.ffheights, cleanpair.search"


def import_cleanpair():
    """Import cleanpair from this checkout's src, or exit 2."""
    if not (SRC / "cleanpair" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no cleanpair sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import cleanpair

    if SRC not in Path(cleanpair.__file__).resolve().parents:
        sys.stderr.write(f"perfbench: cleanpair imported from {cleanpair.__file__}\n")
        sys.exit(2)


def environment(threads_env) -> dict:
    import sympy
    from importlib.util import find_spec
    from sympy.external.gmpy import GROUND_TYPES

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "sympy": sympy.__version__,
        "ground_types": GROUND_TYPES,
        "gmpy2": find_spec("gmpy2") is not None,
        "python_flint": find_spec("flint") is not None,
        "CLEANPAIR_THREADS": threads_env,
    }


def import_seconds() -> float:
    """Import time of cleanpair in a fresh interpreter (start-up excluded)."""
    code = f"import time; t = time.perf_counter(); {IMPORTS}; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile."""
    k = max(0, min(len(sorted_values) - 1, -(-len(sorted_values) * p // 100) - 1))
    return sorted_values[int(k)]


def tail(values):
    """(p, value) for the highest whole percentile with at least ten
    samples above it, or None when that is not above the median."""
    n = len(values)
    if n <= 20:
        return None
    p = int(100 * (n - 10) / n)
    return p, percentile(sorted(values), p)


# A fixed exact-arithmetic kernel owned by the benchmark: a product of two
# degree-13 polynomials with Fraction coefficients and 60 big-integer gcds,
# about 1.4 ms.  The 2-vCPU Linux VM this was tuned on switches between a
# fast and a slow state many times a second and in longer phases (the
# kernel reads about 0.9 ms or about 1.5 ms; a fixed pure-Python loop read
# 0.24 s to 0.37 s within one minute).  The kernel slows with the program, so a stage's time divided
# by the kernel's time during that stage follows cleanpair, not the host.
_REF_A = [Fraction(3 * i + 1, 7 * i + 2) for i in range(14)]
_REF_B = [Fraction(5 * i - 3, 2 * i + 9) for i in range(14)]


def _reference_kernel():
    out = [Fraction(0)] * (len(_REF_A) + len(_REF_B) - 1)
    for i, a in enumerate(_REF_A):
        for j, b in enumerate(_REF_B):
            out[i + j] += a * b
    x = 3**200 + 1
    return out, [gcd(x, 7 ** (100 + k) - 1) for k in range(60)]


class ReferenceSampler:
    """Times the reference kernel every ``interval`` seconds from SIGALRM.

    The handler runs in the benchmark's own thread between bytecodes, so
    it samples the host's speed during long cleanpair calls too.  Its time
    is left out of ``clock()``, the clock the loop times stages with."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.times: list[float] = []
        self.spent = 0.0
        self._busy = False

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def measure(self) -> None:
        self._busy = True
        start = time.perf_counter()
        _reference_kernel()
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        self.spent += elapsed
        self._busy = False

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self.measure()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Loop:
    """Runs units until the deadline; counts attempts, refusals, failures.

    The reference kernel runs between stages and, from the sampler, every
    0.1 s during them.  Each stage sample is kept in seconds (``samples``)
    and in units of the mean reference time over that stage, its two
    neighbours included (``relative``)."""

    def __init__(self, workload, rec, sampler):
        self.workload = workload
        self.rec = rec
        self.sampler = sampler
        self.samples = {stage: [] for stage in workload.stages}
        self.relative = {stage: [] for stage in workload.stages}
        self.attempted = self.failed = 0
        self.refused: dict[str, int] = {}
        self.failures: list[str] = []

    def run(self, seconds: float, hard_seconds: float) -> float:
        """Whole units until ``seconds`` have passed and every stage has a
        sample, or until ``hard_seconds`` have passed."""
        start = time.perf_counter()
        units = self.workload.units()
        times = self.sampler.times
        with self.sampler:
            self.sampler.measure()
            while True:
                for stage, fn in next(units):
                    first = len(times) - 1
                    ok = self.step(stage, fn)
                    self.sampler.measure()
                    if ok:
                        ref = statistics.fmean(times[first:])
                        self.relative[stage].append(self.samples[stage][-1] / ref)
                    if not ok:
                        break
                now = time.perf_counter() - start
                if now >= hard_seconds or (now >= seconds and all(self.samples.values())):
                    return now

    def step(self, stage, fn) -> bool:
        from workloads import CheckFailed, Refused

        self.attempted += 1
        try:
            with self.rec.stage(stage) as timer:
                fn(self.rec)
        except Refused as exc:
            self.refused[str(exc)] = self.refused.get(str(exc), 0) + 1
            return False
        except CheckFailed as exc:
            self._fail(f"{stage}: {exc}")
            return False
        except Exception:  # any other error is a failed operation
            self._fail(f"{stage}: {traceback.format_exc()}")
            return False
        self.samples[stage].append(timer.elapsed)
        return True

    def _fail(self, message):
        self.failed += 1
        self.failures.append(message)
        sys.stderr.write(f"perfbench: FAILED {message}\n")


def measure_setup(workload_cls, seed: int):
    """Set-up time: import + input generation + warm-up, SETUP_REPS times.

    Returns the median of the times scaled to the reference speed, the
    times as measured, and the workload made by the last repetition.  A
    time is scaled by REF_NOMINAL_S over the mean reference-kernel time
    measured around and during that repetition, so ``setup_s`` is in
    seconds on a machine where the kernel takes REF_NOMINAL_S."""
    from tracing import Recorder

    scaled, measured = [], []
    for _ in range(SETUP_REPS):
        sampler = ReferenceSampler()
        sampler.measure()
        t_import = import_seconds()
        sampler.measure()
        start = sampler.clock()
        workload = workload_cls(seed)
        warm = workload_cls.warmup(seed)
        loop = Loop(warm, Recorder(False, sampler.clock), sampler)
        loop.run(0.0, 60.0)
        if loop.failed:
            raise RuntimeError("warm-up failed: " + "; ".join(loop.failures))
        total = t_import + sampler.clock() - start
        measured.append(total)
        scaled.append(total * REF_NOMINAL_S / statistics.fmean(sampler.times))
    return statistics.median(scaled), measured, workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads_env = os.environ.pop("CLEANPAIR_THREADS", None)
    import_cleanpair()
    import workloads
    from tracing import Recorder

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    env = environment(threads_env)

    setup_s, setup_reps, workload = measure_setup(cls, args.seed)
    sampler = ReferenceSampler()
    rec = Recorder(bool(args.trace), sampler.clock)
    loop = Loop(workload, rec, sampler)
    elapsed = loop.run(args.seconds, max(3 * args.seconds, args.seconds + 60))

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "loop_s": elapsed,
        "setup_s": setup_s, "setup_measured_s": setup_reps,
        "attempted": loop.attempted, "failed": loop.failed,
        "fail_ratio": loop.failed / max(1, loop.attempted),
        "refused": loop.refused, "failures": loop.failures[:20],
        "stages": {}, "inputs": workload.describe(),
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} loop={elapsed:.1f}s")
    ref_ms = [1e3 * t for t in sampler.times]
    report["reference_ms"] = ref_ms
    print(f"  setup_s = {setup_s:.4f} s at the reference speed (median of {SETUP_REPS}; "
          f"measured {statistics.median(setup_reps):.4f} s); reference kernel "
          f"{statistics.median(ref_ms):.3f} ms (median of {len(ref_ms)}, "
          f"{min(ref_ms):.3f} .. {max(ref_ms):.3f})")
    print(f"  attempted = {loop.attempted}, failed = {loop.failed}, "
          f"fail_ratio = {report['fail_ratio']:.4f}, refused = {sum(loop.refused.values())} "
          f"{loop.refused or ''}")
    for stage in workload.stages:
        name, unit, scale = STAGE_REPORT[stage]
        values = [v * scale for v in loop.samples[stage]]
        entry = {"name": name, "unit": unit, "n": len(values),
                 "p50": statistics.median(values) if values else None,
                 "samples": values}
        line = f"  {name}.p50 = {entry['p50']:.4f} {unit} (n={len(values)})" if values else \
            f"  {name}: no samples"
        t = tail(values)
        if t:
            entry[f"p{t[0]}"] = t[1]
            line += f", {name}.p{t[0]} = {t[1]:.4f} {unit}"
        relative = loop.relative[stage]
        if relative:
            entry["ref_p50"] = statistics.median(relative)
            line += f"; {entry['ref_p50']:.3f} ref"
        report["stages"][stage] = entry
        print(line)
    if args.trace:
        overhead = report_loop_layers(rec, loop, report)
    workload.report_extra(loop, report)

    if args.trace:
        probe_metrics = run_probe(rec, args.seed, overhead)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in probe_metrics.items()}
    else:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        for i, stage in enumerate(workload.stages, start=1):
            values = loop.relative[stage]
            metrics[f"stage{i}_ref"] = {
                "value": statistics.median(values) if values else None, "unit": "ref"}
    report["metrics"] = metrics

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, default=str)
    if args.trace:
        rec.write(f"{stem}.spans.jsonl")
    correct = loop.failed == 0 and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


def report_loop_layers(rec, loop, report) -> tuple[float, float]:
    """Print the traced loop's self time per layer; return the cost of one
    span in microseconds and the tracing overhead in percent."""
    from tracing import span_cost_s

    spans = len(rec.spans)
    layer_s = rec.self_time_by_layer()
    program_s = sum(sum(v) for v in loop.samples.values())
    off, on = span_cost_s()
    overhead_pct = 100 * (on - off) * spans / max(program_s, 1e-9)
    report["self_time_s"] = layer_s
    print("  self time per layer in the loop (s): " + ", ".join(
        f"{k}={v:.3f}" for k, v in sorted(layer_s.items(), key=lambda kv: -kv[1])))
    print(f"  tracing: {spans} spans, {1e6 * (on - off):.2f} us each "
          f"-> {overhead_pct:.3f} % of the loop's program time")
    return 1e6 * (on - off), overhead_pct


def run_probe(rec, seed, overhead) -> dict:
    import probe

    metrics = probe.run_probe(rec, seed)
    metrics["trace.span_cost_us"] = (overhead[0], "us")
    metrics["trace.overhead_pct"] = (overhead[1], "%")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name} = {value:.4f} {unit}" if isinstance(value, float)
              else f"  {name} = {value} {unit}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
