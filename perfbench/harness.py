"""Runs one workload of the benchmark and builds its result.

Each workload is a closed loop with one client: the next CLI call starts
only after the previous one has returned and been checked. A pass runs every
entry of the corpus once; passes repeat until the requested seconds are
spent, and every timing is reported as the median over passes. Latencies
time only ``hdefect.cli.run``; the oracle checks run outside the timed span.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from hdefect import cli, cyclotomic

import corpus
import oracles
from spans import Tracer, write_spans

SETUP_SAMPLES = 5
THREAD_COMPARISON_SAMPLES = 2
FRESH_CALL_TIMEOUT_S = 60
FRESH_CALL_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from hdefect.cli import run; "
    "raise SystemExit(run(sys.argv[2:]))"
)
SETUP_ARGV = ("defect", "fourier:2")
THREAD_COMPARISON_ARGV = ("defect", "fourier:32")

# The layer each workload is expected to spend most of its time in, over a
# whole pass or, for "defect", over the calls at and beyond the tail percentile.
PREDICTED_DOMINANT = {"scan": ("pass", "matrices"), "defect": ("tail", "tangent.svd"), "conjecture": ("pass", "exact.nullity")}


@dataclass
class PassResult:
    traced: bool
    latencies: list[float] = field(default_factory=list)
    items: int = 0

    @property
    def items_per_s(self) -> float:
        return self.items / sum(self.latencies)


@dataclass
class Failures:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{label}: {'; '.join(problems)}")


def run_call(entry: corpus.Entry) -> tuple[float, list[str]]:
    """Latency of one in-process CLI call and the oracle's problems with its answer."""
    out, err = io.StringIO(), io.StringIO()
    # Each call starts from a collected heap, as a fresh CLI process would,
    # so garbage left by earlier calls and checks is not collected on its clock.
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.run(list(entry.argv))
        except Exception:  # a raising call is a failed operation, not a crashed benchmark
            rc = None
            err.write(traceback.format_exc())
        latency = time.perf_counter() - start
    return latency, oracles.check_call(entry, rc, out.getvalue(), err.getvalue())


def run_pass(entries, failures: Failures, tracer: Tracer | None) -> PassResult:
    result = PassResult(traced=tracer is not None)
    with tracer if tracer is not None else contextlib.nullcontext():
        for call_id, entry in enumerate(entries):
            if tracer is not None:
                tracer.call_id = call_id
            latency, problems = run_call(entry)
            failures.record(" ".join(entry.argv), problems)
            result.latencies.append(latency)
            result.items += entry.items
    return result


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten calls beyond it.

    With fewer than eleven calls the maximum is returned as percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def fresh_call_seconds(src: str, argv, env: dict, failures: Failures) -> float:
    """Wall time of a fresh interpreter that imports hdefect.cli and completes one call."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_CALL_CODE, src, *argv],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=FRESH_CALL_TIMEOUT_S,
        check=False,
    )
    elapsed = time.perf_counter() - start
    problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}: {proc.stderr.decode()[-300:]}"]
    failures.record("fresh " + " ".join(argv), problems)
    return elapsed


def measure_setup(src: str, blas_vars: tuple[str, ...], workload: str, failures: Failures) -> dict:
    """Median set-up time with BLAS pinned, and fresh calls with the machine-default thread count.

    The F32 comparison, which sizes the first multi-threaded SVD, runs on the
    defect workload only, where calls of that size belong.
    """
    pinned = dict(os.environ)
    default = {k: v for k, v in os.environ.items() if k not in blas_vars}
    setup = [fresh_call_seconds(src, SETUP_ARGV, pinned, failures) for _ in range(SETUP_SAMPLES)]
    runs = [("default_threads", default, SETUP_ARGV)]
    if workload == "defect":
        runs += [("pinned_1_thread", pinned, THREAD_COMPARISON_ARGV), ("default_threads", default, THREAD_COMPARISON_ARGV)]
    compare = {}
    for label, env, argv in runs:
        samples = [fresh_call_seconds(src, argv, env, failures) for _ in range(THREAD_COMPARISON_SAMPLES)]
        compare[f"{label}: {' '.join(argv)}"] = {"median_s": statistics.median(samples), "samples_s": samples}
    return {"setup_s": statistics.median(setup), "setup_samples_s": setup, "fresh_call_by_blas_threads": compare}


def environment(root: str, workload: str, seed: int, blas_set: dict, blas_inherited: dict) -> dict:
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src_dir = os.path.join(root, "src", "hdefect")
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = blas.get("openblas configuration", blas.get("name"))
    except (KeyError, TypeError):
        openblas = None
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_config": openblas,
        "cpu_count": os.cpu_count(),
        "blas_thread_vars_set": blas_set,
        "blas_thread_vars_inherited": blas_inherited,
        "machine": platform.machine(),
    }


def dominant_layers(workload: str, tracers: list[Tracer], traced: list[PassResult]) -> dict:
    """Self time by layer, or by module when the prediction names a module, against the prediction."""
    scope, predicted = PREDICTED_DOMINANT[workload]
    group = (lambda layer: layer) if "." in predicted else (lambda layer: layer.split(".")[0])
    self_s: dict[str, float] = defaultdict(float)
    for tracer, result in zip(tracers, traced):
        threshold = tail_latency(result.latencies)[0] if scope == "tail" else 0.0
        for call, layers in tracer.call_layer_times().items():
            if result.latencies[call] >= threshold:
                for layer, seconds in layers.items():
                    self_s[group(layer)] += seconds
    observed = max(self_s, key=self_s.get)
    return {
        "scope": scope,
        "predicted": predicted,
        "observed": observed,
        "confirmed": observed == predicted,
        "predicted_share": self_s[predicted] / sum(self_s.values()),
        "self_s": dict(self_s),
    }


def measure_passes(entries, seconds: float, trace: bool, failures: Failures):
    """Whole passes until the seconds are spent; trace runs alternate traced and untraced passes."""
    passes: list[PassResult] = []
    tracers: list[Tracer] = []
    deadline = time.perf_counter() + seconds
    while True:
        tracer = Tracer() if trace and 2 * len(tracers) <= len(passes) else None
        passes.append(run_pass(entries, failures, tracer))
        if tracer is not None:
            tracers.append(tracer)
        if time.perf_counter() >= deadline and (not trace or len(tracers) < len(passes)):
            return passes, tracers


def median_over_passes(passes: list[PassResult], statistic) -> float:
    return statistics.median(statistic(p) for p in passes)


def end_to_end_metrics(passes: list[PassResult], setup: dict) -> dict:
    return {
        "items_per_s": (median_over_passes(passes, lambda p: p.items_per_s), "1/s"),
        "call_tail_ms": (median_over_passes(passes, lambda p: tail_latency(p.latencies)[0]) * 1000.0, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup["setup_s"], "s"),
    }


LAYER_UNITS = {
    "tangent.assemble_bytes": "B",
    "tangent.assemble_bytes_max": "B",
    "tangent.svd_flops": "flop",
    "tangent.gap_log10_min": "log10",
    "trace.items_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


def trace_metrics(passes: list[PassResult], tracers: list[Tracer], table_misses: int) -> dict:
    per_pass = [t.layer_metrics() for t in tracers]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    traced = median_over_passes([p for p in passes if p.traced], lambda p: p.items_per_s)
    untraced = median_over_passes([p for p in passes if not p.traced], lambda p: p.items_per_s)
    metrics["cyclotomic.table_misses"] = table_misses
    metrics["trace.items_per_s"] = traced
    metrics["trace.overhead_ratio"] = untraced / traced - 1.0
    return {
        name: (value, LAYER_UNITS.get(name, "s" if name.endswith("_s") else "count"))
        for name, value in metrics.items()
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: str, blas: dict) -> tuple[dict, dict]:
    """Run one workload; returns the result line and the detailed report."""
    failures = Failures()
    out_dir = os.path.relpath(os.path.join(root, "perfbench", "out"))
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir)
    try:
        start = time.perf_counter()
        entries = corpus.build_corpus(workload, seed, workdir)
        report = {
            "environment": environment(root, workload, seed, blas["set"], blas["inherited"]),
            "corpus_s": time.perf_counter() - start,
            "calls_per_pass": len(entries),
            "items_per_pass": sum(e.items for e in entries),
            "transformed_entries": sum(e.transformed for e in entries),
            "floating_entries": sum(e.floating for e in entries),
        }
        if not trace:
            report["setup"] = measure_setup(os.path.join(root, "src"), blas["vars"], workload, failures)
        run_pass(corpus.warmup_entries(workload, entries), failures, None)
        # Cleared after the warm-up, so that a trace run counts one miss per
        # phase order its measured passes meet.
        cyclotomic.power_reduction_table.cache_clear()
        passes, tracers = measure_passes(entries, seconds, trace, failures)
        table_misses = cyclotomic.power_reduction_table.cache_info().misses
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.update(
        {
            "passes": len(passes),
            "calls_measured": sum(len(p.latencies) for p in passes),
            "pass_items_per_s": [p.items / sum(p.latencies) for p in passes],
            "pass_traced": [p.traced for p in passes],
            "call_latencies_ms": {
                " ".join(e.argv): [p.latencies[i] * 1000.0 for p in passes] for i, e in enumerate(entries)
            },
            "call_tail_percentile": tail_latency(passes[0].latencies)[1],
            "call_p50_ms": median_over_passes(passes, lambda p: statistics.median(p.latencies)) * 1000.0,
            "attempted": failures.attempted,
            "failed": failures.failed,
            "failed_ratio": failures.failed / failures.attempted,
            "failures": failures.messages,
        }
    )
    if trace:
        metrics = trace_metrics(passes, tracers, table_misses)
        report["phase_orders"] = corpus.phase_orders(workload, entries)
        report["dominant"] = dominant_layers(workload, tracers, [p for p in passes if p.traced])
        report["spans_file"] = os.path.join(out_dir, f"spans-{workload}-seed{seed}.csv.gz")
        write_spans(tracers, report["spans_file"])
    else:
        metrics = end_to_end_metrics(passes, report["setup"])
    result = {
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report["result"] = result
    return result, report
