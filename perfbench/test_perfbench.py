"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

from hdefect import matrices  # noqa: E402
from hdefect.matrices import load_matrix  # noqa: E402

import corpus  # noqa: E402
import harness  # noqa: E402
import oracles  # noqa: E402
from spans import Tracer  # noqa: E402


def _inputs(entries, workdir):
    """argv with the work directory stripped, and the bytes of every input file."""
    argvs, files = [], {}
    for entry in entries:
        argvs.append(tuple(a.replace(workdir, "<dir>") for a in entry.argv))
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as handle:
            files[name] = handle.read()
    return argvs, files


@pytest.mark.parametrize("workload", ["defect", "conjecture"])
def test_corpus_is_deterministic_for_a_seed(tmp_path, workload):
    first, second, other = (str(tmp_path / name) for name in ("a", "b", "c"))
    for path in (first, second, other):
        os.mkdir(path)
    same = _inputs(corpus.build_corpus(workload, 7, first), first)
    assert same == _inputs(corpus.build_corpus(workload, 7, second), second)
    assert same[1] != _inputs(corpus.build_corpus(workload, 8, other), other)[1]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("workload", ["defect", "conjecture"])
def test_equivalents_keep_the_base_phase_order(tmp_path, workload, seed):
    entries = corpus.build_corpus(workload, seed, str(tmp_path))
    transformed = [e for e in entries if e.transformed and not e.floating]
    assert transformed
    for entry in transformed:
        h = load_matrix(entry.argv[1][len("file:") :])
        assert h.phase_order() <= entry.base_q


def test_wrong_expected_value_is_counted_as_failed(monkeypatch):
    entry = corpus.Entry(command="defect", base="tao", argv=("defect", "tao", "--dephased"), n=6)
    failures = harness.Failures()
    harness.run_pass([entry], failures, None)
    assert (failures.attempted, failures.failed) == (1, 0)
    monkeypatch.setitem(oracles.RECORDED_DEFECTS, "tao", 12)
    harness.run_pass([entry], failures, None)
    assert (failures.attempted, failures.failed) == (2, 1)
    assert "defect is 11, expected 12" in failures.messages[0]


def test_tail_latency_leaves_ten_calls_beyond():
    latencies = [float(i) for i in range(44)]
    value, percentile = harness.tail_latency(latencies)
    assert sum(1 for x in latencies if x > value) == 10
    assert percentile == pytest.approx(100 * 34 / 44)
    assert harness.tail_latency([3.0, 1.0]) == (3.0, 100.0)


def test_tracer_restores_functions_and_nests_spans():
    original = matrices.verify_hadamard
    entry = corpus.Entry(command="defect", base="fourier:4", argv=("defect", "fourier:4"), n=4)
    tracer = Tracer()
    with tracer:
        assert matrices.verify_hadamard is not original
        harness.run_call(entry)
    assert matrices.verify_hadamard is original
    metrics = tracer.layer_metrics()
    assert metrics["cli.self_calls"] == 1
    assert metrics["matrices.verify_calls"] == 1
    assert metrics["tangent.svd_calls"] == 1
    assert metrics["tangent.assemble_bytes"] == 12 * 16 * 8
    (run_span,) = [s for s in tracer.spans if s[0] == "cli.run"]
    layer_total = sum(v for k, v in metrics.items() if k.endswith("_s") and k != "tangent.scan_s")
    assert layer_total == pytest.approx(run_span[2] - run_span[1])
