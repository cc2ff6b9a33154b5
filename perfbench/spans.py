"""Spans around the calls into each hdefect layer, recorded from outside the library.

A Tracer replaces public functions in the hdefect module namespaces with
timing wrappers while it is installed, and restores them afterwards. Each
span records its name, start, end, parent span and call id; spans stay in
memory until the benchmark writes them out. A layer's self time is the time
in its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import gzip
import math
import sys
import time
from collections import defaultdict

from hdefect import cli, cyclotomic, exact, matrices, tangent

# (owner, attribute, span name, layer). The owner is a module or a class.
TARGETS = (
    (cli, "run", "cli.run", "cli.self"),
    (cli, "parse_matrix_spec", "cli.parse_matrix_spec", "cli.parse"),
    (cli, "build_matrix", "cli.build_matrix", "matrices.build"),
    (matrices, "fourier_matrix", "matrices.fourier_matrix", "matrices.build"),
    (matrices, "tensor_product", "matrices.tensor_product", "matrices.build"),
    (matrices, "deformed_tensor", "matrices.deformed_tensor", "matrices.build"),
    (matrices, "verify_hadamard", "matrices.verify_hadamard", "matrices.verify"),
    (matrices.UnimodularMatrix, "to_values", "matrices.UnimodularMatrix.to_values", "matrices.to_values"),
    (tangent, "tangent_system", "tangent.tangent_system", "tangent.assemble"),
    (tangent, "numeric_rank", "tangent.numeric_rank", "tangent.svd"),
    (tangent, "deformation_scan", "tangent.deformation_scan", "tangent.scan"),
    (exact, "build_exact_system", "exact.build_exact_system", "exact.build"),
    (exact, "rational_nullity", "exact.rational_nullity", "exact.nullity"),
    (cyclotomic, "power_reduction_table", "cyclotomic.power_reduction_table", "cyclotomic.table"),
)

LAYER_OF = {name: layer for *_, name, layer in TARGETS}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))
COUNTERS = (
    "tangent.assemble_bytes",
    "tangent.assemble_bytes_max",
    "tangent.svd_flops",
    "tangent.gap_log10_min",
    "tangent.ambiguous",
    "tangent.scan_cells",
    "exact.rows_total",
)


def svd_flops(rows: int, cols: int) -> float:
    """Flops of a singular-values-only SVD by bidiagonalisation, 4mn^2 - 4n^3/3 with m >= n."""
    m, n = max(rows, cols), min(rows, cols)
    return 4.0 * m * n * n - 4.0 * n**3 / 3.0


def _observe_assemble(tracer, args, result):
    rows, cols = result.matrix.shape
    size = rows * cols * 8
    tracer.counters["tangent.assemble_bytes"] += size
    tracer.counters["tangent.assemble_bytes_max"] = max(tracer.counters["tangent.assemble_bytes_max"], size)


def _observe_svd(tracer, args, result):
    shape = getattr(args[0], "shape", ())
    if len(shape) == 2:
        tracer.counters["tangent.svd_flops"] += svd_flops(*shape)
    # An infinite gap (exact zero below the rank) counts as the largest float.
    gap = min(result.gap_ratio, sys.float_info.max)
    if gap < tangent.DEFAULT_GAP_THRESHOLD:
        tracer.counters["tangent.ambiguous"] += 1
    if gap > 0:
        margin = math.log10(gap / tangent.DEFAULT_GAP_THRESHOLD)
        tracer.counters["tangent.gap_log10_min"] = min(tracer.counters.get("tangent.gap_log10_min", margin), margin)


def _observe_exact_system(tracer, args, result):
    tracer.counters["exact.rows_total"] += result.degree * len(result.pairs) * result.n * result.n


def _observe_scan(tracer, args, result):
    tracer.counters["tangent.scan_cells"] += len(result)


OBSERVERS = {
    "tangent.tangent_system": _observe_assemble,
    "tangent.numeric_rank": _observe_svd,
    "exact.build_exact_system": _observe_exact_system,
    "tangent.deformation_scan": _observe_scan,
}


class Tracer:
    """Records spans and counters at the layer boundaries listed in TARGETS."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int, int]] = []  # name, start, end, id, parent, call
        self.counters: defaultdict = defaultdict(int)
        self.call_id = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, func):
        observe = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((name, start, end, span_id, parent, tracer.call_id))
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target, in its own namespace and wherever hdefect imported it by name."""
        modules = [m for key, m in sys.modules.items() if key == "hdefect" or key.startswith("hdefect.")]
        for owner, attribute, name, _ in TARGETS:
            original = owner.__dict__[attribute]
            wrapper = self._wrap(name, original)
            self._patch(owner, attribute, original, wrapper)
            if isinstance(owner, type):
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attribute, original, wrapper) -> None:
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _self_times(self):
        """(span name, call id, self time) for every span."""
        child_time: defaultdict = defaultdict(float)
        for _, start, end, _, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for name, start, end, span_id, _, call in self.spans:
            yield name, call, end - start - child_time[span_id]

    def layer_metrics(self) -> dict:
        """Self time and call count per layer, the scan's total time, and the counters."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for name, _, seconds in self._self_times():
            self_s[LAYER_OF[name]] += seconds
            calls[LAYER_OF[name]] += 1
        metrics = {f"{layer}_s": self_s[layer] for layer in LAYERS}
        metrics.update({f"{layer}_calls": calls[layer] for layer in LAYERS})
        metrics["tangent.scan_self_s"] = metrics.pop("tangent.scan_s")
        metrics["tangent.scan_s"] = sum(end - start for name, start, end, *_ in self.spans if name == "tangent.deformation_scan")
        metrics["exact.calls"] = metrics.pop("exact.nullity_calls")
        metrics.update(dict.fromkeys(COUNTERS, 0))
        metrics.update(self.counters)
        return metrics

    def call_layer_times(self) -> dict[int, dict[str, float]]:
        """Self time per layer for each call id."""
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, call, seconds in self._self_times():
            out[call][LAYER_OF[name]] += seconds
        return out


def write_spans(tracers: list[Tracer], path: str) -> None:
    """Write the spans as gzipped CSV: name,start_s,end_s,span_id,parent_id,call_id."""
    with gzip.open(path, "wt") as handle:
        handle.write("name,start_s,end_s,span_id,parent_id,call_id\n")
        for tracer in tracers:
            for name, start, end, span_id, parent, call in tracer.spans:
                handle.write(f"{name},{start!r},{end!r},{span_id},{parent},{call}\n")
