"""In-memory span tracer for the traced benchmark run.

Spans are recorded from outside the program: ``installed`` replaces each
public beamgat function in the namespace its caller looks it up in with a
wrapper that opens a span (name, start, end, parent) and adds counts read
off the call's arguments and result. ``layer_metrics`` turns the spans and
counts into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from collections import defaultdict

TENSOR_OPS = (
    "matmul", "take_rows", "rows", "segment_softmax", "segment_weighted_sum",
    "layer_norm", "leaky_relu", "elu", "add", "add_const", "scale", "sigmoid",
    "reshape", "concat_cols", "mse_loss",
)

COUNTERS = (
    "experiment.cells", "synth.points", "ingest.records", "ingest.skipped_nonfinite",
    "ingest.points", "ingest.dropped", "graph.nodes", "graph.edges", "trainer.epochs",
    "tensor_ad.matmul.flops", "tensor_ad.take_rows.bytes",
    "tensor_ad.segment_softmax.bytes", "tensor_ad.segment_weighted_sum.bytes",
)


class Tracer:
    """Spans as ``[name, start, end, parent]`` lists; ``parent`` is the index
    of the enclosing span, or -1 for a root. Single-threaded only."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span called ``name``; ``count(args, result)`` may
        return ``{counter: increment}`` for the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.clock(), 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._open.pop()
            if count is not None:
                for key, inc in count(args, result).items():
                    self.counters[key] += inc
            return result

        return traced


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


# --- counts read at the call boundaries --------------------------------------

def _count(key):
    return lambda args, result: {key: len(result)}


def _matmul_flops(args, result):
    a, b = args[0].data, args[1].data
    return {"tensor_ad.matmul.flops": 2 * math.prod(a.shape) * math.prod(b.shape[1:])}


def _bytes(key, *arg_positions):
    def count(args, result):
        moved = result.data.nbytes + sum(args[i].data.nbytes for i in arg_positions)
        return {key: moved}
    return count


def _records(args, result):
    return {"ingest.records": len(result) + result.skipped_nonfinite,
            "ingest.skipped_nonfinite": result.skipped_nonfinite}


def _frame(args, result):
    return {"ingest.points": len(result.cloud), "ingest.dropped": int(result.dropped_mask.sum())}


def _graph(args, result):
    return {"graph.nodes": result.num_nodes, "graph.edges": result.num_edges}


def _epochs(args, result):
    return {"trainer.epochs": len(result.loss_history)}


# (module that callers look the name up in, attribute, span name, count)
TARGETS = [
    ("beamgat.cli", "run_experiment", "experiment.run_experiment", _count("experiment.cells")),
    ("beamgat.synth", "synthesize_scene", "synth.synthesize_scene", _count("synth.points")),
    ("beamgat.ingest", "read_kitti_bin", "ingest.read_kitti_bin", _records),
    ("beamgat.ingest", "estimate_beams", "ingest.estimate_beams", None),
    ("beamgat.ingest", "stratified_sample", "ingest.stratified_sample", None),
    ("beamgat.ingest", "apply_beam_dropout", "ingest.apply_beam_dropout", _frame),
    ("beamgat.graph", "build_knn_graph", "graph.build_knn_graph", _graph),
    ("beamgat.graph", "knn_indices", "graph.knn_indices", None),
    ("beamgat.baselines", "linear_interp", "baselines.linear_interp", None),
    ("beamgat.baselines", "nearest_neighbor_sub", "baselines.nearest_neighbor_sub", None),
    ("beamgat.metrics", "rmse_z", "metrics.rmse_z", None),
    ("beamgat.metrics", "rmse_xyz", "metrics.rmse_xyz", None),
    ("beamgat.metrics", "chamfer", "metrics.chamfer", None),
    ("beamgat.trainer", "train_frame", "trainer.train_frame", _epochs),
    ("beamgat.trainer", "predict_dropped", "trainer.predict_dropped", None),
    ("beamgat.trainer", "adam_step", "trainer.adam_step", None),
    # trainer binds these by name from model
    ("beamgat.trainer", "forward", "model.forward", None),
    ("beamgat.trainer", "init_params", "model.init_params", None),
    ("beamgat.model", "gat_attention_layer", "model.gat_attention_layer", None),
    ("beamgat.model", "gcn_layer", "model.gcn_layer", None),
    ("beamgat.tensor_ad", "Tape.backward", "tensor_ad.Tape.backward", None),
] + [
    ("beamgat.tensor_ad", op, f"tensor_ad.{op}", {
        "matmul": _matmul_flops,
        "take_rows": _bytes("tensor_ad.take_rows.bytes"),
        "segment_softmax": _bytes("tensor_ad.segment_softmax.bytes", 0),
        "segment_weighted_sum": _bytes("tensor_ad.segment_weighted_sum.bytes", 0, 1),
    }.get(op))
    for op in TENSOR_OPS
]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target while the block runs; restore the originals after."""
    saved = []
    try:
        for module_name, attr, name, count in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            saved.append((owner, leaf, original))
            setattr(owner, leaf, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)


def layer_metrics(spans: list[list], counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics: ``<span>.s`` inclusive seconds, ``<span>.self_s``
    seconds minus child spans, ``<span>.calls``, every counter, and
    ``trainer.epoch_s`` (train_frame seconds per epoch). A span or count
    that the run never reached reads 0."""
    out: dict[str, float] = dict.fromkeys(COUNTERS, 0)
    for _, _, name, _ in TARGETS + [(None, None, "cli.main", None)]:
        out[f"{name}.s"] = out[f"{name}.self_s"] = out[f"{name}.calls"] = 0
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        out[f"{name}.s"] += end - start
        out[f"{name}.self_s"] += own
        out[f"{name}.calls"] += 1
    out.update(counters)
    epochs = out.get("trainer.epochs", 0)
    out["trainer.epoch_s"] = out["trainer.train_frame.s"] / epochs if epochs else 0.0
    return out
