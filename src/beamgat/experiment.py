"""Experiment harness: wires ingestion, graph construction, training and
metrics into reproducible frame x k x method runs with CSV outputs."""

from __future__ import annotations

import concurrent.futures
import contextlib
import csv
import dataclasses
import logging
import os
import time

import numpy as np

from . import baselines, blas, graph as graph_mod, ingest, metrics, synth, trainer
from .model import ARCHITECTURES
from .trainer import TrainConfig

log = logging.getLogger(__name__)

ALL_METHODS = ("linear", "nn") + ARCHITECTURES


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    input_dir: str | None = None  # directory of KITTI .bin frames; None synthesizes ``scene``
    frame_limit: int = 1
    sample_target: int = 50000
    dropout_nth: int = 4
    k_list: tuple[int, ...] = (10,)
    methods: tuple[str, ...] = ALL_METHODS
    train: TrainConfig = TrainConfig()
    scene: synth.SceneSpec = synth.SceneSpec()
    seed: int = 0  # training seed; frame i's scene and sample seed is seed + i
    out_dir: str = "runs"
    workers: int = 1
    timing: bool = True  # False zeroes time columns so CSVs are byte-stable

    def __post_init__(self):
        if not self.methods:
            raise ValueError("at least one method required")
        if not self.k_list:
            raise ValueError("at least one k required")
        if min(self.k_list) < 1:
            raise ValueError(f"k_list entries must be >= 1, got {list(self.k_list)}")
        for name in ("k_list", "methods"):
            entries = getattr(self, name)
            if len(set(entries)) < len(entries):
                raise ValueError(f"{name} entries must be distinct, got {list(entries)}")
        if self.sample_target < 1:
            raise ValueError(f"sample_target must be >= 1, got {self.sample_target}")
        if self.frame_limit < 1:
            raise ValueError(f"frame_limit must be >= 1, got {self.frame_limit}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.dropout_nth < 2:  # nth=1 drops every beam; nth<=0 is no beam pattern
            raise ValueError(f"dropout_nth must be >= 2, got {self.dropout_nth}")
        for m in self.methods:
            if m not in ALL_METHODS:
                raise ValueError(f"unknown method {m!r}")

    @classmethod
    def from_dict(cls, fields: dict, overrides: dict | None = None) -> "ExperimentConfig":
        """Build from JSON-style field values: ``train`` and ``scene`` are
        objects of their own fields, ``overrides`` maps config paths such as
        ``train.epochs`` to replacing values, and fields not given keep their defaults."""
        fields = dict(_object(fields, "the config"))
        sections = {"train": TrainConfig, "scene": synth.SceneSpec}
        for name in sections:
            fields[name] = dict(_object(fields.get(name, {}), f"config section {name!r}"))
        for path, value in (overrides or {}).items():
            section, _, name = path.rpartition(".")
            (fields[section] if section else fields)[name] = value
        for name, kind in sections.items():
            fields[name] = _build(kind, fields[name], f"{name}.")
        return _build(cls, fields, "")


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# what a JSON value must be, by the annotation of the field it sets; the
# train and scene sections are built before their parent and are not listed
JSON_TYPES = {
    "int": (_is_int, "an integer"),
    "float": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "tuple[int, ...]": (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"),
    "tuple[str, ...]": (lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
                        "a list of strings"),
}


def _build(kind, fields: dict, prefix: str):
    types = {f.name: f.type for f in dataclasses.fields(kind)}
    unknown = sorted(set(fields) - set(types))
    if unknown:
        raise ValueError(f"unknown config field(s): {', '.join(prefix + name for name in unknown)}")
    for name, value in fields.items():
        if types[name] in JSON_TYPES:
            accepts, what = JSON_TYPES[types[name]]
            if not accepts(value):
                raise ValueError(f"config field {prefix}{name} must be {what}, got {value!r}")
            if isinstance(value, list):
                fields[name] = tuple(value)
    return kind(**fields)


def _build_frame(cfg: ExperimentConfig, frame_id: int, path: str | None) -> tuple[str, ingest.SparseFrame]:
    if path is not None:
        tag = os.path.splitext(os.path.basename(path))[0]
        if "\r" in tag:  # csv on Python 3.11 writes it unquoted, and a reader splits the row there
            raise ingest.FrameError(f"frame name {tag!r} holds a carriage return")
        cloud = ingest.read_kitti_bin(path)
        cloud = ingest.estimate_beams(cloud)
    else:
        cloud = synth.synthesize_scene(cfg.scene, cfg.seed + frame_id)
        tag = f"{cfg.scene.kind}{frame_id}"
    cloud = ingest.stratified_sample(cloud, cfg.sample_target, seed=cfg.seed + frame_id)
    return tag, ingest.apply_beam_dropout(cloud, cfg.dropout_nth)


def _evaluate(
    cfg: ExperimentConfig,
    tag: str,
    frame: ingest.SparseFrame,
    k: int,
    method: str,
    graph: graph_mod.Graph | None,
) -> metrics.EvalReport:
    """One (frame, k, method) cell. ``graph`` is the frame's kNN graph for
    ``k``, which learned methods need; baselines take None. ``train_s`` is
    the whole fit of a learned method (0 for a baseline), and ``infer_s``
    the prediction step that builds the reconstruction: for a baseline, its
    whole run."""
    dropped = np.flatnonzero(frame.dropped_mask)
    truth = frame.cloud.xyz[dropped]

    train_s = 0.0
    if method in ARCHITECTURES:
        t0 = time.perf_counter()
        params = trainer.train_frame(frame, graph, method, cfg.train, cfg.seed).params
        train_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    if method == "nn":
        recon = baselines.nearest_neighbor_sub(frame)
    else:
        recon = truth.copy()
        recon[:, 2] = (baselines.linear_interp(frame) if method == "linear"
                       else trainer.predict_dropped(frame, graph, params, method))
    infer_s = time.perf_counter() - t0
    if not cfg.timing:
        train_s = infer_s = 0.0

    return metrics.EvalReport(
        frame=tag,
        method=method,
        k=k,
        rmse_z=metrics.rmse_z(recon[:, 2], truth[:, 2]),
        rmse_xyz=metrics.rmse_xyz(recon, truth),
        chamfer=metrics.chamfer(recon, truth),
        train_s=train_s,
        infer_s=infer_s,
        n_dropped=int(dropped.size),
    )


@blas.one_thread()
def _run_one_frame(args) -> list[metrics.EvalReport]:
    """All cells of one frame, run with one BLAS thread (``--workers`` runs
    frames in parallel); a frame file that cannot be read, or a frame that
    raises ``ingest.FrameError``, yields no rows. So does a learned cell
    whose k is not below the frame's point count, and a cell that fails
    with a FloatingPointError (a non-finite forward value or loss); the
    frame's other cells still report. Each skip logs a warning, the same
    for any ``workers``."""
    cfg, frame_id, path = args
    try:
        tag, frame = _build_frame(cfg, frame_id, path)
    except (OSError, ingest.FrameError) as exc:
        log.warning("skipping frame %s: %s", path if path is not None else frame_id, exc)
        return []
    n = len(frame.cloud)
    learned = any(m in ARCHITECTURES for m in cfg.methods)
    reports = []
    for k in cfg.k_list:
        # one graph per (frame, k), shared by every learned method
        graph = graph_mod.build_knn_graph(frame, k) if learned and k < n else None
        for method in cfg.methods:
            if method in ARCHITECTURES and graph is None:
                log.warning("skipping %s at k=%d on frame %s: it has only %d points", method, k, tag, n)
                continue
            try:
                reports.append(_evaluate(cfg, tag, frame, k, method, graph))
            except FloatingPointError as exc:
                log.warning("skipping %s at k=%d on frame %s: %s", method, k, tag, exc)
    return reports


def run_experiment(cfg: ExperimentConfig) -> list[metrics.EvalReport]:
    """Run the full frame x k x method grid; writes ``reports.csv`` and
    ``summary.csv`` under the output directory and returns the reports."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    if cfg.input_dir is not None:
        paths = sorted(
            os.path.join(cfg.input_dir, f)
            for f in os.listdir(cfg.input_dir)
            if f.endswith(".bin")
        )
        jobs = [(cfg, i, p) for i, p in enumerate(paths)]
    else:
        jobs = [(cfg, i, None) for i in range(cfg.frame_limit)]

    # Frames are read in order, up to ``workers`` at a time, until frame_limit
    # of them have given rows: a skipped frame takes no slot.
    per_frame: list[list[metrics.EvalReport]] = []
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=cfg.workers) if cfg.workers > 1 else None
    with pool or contextlib.nullcontext():
        run = pool.map if pool else map
        while jobs and len(per_frame) < cfg.frame_limit:
            batch = min(cfg.workers, cfg.frame_limit - len(per_frame))
            per_frame += filter(None, run(_run_one_frame, jobs[:batch]))
            jobs = jobs[batch:]

    reports = [r for frame_reports in per_frame for r in frame_reports]
    write_reports_csv(reports, os.path.join(cfg.out_dir, "reports.csv"))
    write_summary_csv(reports, os.path.join(cfg.out_dir, "summary.csv"))
    return reports


def _write_csv(path: str, header: list[str], rows) -> None:
    """One CSV table: minimal quoting, so a name holding a comma, quote or
    newline reads back whole, and each float written as ``.9g``."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows([f"{v:.9g}" if isinstance(v, float) else v for v in row] for row in rows)


def write_reports_csv(reports: list[metrics.EvalReport], path: str) -> None:
    names = [f.name for f in dataclasses.fields(metrics.EvalReport)]
    _write_csv(path, names, (dataclasses.astuple(r) for r in reports))


def write_summary_csv(reports: list[metrics.EvalReport], path: str) -> None:
    """Mean +/- SD per (method, k) across frames: the mean and SD of each
    error metric ``metrics.aggregate`` returns, and the mean alone of each
    time (``_s``)."""
    columns = [(name, i) for name in metrics.AGGREGATED_FIELDS for i in ((0,) if name.endswith("_s") else (0, 1))]
    groups: dict[tuple[str, int], list[metrics.EvalReport]] = {}
    for r in reports:
        groups.setdefault((r.method, r.k), []).append(r)
    rows = []
    for (method, k), rs in sorted(groups.items()):
        agg = metrics.aggregate(rs)
        rows.append([method, k, *(agg[name][i] for name, i in columns), len(rs)])
    header = ["method", "k", *(f"{name}_{('mean', 'sd')[i]}" for name, i in columns), "n_frames"]
    _write_csv(path, header, rows)
