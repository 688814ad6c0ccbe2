"""Experiment harness: wires ingestion, graph construction, training and
metrics into reproducible frame x k x method runs with CSV outputs."""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import logging
import os
import time

import numpy as np

from . import baselines, graph as graph_mod, ingest, metrics, synth, trainer
from .model import ARCHITECTURES, ModelConfig
from .trainer import TrainConfig

__all__ = ["ExperimentConfig", "run_experiment"]

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
    model: ModelConfig = ModelConfig()
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
    def from_dict(cls, fields: dict) -> "ExperimentConfig":
        """Build from JSON-style field values. ``model``, ``train`` and
        ``scene`` are dicts of their own fields. Fields not given keep their
        defaults."""
        fields = dict(fields)
        for name, kind in (("model", ModelConfig), ("train", TrainConfig), ("scene", synth.SceneSpec)):
            fields[name] = _build(kind, fields.get(name, {}), f"{name}.")
        for name in ("k_list", "methods"):
            if name in fields:
                fields[name] = tuple(fields[name])
        return _build(cls, fields, "")


def _build(kind, fields: dict, prefix: str):
    unknown = sorted(set(fields) - {f.name for f in dataclasses.fields(kind)})
    if unknown:
        raise ValueError(f"unknown config field(s): {', '.join(prefix + name for name in unknown)}")
    return kind(**fields)


def _build_frame(cfg: ExperimentConfig, frame_id: int, path: str | None) -> tuple[str, ingest.SparseFrame]:
    if path is not None:
        cloud = ingest.read_kitti_bin(path)
        cloud = ingest.estimate_beams(cloud)
        tag = os.path.splitext(os.path.basename(path))[0]
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
) -> tuple[metrics.EvalReport, np.ndarray]:
    """One (frame, k, method) cell. ``graph`` is the frame's kNN graph for
    ``k``, which learned methods need; baselines take None."""
    dropped = np.flatnonzero(frame.dropped_mask)
    truth = frame.cloud.xyz[dropped].copy()
    truth[:, 2] = frame.z_truth[dropped]

    train_s = 0.0
    t0 = time.perf_counter()
    if method == "linear":
        z_hat = baselines.linear_interp(frame)
        infer_s = time.perf_counter() - t0
        recon = truth.copy()
        recon[:, 2] = z_hat
    elif method == "nn":
        recon = baselines.nearest_neighbor_sub(frame)
        infer_s = time.perf_counter() - t0
        z_hat = recon[:, 2]
    else:
        result = trainer.train_frame(frame, graph, method, cfg.model, cfg.train, cfg.seed)
        train_s = result.train_time_s
        z_hat, infer_s = trainer.predict_dropped(frame, graph, result.params, method, cfg.model)
        recon = truth.copy()
        recon[:, 2] = z_hat

    report = metrics.EvalReport(
        frame=tag,
        method=method,
        k=k,
        rmse_z=metrics.rmse_z(z_hat, frame.z_truth[dropped]),
        rmse_xyz=metrics.rmse_xyz(recon, truth),
        chamfer=metrics.chamfer(recon, truth),
        train_time_s=train_s if cfg.timing else 0.0,
        infer_time_s=infer_s if cfg.timing else 0.0,
        n_dropped=int(dropped.size),
    )
    return report, z_hat


def _run_one_frame(args) -> list[metrics.EvalReport]:
    """All cells of one frame; a frame file that cannot be read yields no
    rows (the same for any ``workers``)."""
    cfg, frame_id, path = args
    try:
        tag, frame = _build_frame(cfg, frame_id, path)
    except (OSError, ingest.TruncatedRecordError) as exc:
        log.warning("skipping frame %s: %s", path, exc)
        return []
    learned = any(m in ARCHITECTURES for m in cfg.methods)
    # one kNN query per frame at the largest k; a smaller k's rows are its
    # prefixes, and one graph per (frame, k) is shared by every learned method
    nearest = graph_mod.knn_indices(frame.cloud.xyz[:, :2], max(cfg.k_list)) if learned else None
    reports = []
    for k in cfg.k_list:
        graph = graph_mod.build_knn_graph(frame, k, nearest) if learned else None
        for method in cfg.methods:
            report, _ = _evaluate(cfg, tag, frame, k, method, graph)
            reports.append(report)
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
    # of them have given rows: a frame file that cannot be read takes no slot.
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


def write_reports_csv(reports: list[metrics.EvalReport], path: str) -> None:
    with open(path, "w") as fh:
        fh.write("frame,method,k,rmse_z,rmse_xyz,chamfer,train_s,infer_s,n_dropped\n")
        for r in reports:
            fh.write(
                f"{r.frame},{r.method},{r.k},{r.rmse_z:.9g},{r.rmse_xyz:.9g},"
                f"{r.chamfer:.9g},{r.train_time_s:.9g},{r.infer_time_s:.9g},{r.n_dropped}\n"
            )


def write_summary_csv(reports: list[metrics.EvalReport], path: str) -> None:
    """Mean +/- SD per (method, k) across frames."""
    groups: dict[tuple[str, int], list[metrics.EvalReport]] = {}
    for r in reports:
        groups.setdefault((r.method, r.k), []).append(r)
    with open(path, "w") as fh:
        fh.write(
            "method,k,rmse_z_mean,rmse_z_sd,rmse_xyz_mean,rmse_xyz_sd,"
            "chamfer_mean,chamfer_sd,train_s_mean,infer_s_mean,n_frames\n"
        )
        for (method, k), rs in sorted(groups.items()):
            agg = metrics.aggregate(rs)
            fh.write(
                f"{method},{k},{agg['rmse_z'][0]:.9g},{agg['rmse_z'][1]:.9g},"
                f"{agg['rmse_xyz'][0]:.9g},{agg['rmse_xyz'][1]:.9g},"
                f"{agg['chamfer'][0]:.9g},{agg['chamfer'][1]:.9g},"
                f"{agg['train_s'][0]:.9g},{agg['infer_s'][0]:.9g},{len(rs)}\n"
            )

