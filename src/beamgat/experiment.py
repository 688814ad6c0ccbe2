"""Experiment harness: wires ingestion, graph construction, training and
metrics into reproducible frame x k x method runs with CSV outputs."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import os

import numpy as np

from . import baselines, graph as graph_mod, ingest, metrics, synth, trainer
from .model import ModelConfig
from .trainer import TrainConfig

__all__ = ["ExperimentConfig", "emit_xz_projection", "run_experiment"]

LEARNED_METHODS = ("superior_gat", "gat_baseline", "simple_gcn")
ALL_METHODS = ("linear", "nn") + LEARNED_METHODS


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    input_dir: str | None = None  # directory of KITTI .bin frames
    synthetic: str | None = "sinusoid"  # scene kind when no input_dir
    frame_limit: int = 1
    sample_target: int = 50000
    dropout_nth: int = 4
    dropout_offset: int = 0
    k_list: tuple[int, ...] = (10,)
    methods: tuple[str, ...] = ALL_METHODS
    model: ModelConfig = ModelConfig()
    train: TrainConfig = TrainConfig()
    scene: synth.SceneSpec = synth.SceneSpec()
    seed: int = 0
    out_dir: str = "runs"
    workers: int = 1
    timing: bool = True  # False zeroes time columns so CSVs are byte-stable

    def __post_init__(self):
        if not self.methods:
            raise ValueError("at least one method required")
        if not self.k_list:
            raise ValueError("at least one k required")
        for m in self.methods:
            if m not in ALL_METHODS:
                raise ValueError(f"unknown method {m!r}")

    @classmethod
    def from_dict(cls, fields: dict) -> "ExperimentConfig":
        """Build from JSON-style field values. ``model``, ``train`` and
        ``scene`` are dicts of their own fields; ``train.seed`` defaults to
        ``seed``. Fields not given keep their defaults."""
        fields = dict(fields)
        fields["train"] = {"seed": fields.get("seed", 0), **fields.get("train", {})}
        for name, kind in (("model", ModelConfig), ("train", TrainConfig), ("scene", synth.SceneSpec)):
            fields[name] = _build(kind, fields.get(name, {}), f"{name}.")
        for name in ("k_list", "methods"):
            if name in fields:
                fields[name] = tuple(fields[name])
        return _build(cls, fields, "")


def _build(kind, fields: dict, prefix: str):
    unknown = sorted(set(fields) - {f.name for f in dataclasses.fields(kind)})
    if unknown:
        raise ValueError(f"unknown config field(s): {', '.join(prefix + u for u in unknown)}")
    return kind(**fields)


def _build_frame(cfg: ExperimentConfig, frame_id: int, path: str | None) -> tuple[str, ingest.SparseFrame]:
    if path is not None:
        cloud = ingest.read_kitti_bin(path)
        cloud = ingest.estimate_beams(cloud)
        tag = os.path.splitext(os.path.basename(path))[0]
    else:
        spec = dataclasses.replace(cfg.scene, kind=cfg.synthetic, seed=cfg.seed + frame_id)
        cloud = synth.synthesize_scene(spec)
        tag = f"{cfg.synthetic}{frame_id}"
    cloud = ingest.stratified_sample(cloud, cfg.sample_target, seed=cfg.seed + frame_id)
    pattern = ingest.EveryNth(cfg.dropout_nth, cfg.dropout_offset)
    return tag, ingest.apply_beam_dropout(cloud, pattern)


def _evaluate(
    cfg: ExperimentConfig, tag: str, frame: ingest.SparseFrame, k: int, method: str
) -> tuple[metrics.EvalReport, np.ndarray]:
    dropped = np.flatnonzero(frame.dropped_mask)
    truth = frame.cloud.xyz[dropped].copy()
    truth[:, 2] = frame.z_truth[dropped]

    train_s = 0.0
    if method == "linear":
        import time

        t0 = time.perf_counter()
        z_hat = baselines.linear_interp(frame)
        infer_s = time.perf_counter() - t0
        recon = truth.copy()
        recon[:, 2] = z_hat
    elif method == "nn":
        import time

        t0 = time.perf_counter()
        recon = baselines.nearest_neighbor_sub(frame)
        infer_s = time.perf_counter() - t0
        z_hat = recon[:, 2]
    else:
        g = graph_mod.build_knn_graph(frame, k)
        model_cfg = cfg.model.with_(architecture=method)
        result = trainer.train_frame(frame, g, model_cfg, cfg.train)
        train_s = result.train_time_s
        z_hat, infer_s = trainer.predict_dropped(frame, g, result.params, model_cfg)
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
    cfg, frame_id, path = args
    tag, frame = _build_frame(cfg, frame_id, path)
    reports = []
    for k in cfg.k_list:
        for method in cfg.methods:
            report, _ = _evaluate(cfg, tag, frame, k, method)
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
        )[: cfg.frame_limit]
        jobs = [(cfg, i, p) for i, p in enumerate(paths)]
    else:
        jobs = [(cfg, i, None) for i in range(cfg.frame_limit)]

    if cfg.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            per_frame = list(pool.map(_run_one_frame, jobs))
    else:
        per_frame = []
        for job in jobs:
            try:
                per_frame.append(_run_one_frame(job))
            except (OSError, ingest.TruncatedRecordError) as exc:
                print(f"warning: skipping frame {job[2]}: {exc}")

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


def emit_xz_projection(
    frame: ingest.SparseFrame, z_hat: np.ndarray, path: str, stride: int = 15
) -> None:
    """X-Z profile CSV for external plotting: all observed points plus every
    stride-th dropped point with its prediction."""
    dropped = np.flatnonzero(frame.dropped_mask)
    observed = np.flatnonzero(frame.observed_mask)
    with open(path, "w") as fh:
        fh.write("x,z_truth,z_pred,dropped\n")
        for i in observed:
            x, zt = frame.cloud.xyz[i, 0], frame.z_truth[i]
            fh.write(f"{x:.9g},{zt:.9g},{zt:.9g},0\n")
        for row, i in enumerate(dropped):
            if row % stride != 0:
                continue
            x, zt = frame.cloud.xyz[i, 0], frame.z_truth[i]
            fh.write(f"{x:.9g},{zt:.9g},{z_hat[row]:.9g},1\n")
