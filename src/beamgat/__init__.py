"""Reconstruction of missing LiDAR elevation under structured beam dropout
using a single-layer gated graph-attention model, with classical and
graph-network baselines and the matching evaluation metrics."""

from .graph import Graph, build_features, build_knn_graph
from .ingest import (
    PointCloud,
    SparseFrame,
    apply_beam_dropout,
    estimate_beams,
    read_kitti_bin,
    stratified_sample,
)
from .metrics import EvalReport, aggregate, chamfer, rmse_xyz, rmse_z
from .model import ModelConfig, init_params
from .synth import SceneSpec, synthesize_scene
from .trainer import TrainConfig, predict_dropped, train_frame

__all__ = [
    "EvalReport",
    "Graph",
    "ModelConfig",
    "PointCloud",
    "SceneSpec",
    "SparseFrame",
    "TrainConfig",
    "aggregate",
    "apply_beam_dropout",
    "build_features",
    "build_knn_graph",
    "chamfer",
    "estimate_beams",
    "init_params",
    "predict_dropped",
    "read_kitti_bin",
    "rmse_xyz",
    "rmse_z",
    "stratified_sample",
    "synthesize_scene",
    "train_frame",
]
