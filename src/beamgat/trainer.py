"""Per-frame optimization with masked self-supervision and Adam.

Training never sees the ground-truth z of dropped points: the loss is
computed on a rotating, beam-stratified subset of OBSERVED nodes whose z
feature is zeroed for that epoch, mirroring the test condition.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import tensor_ad as T
from .graph import Graph
from .ingest import SparseFrame, choose_per_beam
from .model import bind_params, forward, init_params
from .tensor_ad import Tape, Tensor

__all__ = ["AdamState", "TrainConfig", "TrainResult", "adam_step", "predict_dropped", "train_frame"]

MASK_FRACTION = 0.25  # share of each beam's observed nodes supervised per epoch
BETA1 = 0.9  # Adam's first-moment decay
BETA2 = 0.999  # Adam's second-moment decay
EPS = 1e-8  # Adam's denominator floor


@dataclasses.dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    learning_rate: float = 1e-3
    patience: int = 30

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0 < self.learning_rate < float("inf"):  # NaN fails too
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")


@dataclasses.dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def zeros_like(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


@dataclasses.dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    loss_history: list[float]


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """Bias-corrected Adam update, in place."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name]
        state.m[name] = BETA1 * state.m[name] + (1 - BETA1) * g
        state.v[name] = BETA2 * state.v[name] + (1 - BETA2) * g * g
        m_hat = state.m[name] / (1 - BETA1**t)
        v_hat = state.v[name] / (1 - BETA2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + EPS)


def _stratified_subset(beams: np.ndarray, candidates: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Pick ~MASK_FRACTION of the (ascending) candidate nodes, at least one
    of each beam's; returned in ascending order."""

    def quota(counts: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(np.round(MASK_FRACTION * counts).astype(np.int64), 1), counts)

    return candidates[choose_per_beam(beams[candidates], quota, rng)]


def train_frame(
    frame: SparseFrame,
    graph: Graph,
    architecture: str,
    train_cfg: TrainConfig,
    seed: int,
) -> TrainResult:
    """Fit one ``architecture`` model to one frame; ``seed`` drives the
    initial weights and each epoch's supervised subset. Returns the
    parameters that achieved the lowest training loss and the loss
    history."""
    observed = np.flatnonzero(frame.observed_mask)
    params = init_params(architecture, seed)
    state = AdamState.zeros_like(params)
    base_features = graph.features

    best_loss = np.inf
    best_params = {k: p.copy() for k, p in params.items()}
    since_best = 0
    history: list[float] = []
    for epoch in range(train_cfg.epochs):
        rng = np.random.default_rng([seed, epoch])
        sup = _stratified_subset(frame.cloud.beam, observed, rng)
        assert not frame.dropped_mask[sup].any(), "supervision leaked into dropped set"
        feats = base_features.copy()
        feats[sup, 2] = 0.0

        tape = Tape()
        bound = bind_params(params, tape)
        z_hat = forward(graph, Tensor(feats), bound, architecture, rows=sup)
        loss = T.mse_loss(z_hat, frame.z_truth[sup])
        loss_val = float(loss.data)  # mse_loss raised NonFiniteError if it is not finite
        history.append(loss_val)
        if loss_val < best_loss:
            best_loss = loss_val
            best_params = {k: p.copy() for k, p in params.items()}
            since_best = 0
        else:
            since_best += 1
            if since_best >= train_cfg.patience:
                break
        tape.backward(loss)
        grads = {k: bound[k].grad for k in params}
        adam_step(params, grads, state, train_cfg.learning_rate)
    return TrainResult(params=best_params, loss_history=history)


def predict_dropped(
    frame: SparseFrame,
    graph: Graph,
    params: dict[str, np.ndarray],
    architecture: str,
) -> np.ndarray:
    """Single forward with the frame's true masking, evaluated at the dropped
    nodes only; returns their z estimates."""
    bound = bind_params(params, None)
    dropped = np.flatnonzero(frame.dropped_mask)
    z_hat = forward(graph, Tensor(graph.features), bound, architecture, rows=dropped)
    return z_hat.data

