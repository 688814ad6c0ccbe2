import numpy as np
import pytest

from beamgat import graph as graph_mod
from beamgat import ingest, model, synth


def finite_diff_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar-valued f at x."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
        it.iternext()
    return g


def set_model_shape(mp: pytest.MonkeyPatch, **shape: int) -> None:
    """Give the model another shape until ``mp`` is undone: ``heads=2`` sets
    ``model.HEADS``, ``head_width=3`` sets ``model.HEAD_WIDTH``, and so on."""
    for name, value in shape.items():
        mp.setattr(model, name.upper(), value)


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.abs(a).max(initial=0), np.abs(b).max(initial=0), 1e-8)
    return float(np.abs(a - b).max(initial=0) / denom)


@pytest.fixture(scope="session")
def small_sine_frame():
    """~400-point sinusoid frame with every-4th-beam dropout."""
    spec = synth.SceneSpec(kind="sinusoid", point_count=420)
    cloud = synth.synthesize_scene(spec, seed=7)
    return ingest.apply_beam_dropout(cloud, nth=4)


@pytest.fixture(scope="session")
def small_sine_graph(small_sine_frame):
    return graph_mod.build_knn_graph(small_sine_frame, k=6)


def random_frame(rng: np.random.Generator, n: int, num_beams: int = 8) -> ingest.SparseFrame:
    """Random cloud with uniformly assigned beams, canonical dropout."""
    xyz = rng.uniform(-10, 10, size=(n, 3))
    cloud = ingest.PointCloud(
        xyz=xyz,
        reflectance=rng.uniform(0, 1, size=n),
        beam=rng.integers(0, num_beams, size=n),
    )
    return ingest.apply_beam_dropout(cloud, nth=4)
