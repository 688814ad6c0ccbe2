"""The benchmark (``perfbench/run.py``) runs each workload through the
command line with the argv and ``--config`` file that ``perfbench/inputs.py``
writes; a change to the flags or config fields must keep accepting them and
keep their meaning."""

import dataclasses
import importlib.util
import os
import sys

import pytest

from beamgat import cli
from beamgat.synth import SceneSpec
from beamgat.trainer import TrainConfig

INPUTS_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "inputs.py")


def load_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


inputs = load_inputs()


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_workload_argv_is_accepted(name, tmp_path):
    w = inputs.WORKLOADS[name]
    argv = inputs.prepare(w, 3, str(tmp_path))
    cfg = cli.config_from_args(cli.build_parser().parse_args(argv))
    scene = {**dataclasses.asdict(SceneSpec()), **w.config.get("scene", {})}
    train = {**dataclasses.asdict(TrainConfig()), **w.config.get("train", {})}
    assert (cfg.train.epochs, cfg.seed) == (w.epochs, 3)
    assert (cfg.scene.point_count, cfg.scene.noise_sigma) == (scene["point_count"], scene["noise_sigma"])
    assert (cfg.train.learning_rate, cfg.train.patience) == (train["learning_rate"], train["patience"])
    if w.synthetic is not None:
        assert cfg.input_dir is None and cfg.scene.kind == w.synthetic
