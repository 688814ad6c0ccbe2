"""Each demo runs to completion as a script."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_demo(name: str) -> None:
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", ["01_autodiff_walkthrough.py", "02_knn_graph_tour.py"])
def test_demo_runs(name):
    run_demo(name)


@pytest.mark.slow
def test_synthetic_benchmark_demo_runs():
    run_demo("03_synthetic_benchmark.py")
