"""Benchmark all reconstruction methods on one synthetic frame.

Trains the gated attention model and both learned baselines on the frame
itself, supervised only by re-masked observed points (the default
``TrainConfig``; dropped ground truth never enters the loss), runs the
interpolation baselines, and prints a small results table.  Takes a few
minutes.  Run:

    python3 demos/03_synthetic_benchmark.py
"""

import tempfile

from beamgat import synth
from beamgat.experiment import ExperimentConfig, run_experiment
from beamgat.trainer import TrainConfig


def main():
    with tempfile.TemporaryDirectory() as out:
        cfg = ExperimentConfig(
            scene=synth.SceneSpec(kind="sinusoid", point_count=1500, noise_sigma=0.25),
            sample_target=2000,
            train=TrainConfig(epochs=150, learning_rate=1e-2),
            seed=0,
            out_dir=out,
        )
        reports = run_experiment(cfg)

    print(f"{'method':>14}  {'rmse_z':>8}  {'rmse_xyz':>8}  {'chamfer':>8}  {'train_s':>7}")
    for r in sorted(reports, key=lambda r: r.rmse_z):
        print(f"{r.method:>14}  {r.rmse_z:8.4f}  {r.rmse_xyz:8.4f}  "
              f"{r.chamfer:8.4f}  {r.train_s:7.1f}")


if __name__ == "__main__":
    main()
