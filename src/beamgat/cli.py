"""Command-line entry point for the experiment harness."""

from __future__ import annotations

import argparse
import json
import sys

from .experiment import ALL_METHODS, ExperimentConfig, run_experiment
from .synth import SCENE_KINDS


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _names(text: str) -> list[str]:
    return text.split(",")


def build_parser() -> argparse.ArgumentParser:
    """Every flag defaults to None ("not passed"), so only the flags a user
    passes override the ``--config`` file; each ``dest`` is the
    ExperimentConfig field it sets (``epochs`` sets ``train.epochs``)."""
    p = argparse.ArgumentParser(
        prog="beamgat",
        description="Reconstruct dropped LiDAR beams and benchmark methods.",
    )
    p.add_argument("--input", dest="input_dir", metavar="DIR", help="directory of KITTI velodyne .bin frames")
    p.add_argument("--synthetic", choices=SCENE_KINDS,
                   help="synthetic scene kind when no --input (default: sinusoid)")
    p.add_argument("--k", dest="k_list", metavar="K", type=_ints,
                   help="comma-separated neighbor counts (default: 10)")
    p.add_argument("--methods", type=_names,
                   help=f"comma-separated subset of {','.join(ALL_METHODS)} (default: all)")
    p.add_argument("--frames", dest="frame_limit", metavar="N", type=int, help="frame limit (default: 1)")
    p.add_argument("--seed", type=int, help="experiment and training seed (default: 0)")
    p.add_argument("--out", dest="out_dir", metavar="DIR", help="output directory (default: runs)")
    p.add_argument("--epochs", type=int, help="training epochs (default: 200)")
    p.add_argument("--sample-target", type=int, help="points kept per frame (default: 50000)")
    p.add_argument("--dropout-nth", type=int, help="drop every n-th beam (default: 4)")
    p.add_argument("--workers", type=int, help="frame worker processes (default: 1)")
    p.add_argument("--no-timing", dest="timing", action="store_false", default=None,
                   help="zero the time columns for byte-stable CSVs")
    p.add_argument("--config", help="JSON file of ExperimentConfig fields; flags override its entries")
    return p


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    passed = {name: value for name, value in vars(args).items() if value is not None}
    fields: dict = {}
    config = passed.pop("config", None)
    if config:
        with open(config) as fh:
            fields = json.load(fh)
    train = dict(fields.get("train", {}))
    if "epochs" in passed:
        train["epochs"] = passed.pop("epochs")
    if "seed" in passed:
        train["seed"] = passed["seed"]
    return ExperimentConfig.from_dict({**fields, **passed, "train": train})


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        reports = run_experiment(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(reports)} report rows to {cfg.out_dir}/reports.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
