"""Command-line entry point for the experiment harness."""

from __future__ import annotations

import argparse
import ctypes
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
    passes override the ``--config`` file; each ``dest`` is the config path
    it sets (``--epochs`` sets ``train.epochs``). The help shows each
    default of ``ExperimentConfig``."""
    default = ExperimentConfig()
    p = argparse.ArgumentParser(
        prog="beamgat",
        description="Reconstruct dropped LiDAR beams and benchmark methods.",
    )
    p.add_argument("--input", dest="input_dir", metavar="DIR", help="directory of KITTI velodyne .bin frames")
    p.add_argument("--synthetic", dest="scene.kind", choices=SCENE_KINDS,
                   help=f"synthetic scene kind when no --input (default: {default.scene.kind})")
    p.add_argument("--k", dest="k_list", metavar="K", type=_ints,
                   help=f"comma-separated neighbor counts (default: {','.join(map(str, default.k_list))})")
    p.add_argument("--methods", type=_names,
                   help=f"comma-separated subset of {','.join(ALL_METHODS)} (default: all)")
    p.add_argument("--frames", dest="frame_limit", metavar="N", type=int,
                   help=f"frame limit (default: {default.frame_limit})")
    p.add_argument("--seed", type=int, help=f"experiment and training seed (default: {default.seed})")
    p.add_argument("--out", dest="out_dir", metavar="DIR", help=f"output directory (default: {default.out_dir})")
    p.add_argument("--epochs", dest="train.epochs", metavar="EPOCHS", type=int,
                   help=f"training epochs (default: {default.train.epochs})")
    p.add_argument("--sample-target", type=int, help=f"points kept per frame (default: {default.sample_target})")
    p.add_argument("--dropout-nth", type=int, help=f"drop every n-th beam (default: {default.dropout_nth})")
    p.add_argument("--workers", type=int, help=f"frame worker processes (default: {default.workers})")
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
    return ExperimentConfig.from_dict(fields, passed)


# mallopt(3) parameters, and the values main sets: arrays up to 32 MiB (the
# largest threshold glibc takes on 64-bit) come from the heap, and up to 1 GiB
# of freed heap top stays mapped, so each epoch reuses the last epoch's pages
# instead of faulting in fresh ones
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 1 << 30


def keep_heap_pages() -> None:
    """Set glibc's mmap and trim thresholds for this process and the workers
    it forks; does nothing without glibc. mallopt has no getter, so the
    setting cannot be undone: only ``main``, which owns the process, calls it."""
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except OSError:
        return
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    keep_heap_pages()
    try:
        cfg = config_from_args(args)
        reports = run_experiment(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not reports:
        print("error: every frame was skipped, so no report rows were written", file=sys.stderr)
        return 1
    print(f"wrote {len(reports)} report rows to {cfg.out_dir}/reports.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
