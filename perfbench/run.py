"""Benchmark driver: runs one workload's frames, each in a fresh process,
checks every output and prints the metrics named in BENCHMARK.json.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Frames run one at a time (a closed loop, ``--workers 1``) until S seconds
have passed and at least MIN_FRAMES have been attempted. With ``--trace 0``
the last stdout line reports the end-to-end metrics (medians over the
frames); with ``--trace 1`` frames alternate untraced/traced and it reports
the per-layer metrics of the traced frames. Details: perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import outputs
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
MIN_FRAMES = {0: 3, 1: 4}
SETUP_PROBES = 5  # extra processes that only set up, so setup_s is a median of 8 or more
LAST_START_S = 150  # no frame starts if the longest one so far would run past this
FRAME_LIMIT_S = 170
SELF_SUM_TOLERANCE_S = 1e-3


class FrameFailure(Exception):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def limit_blas_threads() -> None:
    """At most one BLAS thread per usable core, for this process and the
    frames it starts; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 0 < int(value) <= nproc():
            os.environ[var] = str(nproc())


def blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS reports (Linux only)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": nproc(),
        "git_commit": git_commit(),
        "loadavg_before": os.getloadavg(),
    }


def spawn(mode: str, argv: list[str], out: str, timeout: float) -> dict:
    """Run ``frame.py`` in ``mode`` (setup, 0 or 1) with its files under
    ``out``; return the result it wrote, or raise FrameFailure."""
    os.makedirs(out)
    result_path = os.path.join(out, "result.json")
    with open(os.path.join(out, "log.txt"), "w") as log:
        spawn_t = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "frame.py"), repr(spawn_t), result_path, mode,
               "--", *argv, "--out", out]
        try:
            done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise FrameFailure(f"timed out after {timeout:.0f} s") from None
    if done.returncode != 0:
        raise FrameFailure(f"exit code {done.returncode}, see {out}/log.txt")
    try:
        with open(result_path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise FrameFailure(f"result: {type(exc).__name__}: {exc}") from None


def run_frame(argv: list[str], out: str, trace: bool, methods: tuple[str, ...], k: int,
              timeout: float):
    """One checked frame; returns (result, reports.csv text, rmse_z per
    method) or raises FrameFailure."""
    result = spawn("1" if trace else "0", argv, out, timeout)
    try:
        with open(os.path.join(out, "reports.csv")) as fh:
            reports = fh.read()
        with open(os.path.join(out, "summary.csv")) as fh:
            summary = fh.read()
        rmse = outputs.check_reports(reports, methods, k)
        outputs.check_summary(summary, methods)
    except (OSError, ValueError) as exc:
        raise FrameFailure(f"{type(exc).__name__}: {exc}") from None
    return result, reports, rmse


def main() -> int:
    t_origin = time.monotonic()
    limit_blas_threads()
    import inputs  # imports numpy, so only after the thread cap

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "beamgat", "__init__.py")):
        print(f"error: no beamgat sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from beamgat.experiment import ALL_METHODS

    w = inputs.WORKLOADS[args.workload]
    run_dir = os.path.join(HERE, "runs", w.name)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    env = environment()
    argv = inputs.prepare(w, args.seed, run_dir)

    trace = args.trace == 1
    deadline = time.monotonic() + args.seconds
    setups = []
    for i in range(0 if trace else SETUP_PROBES):
        try:
            setups.append(spawn("setup", argv, os.path.join(run_dir, f"setup{i}"), 20)["setup_s"])
        except FrameFailure as exc:
            print(f"setup probe {i}: FAILED: {exc}", flush=True)
    frames, failures, reference, rmse_z, durations = [], [], None, {}, []
    attempts = 0
    while True:
        now = time.monotonic()
        expected = statistics.median(durations) if durations else 0.0
        if attempts >= MIN_FRAMES[args.trace] and now + expected > deadline:
            break
        if durations and now + max(durations) > t_origin + LAST_START_S:
            break
        traced = trace and attempts % 2 == 1
        out = os.path.join(run_dir, f"frame{attempts}")
        attempts += 1
        try:
            result, reports, rmse = run_frame(argv, out, traced, w.methods, inputs.K,
                                              timeout=t_origin + FRAME_LIMIT_S - now)
            if reference is None:
                reference, rmse_z = reports, rmse
            elif reports != reference:
                raise FrameFailure("reports.csv differs from the first frame of this run")
            if traced:
                self_sum = sum(spans.self_times(result["spans"]))
                if abs(self_sum - result["frame_s"]) > SELF_SUM_TOLERANCE_S:
                    raise FrameFailure(f"span self times sum to {self_sum:.6f} s, "
                                       f"traced frame_s is {result['frame_s']:.6f} s")
        except FrameFailure as exc:
            failures.append(str(exc))
            print(f"frame {attempts - 1}: FAILED: {exc}", flush=True)
        else:
            result["traced"] = traced
            frames.append(result)
            print(f"frame {attempts - 1}: traced={int(traced)} setup_s={result['setup_s']:.4f} "
                  f"frame_s={result['frame_s']:.4f} cpu_s={result['cpu_s']:.4f} "
                  f"peak_rss_mb={result['peak_rss_mb']:.1f}", flush=True)
        durations.append(time.monotonic() - now)
    shutil.rmtree(os.path.join(run_dir, "scan"), ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()

    cells = len(w.methods)
    plain = [f for f in frames if not f["traced"]]
    traced_frames = [f for f in frames if f["traced"]]
    metrics = {}
    if plain and (traced_frames or not trace):
        def median(key, among=plain):
            return statistics.median(f[key] for f in among)

        if trace:
            layers = [spans.layer_metrics(f["spans"], f["counters"]) for f in traced_frames]
            values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
            values.update({f"rmse_z.{m}": rmse_z.get(m, 0.0) for m in ALL_METHODS})
            values["trace.frame_s"] = median("frame_s", traced_frames)
            values["trace.overhead_s"] = values["trace.frame_s"] - median("frame_s")
            wanted = bench["per_layer"]
        else:
            values = {key: median(key) for key in ("frame_s", "cpu_s", "peak_rss_mb")}
            values["setup_s"] = statistics.median(setups + [f["setup_s"] for f in plain])
            wanted = bench["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": w.name, "seed": args.seed, "trace": args.trace, "environment": env,
        "frames": [{k: v for k, v in f.items() if k not in ("spans", "counters")} for f in frames],
        "setup_probes_s": setups,
        "failures": failures,
        "rmse_z": rmse_z,
        "cells_attempted": attempts * cells,
        "cell_fail_ratio": len(failures) / attempts,
        "metrics": metrics,
    }
    with open(os.path.join(run_dir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print("environment: " + json.dumps(env))
    print("rmse_z: " + json.dumps(rmse_z))
    print(f"cell_fail_ratio: {record['cell_fail_ratio']:.4f} of {attempts * cells} cells")
    print(json.dumps({"correct": not failures and bool(metrics), "attempted": attempts * cells,
                      "failed": len(failures) * cells, "metrics": metrics}), flush=True)
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
