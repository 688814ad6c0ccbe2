"""Checks on the CSVs a benchmark frame writes."""

from __future__ import annotations

import math

REPORTS_HEADER = "frame,method,k,rmse_z,rmse_xyz,chamfer,train_s,infer_s,n_dropped"
SUMMARY_HEADER = ("method,k,rmse_z_mean,rmse_z_sd,rmse_xyz_mean,rmse_xyz_sd,"
                  "chamfer_mean,chamfer_sd,train_s_mean,infer_s_mean,n_frames")


class OutputError(ValueError):
    """A frame's output files are missing, short or wrong."""


def _rows(text: str, header: str, expected: int) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise OutputError("missing or wrong header")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != expected:
        raise OutputError(f"{len(rows)} rows, expected {expected}")
    width = header.count(",") + 1
    for row in rows:
        if len(row) != width:
            raise OutputError(f"row has {len(row)} fields, expected {width}: {row}")
    return rows


def _finite(value: str) -> float:
    try:
        x = float(value)
    except ValueError:
        raise OutputError(f"not a number: {value!r}") from None
    if not math.isfinite(x):
        raise OutputError(f"non-finite value {value!r}")
    return x


def check_reports(text: str, methods: tuple[str, ...], k: int) -> dict[str, float]:
    """Validate a one-frame ``reports.csv``: one row per method at ``k``,
    every value finite, ``n_dropped`` equal and > 0 across rows. Returns
    rmse_z per method."""
    rows = _rows(text, REPORTS_HEADER, len(methods))
    if sorted(r[1] for r in rows) != sorted(methods) or len({r[0] for r in rows}) != 1:
        raise OutputError("rows are not one per (frame, k, method)")
    dropped = set()
    rmse = {}
    for _, method, row_k, *values, n_dropped in rows:
        if _finite(row_k) != k:
            raise OutputError(f"row for k={row_k}, expected {k}")
        rmse_z, *_ = [_finite(v) for v in values]
        rmse[method] = rmse_z
        dropped.add(_finite(n_dropped))
    if len(dropped) != 1 or dropped.pop() <= 0:
        raise OutputError("n_dropped differs across methods or is 0")
    return rmse


def check_summary(text: str, methods: tuple[str, ...]) -> None:
    """Validate ``summary.csv``: one finite row per method."""
    rows = _rows(text, SUMMARY_HEADER, len(methods))
    if sorted(r[0] for r in rows) != sorted(methods):
        raise OutputError("summary rows do not match the methods run")
    for row in rows:
        for v in row[1:]:
            _finite(v)
