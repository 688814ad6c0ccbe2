"""Synthetic LiDAR scenes: a simulated 64-beam scanner over analytic
surfaces, giving desk-scale frames with exact beam indices.

The sinusoid's rays march to the surface and bisect; flat ground (plane,
and two_plane's ground) is intersected directly, with the bytes that the
march would give."""

from __future__ import annotations

import dataclasses

import numpy as np

from .ingest import ELEV_MAX_DEG, ELEV_MIN_DEG, NUM_BEAMS, PointCloud

SCENE_KINDS = ("plane", "sinusoid", "two_plane")
EXTENT = 40.0  # max range in meters
GROUND_Z = -1.7
AMPLITUDE = 0.5  # sinusoid amplitude
WAVELENGTH = 8.0  # sinusoid wavelength
WALL_X = 15.0  # two_plane: vertical wall position


@dataclasses.dataclass(frozen=True)
class SceneSpec:
    kind: str = "sinusoid"
    point_count: int = 2048
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in SCENE_KINDS:
            raise ValueError(f"unknown scene kind {self.kind!r}")
        if self.point_count < 100:
            raise ValueError("point_count must be >= 100")
        if not 0 <= self.noise_sigma < float("inf"):  # NaN fails too
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


def _surface_z(spec: SceneSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if spec.kind == "sinusoid":
        w = 2 * np.pi / WAVELENGTH
        return GROUND_Z + AMPLITUDE * (np.sin(w * x) + 0.5 * np.cos(w * y))
    # plane, and two_plane's ground: its wall at x = WALL_X is handled in the caster
    return np.full_like(x, GROUND_Z)


def synthesize_scene(spec: SceneSpec, seed: int) -> PointCloud:
    """Cast one ray per (HDL-64E beam elevation, azimuth) from the origin and
    intersect the scene surface; beam indices are exact by construction.
    Rays that miss (upward beams, out-of-range hits) are skipped. ``seed``
    draws the z noise.

    All rays are cast at once; points come out beam-major, in azimuth order
    within each beam. The sinusoid is marched; flat ground is intersected
    directly, to the march's bytes (see ``_ground_t``)."""
    azimuth_count = int(np.ceil(spec.point_count / NUM_BEAMS))
    elev = np.radians(ELEV_MIN_DEG + (np.arange(NUM_BEAMS) + 0.5) / NUM_BEAMS * (ELEV_MAX_DEG - ELEV_MIN_DEG))
    azim = (np.arange(azimuth_count) + 0.5) / azimuth_count * 2 * np.pi - np.pi
    rng = np.random.default_rng(seed)

    c = np.cos(elev)[:, None]
    dx = (c * np.cos(azim)).ravel()
    dy = (c * np.sin(azim)).ravel()
    dz = np.repeat(np.sin(elev), azimuth_count)
    beam = np.repeat(np.arange(NUM_BEAMS, dtype=np.int64), azimuth_count)

    t = _ground_t(spec, dx, dy, dz)  # NaN where the ray misses the ground
    hit = ~np.isnan(t)
    if spec.kind == "two_plane":
        # the wall at x = WALL_X, any z above ground, unless the ground comes first
        ray = np.flatnonzero(dx > 1e-9)
        t_wall = WALL_X / dx[ray]
        ray_wall = (t_wall * dz[ray] >= GROUND_Z) & ~(t[ray] < t_wall)
        ray, t_wall = ray[ray_wall], t_wall[ray_wall]
        t[ray] = t_wall
        hit[ray] = np.hypot(t_wall * dx[ray], t_wall * dy[ray]) <= EXTENT
    t, dx, dy, dz = t[hit], dx[hit], dy[hit], dz[hit]
    z = t * dz
    if spec.noise_sigma > 0:
        z = z + rng.normal(0.0, spec.noise_sigma, z.size)
    return PointCloud(
        xyz=np.column_stack([t * dx, t * dy, z]),
        reflectance=np.full(z.size, 0.5),
        beam=beam[hit],
    )


def _ground_t(spec: SceneSpec, dx: np.ndarray, dy: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Per ray, the first ray-surface intersection, or NaN for a miss, where
    g(t) = t dz - surface(t dx, t dy) changes sign on a grid of 256 steps
    out to the range t_max: march to the first grid point with g <= 0, then
    bisect its bracket 60 times and return the midpoint.

    Only the sinusoid marches. Its live rays march together, one step per
    pass, and memory stays O(rays). Each ray advances by t = t + step, so
    its t values round exactly as in a one-ray march; the rays that crossed
    are then bisected together in 60 lock-step rounds.

    Flat ground (plane, and two_plane's ground) is solved directly, to the
    march's bytes. There g(t) = t dz - GROUND_Z never increases with t in
    floating point, as both roundings are monotone, so there is a first
    float hi with g(hi) <= 0, and every bisection keeps g(lo) > 0 >= g(hi).
    The bracket is at most t_max / 256 wide, and 60 halvings shrink it to
    the adjacent pair lo < hi whenever t_max < 2**16 hi; for the scanner's
    beams at EXTENT = 40 m, t_max / hi stays below 11. So the march returns
    0.5 * (lo + hi) of that pair, and it hits if and only if a grid point
    t_k <= t_max has t_k >= hi."""

    def g(ray: np.ndarray, t: np.ndarray) -> np.ndarray:
        return t * dz[ray] - _surface_z(spec, t * dx[ray], t * dy[ray])

    t_hit = np.full(dz.shape, np.nan)
    ray = np.flatnonzero(dz < -1e-9)  # g(0) > 0: the origin is above every surface
    planar = np.hypot(dx[ray], dy[ray])
    with np.errstate(divide="ignore"):
        t_max = np.where(planar > 1e-12, EXTENT / planar, -GROUND_Z / -dz[ray] * 2)
    step = t_max / 256
    if spec.kind == "sinusoid":
        ray, lo, hi = _march(g, ray, t_max, step)
    else:
        ray, lo, hi = _flat_bracket(g, ray, dz, t_max, step)
    t_hit[ray] = 0.5 * (lo + hi)
    return t_hit


def _march(g, ray: np.ndarray, t_max: np.ndarray, step: np.ndarray):
    """(ray, lo, hi) for the rays that cross within range: march to the
    first grid point with g <= 0, then bisect 60 times."""
    lo, t = np.zeros(ray.size), step
    crossed = [(ray[:0], lo[:0], t[:0])]  # (ray, lo, hi) brackets
    while ray.size:
        more = t <= t_max
        ray, lo, t, t_max, step = ray[more], lo[more], t[more], t_max[more], step[more]
        below = g(ray, t) <= 0
        crossed.append((ray[below], lo[below], t[below]))
        more = ~below
        ray, lo, t_max, step = ray[more], t[more], t_max[more], step[more]
        t = lo + step

    ray, lo, hi = (np.concatenate(parts) for parts in zip(*crossed))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        above = g(ray, mid) > 0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return ray, lo, hi


def _flat_bracket(g, ray: np.ndarray, dz: np.ndarray, t_max: np.ndarray, step: np.ndarray):
    """(ray, lo, hi) for the rays that meet flat ground within range: the
    adjacent floats lo < hi with g(lo) > 0 >= g(hi), which the march's
    bisection ends on.

    With q = GROUND_Z / dz exact, g(t) <= 0 for every float t >= q, and
    g(t) > 0 for every float t < q (1 - 2**-53), less than one ulp of q
    below q. So hi is fl(q), the float after it or the float before it:
    one step up where g(fl(q)) > 0, then one step down where g allows."""
    hi = GROUND_Z / dz[ray]
    up = g(ray, hi) > 0
    hi[up] = np.nextafter(hi[up], np.inf)
    lo = np.nextafter(hi, 0)
    down = g(ray, lo) <= 0
    hi[down] = lo[down]
    lo[down] = np.nextafter(lo[down], 0)

    # The march's last grid point t_L <= t_max has t_L + step > t_max, so
    # every hi <= fl(t_max - step) is hit. Nearer the range, add up the
    # grid t_k = t_{k-1} + step as the march does, for those rays only.
    hit = hi <= t_max
    edge = np.flatnonzero(hit & (hi > t_max - step))
    if edge.size:
        t, last = step[edge], np.zeros(edge.size)
        while (within := t <= t_max[edge]).any():
            last[within] = t[within]
            t = t + step[edge]
        hit[edge] = hi[edge] <= last
    return ray[hit], lo[hit], hi[hit]
