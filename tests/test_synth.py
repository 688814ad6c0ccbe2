import tracemalloc

import numpy as np
import pytest

from beamgat import synth
from beamgat.ingest import ELEV_MAX_DEG, ELEV_MIN_DEG, NUM_BEAMS
from beamgat.synth import SceneSpec, synthesize_scene


def loop_ground_t(spec: SceneSpec, dx: float, dy: float, dz: float) -> float | None:
    """Per-ray reference for ``synth._ground_t``: march one ray to a sign
    change of g(t) = t dz - surface(t dx, t dy), then bisect."""
    if dz >= -1e-9:
        return None

    def g(t: float) -> float:
        return t * dz - synth._surface_z(spec, np.array(t * dx), np.array(t * dy)).item()

    planar = np.hypot(dx, dy)
    t_max = synth.EXTENT / planar if planar > 1e-12 else -synth.GROUND_Z / -dz * 2
    step = t_max / 256
    lo, g_lo = 0.0, g(0.0)
    if g_lo <= 0:
        return None
    t = step
    while t <= t_max:
        g_t = g(t)
        if g_t <= 0:
            hi = t
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if g(mid) > 0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
        lo, g_lo = t, g_t
        t += step
    return None


def loop_cast(spec: SceneSpec, dx: float, dy: float, dz: float) -> tuple[float, float, float] | None:
    """Per-ray reference for the caster: wall first for two_plane, then ground."""
    if spec.kind == "two_plane" and dx > 1e-9:
        t_wall = synth.WALL_X / dx
        zw = t_wall * dz
        if zw >= synth.GROUND_Z:
            t_ground = loop_ground_t(spec, dx, dy, dz)
            if t_ground is not None and t_ground < t_wall:
                return t_ground * dx, t_ground * dy, t_ground * dz
            x, y, z = t_wall * dx, t_wall * dy, zw
            if np.hypot(x, y) <= synth.EXTENT:
                return x, y, z
            return None
    t = loop_ground_t(spec, dx, dy, dz)
    if t is None:
        return None
    return t * dx, t * dy, t * dz


def loop_synthesize_scene(spec: SceneSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-ray reference for ``synthesize_scene``: (xyz, beam), one ray at a
    time in beam-major order, one noise draw per hit."""
    azimuth_count = int(np.ceil(spec.point_count / NUM_BEAMS))
    elev = np.radians(ELEV_MIN_DEG + (np.arange(NUM_BEAMS) + 0.5) / NUM_BEAMS * (ELEV_MAX_DEG - ELEV_MIN_DEG))
    azim = (np.arange(azimuth_count) + 0.5) / azimuth_count * 2 * np.pi - np.pi
    rng = np.random.default_rng(seed)
    pts, beams = [], []
    for b, phi in enumerate(elev):
        dz = np.sin(phi)
        c = np.cos(phi)
        for theta in azim:
            hit = loop_cast(spec, c * np.cos(theta), c * np.sin(theta), dz)
            if hit is None:
                continue
            x, y, z = hit
            if spec.noise_sigma > 0:
                z += rng.normal(0.0, spec.noise_sigma)
            pts.append((x, y, z))
            beams.append(b)
    return np.array(pts, dtype=np.float64), np.array(beams, dtype=np.int64)


def assert_same_scene(spec: SceneSpec, seed: int) -> None:
    cloud = synthesize_scene(spec, seed)
    xyz, beam = loop_synthesize_scene(spec, seed)
    assert len(cloud) == len(xyz)
    assert cloud.xyz.tobytes() == xyz.tobytes()
    assert cloud.beam.tobytes() == beam.tobytes()


@pytest.mark.parametrize("kind", synth.SCENE_KINDS)
@pytest.mark.parametrize("noise_sigma", [0.0, 0.3])
@pytest.mark.parametrize("seed, point_count", [(0, 420), (5, 1000)])
def test_scene_bytes_match_per_ray_reference(kind, noise_sigma, seed, point_count):
    assert_same_scene(SceneSpec(kind=kind, point_count=point_count, noise_sigma=noise_sigma), seed)


def test_noisy_two_plane_4000_rays_matches_reference():
    assert_same_scene(SceneSpec(kind="two_plane", point_count=4000, noise_sigma=0.45), 1)


def test_wall_beyond_extent_is_dropped():
    # an upward beam meets only the wall, WALL_X / cos(azimuth) out in the
    # plane; at wide azimuths that lies beyond EXTENT and the ray is dropped
    spec = SceneSpec(kind="two_plane", point_count=1000)
    assert_same_scene(spec, 2)
    cloud = synthesize_scene(spec, 2)
    assert np.hypot(cloud.xyz[:, 0], cloud.xyz[:, 1]).max() <= synth.EXTENT + 1e-9
    azimuth_count = int(np.ceil(spec.point_count / NUM_BEAMS))
    azim = (np.arange(azimuth_count) + 0.5) / azimuth_count * 2 * np.pi - np.pi
    facing = azim[np.cos(azim) > 1e-9]
    within = synth.WALL_X / np.cos(facing) <= synth.EXTENT
    assert within.any() and not within.all()
    up = cloud.xyz[:, 2] > 0
    up_beams, hits = np.unique(cloud.beam[up], return_counts=True)
    assert up_beams.size > 0
    np.testing.assert_allclose(cloud.xyz[up, 0], synth.WALL_X)
    assert np.all(hits == within.sum())


def test_near_wall_is_hit():
    spec = SceneSpec(kind="two_plane", point_count=1000)
    assert_same_scene(spec, 2)
    cloud = synthesize_scene(spec, 2)
    wall = np.isclose(cloud.xyz[:, 0], synth.WALL_X) & (cloud.xyz[:, 2] > synth.GROUND_Z + 1e-6)
    assert wall.sum() > 0


def test_peak_allocation_stays_linear_in_rays():
    # a [rays, steps] grid for 12000 rays peaks above 100 MB; marching one
    # step at a time holds a few arrays of length rays
    spec = SceneSpec(kind="two_plane", point_count=12000, noise_sigma=0.45)
    tracemalloc.start()
    try:
        cloud = synthesize_scene(spec, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cloud) > 10000
    assert peak < 8e6, f"peak allocation {peak / 1e6:.1f} MB"
