import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


def traced_scene(spec: SceneSpec, seed: int):
    """(cloud, peak traced allocation in bytes) of one ``synthesize_scene``."""
    tracemalloc.start()
    try:
        cloud = synthesize_scene(spec, seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return cloud, peak


def test_peak_allocation_stays_linear_in_rays():
    # a [rays, steps] grid for 12000 rays peaks above 100 MB; marching one
    # step at a time holds a few arrays of length rays
    cloud, peak = traced_scene(SceneSpec(kind="two_plane", point_count=12000, noise_sigma=0.45), 1)
    assert len(cloud) > 10000
    assert peak < 8e6, f"peak allocation {peak / 1e6:.1f} MB"


def test_sinusoid_march_peak_allocation_stays_linear_in_rays():
    # flat ground is not marched, so the sinusoid alone keeps the march's
    # O(rays) memory under the same bound
    cloud, peak = traced_scene(SceneSpec(kind="sinusoid", point_count=12000, noise_sigma=0.45), 1)
    assert len(cloud) > 10000
    assert peak < 8e6, f"peak allocation {peak / 1e6:.1f} MB"


def test_flat_ground_is_solved_without_marching(monkeypatch):
    calls = []
    surface_z = synth._surface_z

    def counted(spec, x, y):
        calls.append(x.size)
        return surface_z(spec, x, y)

    monkeypatch.setattr(synth, "_surface_z", counted)

    def evaluations(kind: str, point_count: int) -> int:
        calls.clear()
        synthesize_scene(SceneSpec(kind=kind, point_count=point_count), 0)
        return len(calls)

    flat = {evaluations(kind, n) for kind in ("plane", "two_plane") for n in (100, 1000, 12000)}
    assert len(flat) == 1 and flat.pop() <= 3, "flat ground should not march its 256-step grid"
    assert evaluations("sinusoid", 1000) > 256 + 60, "the sinusoid should march and bisect"


def beam_ground_range(beam: int) -> float:
    """Where beam ``beam``'s rays meet flat ground, in meters from the origin."""
    elev = np.radians(ELEV_MIN_DEG + (beam + 0.5) / NUM_BEAMS * (ELEV_MAX_DEG - ELEV_MIN_DEG))
    return synth.GROUND_Z / np.tan(elev)


EDGE_BEAM = 5


# EXTENT at the beam's ground range puts its hits on the march's last grid
# point t_256, about t_max: whether a ray hits turns on how that sum of 256
# steps rounds, and many of the beam's hits lie within t_max yet past the
# last grid point. At 256/255 of the ground range, its hits lie one step
# inside t_max, where the flat path stops adding up the grid.
@pytest.mark.parametrize("kind", ["plane", "two_plane"])
@pytest.mark.parametrize("grid_steps", [256, 255])
@pytest.mark.parametrize("offset", [0.0, 1e-9, -1e-9])  # at, just inside and just past the grid point
def test_flat_ground_hit_at_the_range_edge_matches_reference(kind, grid_steps, offset, monkeypatch):
    monkeypatch.setattr(synth, "EXTENT", beam_ground_range(EDGE_BEAM) * 256 / grid_steps + offset)
    spec = SceneSpec(kind=kind, point_count=1000)
    assert_same_scene(spec, 0)
    hits = np.count_nonzero(synthesize_scene(spec, 0).beam == EDGE_BEAM)
    azimuth_count = int(np.ceil(spec.point_count / NUM_BEAMS))
    if offset > 0:
        assert hits == azimuth_count
    elif offset < 0 and grid_steps == 256:
        assert hits == 0


@st.composite
def flat_ground_case(draw):
    """(kind, EXTENT, dx, dy, dz): downward unit rays, and an EXTENT that is
    either drawn freely or put at, or one grid step beyond, the first ray's
    ground range. The bisection ends on adjacent floats only while t_max is
    below 2**16 times the hit, so the other rays dip at most 1.5 rad and no
    steeper than keeps t_max below 2**15 hits, or point straight down; the
    scanner's beams dip 24.8 degrees at most."""

    def dips(steepest):
        return st.one_of(st.floats(2e-9, steepest), st.just(np.pi / 2))

    kind = draw(st.sampled_from(["plane", "two_plane"]))
    first = draw(dips(1.5))
    edge = synth.GROUND_Z / -np.tan(first) * draw(st.sampled_from([1.0, 256 / 255]))
    extent = draw(st.one_of(st.floats(0.5, 200.0), st.floats(-1e-6, 1e-6).map(lambda e: edge * (1 + e))))
    steepest = min(1.5, np.arctan(-synth.GROUND_Z * 2**15 / extent))
    dip = np.array([first] + draw(st.lists(dips(steepest), max_size=5)))
    azim = np.array(draw(st.lists(st.floats(-np.pi, np.pi), min_size=dip.size, max_size=dip.size)))
    return kind, extent, np.cos(dip) * np.cos(azim), np.cos(dip) * np.sin(azim), -np.sin(dip)


@settings(max_examples=300, deadline=None)
@given(case=flat_ground_case())
@example(case=("plane", 40.0, np.zeros(1), np.zeros(1), -np.ones(1)))
# GROUND_Z / dz rounds to a float past the first one with g <= 0
@example(case=("plane", 40.0, np.sqrt([1 - 0.4594135732227378**2]), np.zeros(1), np.array([-0.4594135732227378])))
def test_flat_ground_t_equals_the_per_ray_march_bit_for_bit(case):
    kind, extent, dx, dy, dz = case
    spec = SceneSpec(kind=kind)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synth, "EXTENT", extent)
        got = synth._ground_t(spec, dx, dy, dz)
        want = [loop_ground_t(spec, *ray) for ray in zip(dx, dy, dz)]
    for t, w in zip(got, want):
        if w is None:
            assert np.isnan(t)
        else:
            assert t.tobytes() == np.float64(w).tobytes()
