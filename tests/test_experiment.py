import csv
import ctypes
import dataclasses
import json
import os
import re
import tempfile
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from beamgat import baselines, blas, cli, graph as graph_mod, ingest, metrics, synth, trainer
from beamgat.experiment import (
    ALL_METHODS,
    JSON_TYPES,
    ExperimentConfig,
    _run_one_frame,
    run_experiment,
    write_reports_csv,
    write_summary_csv,
)
from beamgat.tensor_ad import NonFiniteError
from beamgat.trainer import TrainConfig

FAST = dict(
    sample_target=400,
    scene=synth.SceneSpec(point_count=500),
    train=TrainConfig(epochs=3),
)


# ---------------------------------------------------------------------------
# synthetic scenes
# ---------------------------------------------------------------------------


def test_plane_scene_sits_at_ground_height():
    spec = synth.SceneSpec(kind="plane", point_count=600)
    cloud = synth.synthesize_scene(spec, seed=0)
    assert cloud.xyz.shape[0] >= 400
    np.testing.assert_allclose(cloud.xyz[:, 2], synth.GROUND_Z, atol=1e-6)


def test_sinusoid_scene_height_stays_within_amplitude():
    spec = synth.SceneSpec(kind="sinusoid", point_count=600)
    cloud = synth.synthesize_scene(spec, seed=1)
    dev = np.abs(cloud.xyz[:, 2] - synth.GROUND_Z)
    # z = ground + amplitude * (sin + 0.5 cos) stays within 1.5 amplitude
    assert dev.max() <= 1.5 * synth.AMPLITUDE + 1e-6


def test_scene_generation_is_deterministic():
    spec = synth.SceneSpec(kind="sinusoid", point_count=500, noise_sigma=0.1)
    a = synth.synthesize_scene(spec, seed=3)
    b = synth.synthesize_scene(spec, seed=3)
    assert np.array_equal(a.xyz, b.xyz)
    assert np.array_equal(a.beam, b.beam)


def test_linear_interp_is_near_exact_on_plane():
    spec = synth.SceneSpec(kind="plane", point_count=800)
    frame = ingest.apply_beam_dropout(synth.synthesize_scene(spec, seed=2), nth=4)
    z_hat = baselines.linear_interp(frame)
    truth = frame.z_truth[np.flatnonzero(frame.dropped_mask)]
    assert metrics.rmse_z(z_hat, truth) < 1e-6


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------


def test_smoke_run_writes_both_csvs(tmp_path):
    cfg = ExperimentConfig(
        methods=("linear", "nn"), out_dir=str(tmp_path / "runs"), **FAST
    )
    reports = run_experiment(cfg)
    assert len(reports) == 2  # 1 frame x 1 k x 2 methods
    report_lines = (tmp_path / "runs" / "reports.csv").read_text().splitlines()
    summary_lines = (tmp_path / "runs" / "summary.csv").read_text().splitlines()
    assert report_lines[0].startswith("frame,method,k,rmse_z")
    assert len(report_lines) == 3
    assert len(summary_lines) == 3


def test_grid_produces_frame_times_k_times_method_rows(tmp_path):
    cfg = ExperimentConfig(
        methods=("linear", "nn"),
        k_list=(5, 10),
        frame_limit=2,
        out_dir=str(tmp_path / "runs"),
        **FAST,
    )
    reports = run_experiment(cfg)
    assert len(reports) == 2 * 2 * 2
    assert {r.frame for r in reports} == {"sinusoid0", "sinusoid1"}


def test_learned_method_smoke_run(tmp_path):
    cfg = ExperimentConfig(
        methods=("superior_gat",), out_dir=str(tmp_path / "runs"), **FAST
    )
    (report,) = run_experiment(cfg)
    assert report.method == "superior_gat"
    assert np.isfinite(report.rmse_z)
    assert report.n_dropped > 0


def count_graph_builds(monkeypatch) -> tuple[list[int], list[int]]:
    """Record the k of every kNN graph the experiment builds, and the k of
    every kNN query it makes."""
    built, queried = [], []
    build, query = graph_mod.build_knn_graph, graph_mod.knn_indices

    def counting_build(frame, k):
        built.append(k)
        return build(frame, k)

    def counting_query(points, k):
        queried.append(k)
        return query(points, k)

    monkeypatch.setattr(graph_mod, "build_knn_graph", counting_build)
    monkeypatch.setattr(graph_mod, "knn_indices", counting_query)
    return built, queried


def test_graph_built_once_per_k_for_all_learned_methods(tmp_path, monkeypatch):
    built, queried = count_graph_builds(monkeypatch)
    cfg = ExperimentConfig(
        methods=("linear", "superior_gat", "gat_baseline", "simple_gcn"),
        k_list=(4, 6),
        frame_limit=2,
        out_dir=str(tmp_path / "runs"),
        **{**FAST, "train": TrainConfig(epochs=1)},
    )
    reports = run_experiment(cfg)
    # one graph, and one kNN query, per (frame, k)
    assert built == [4, 6, 4, 6]
    assert queried == [4, 6, 4, 6]
    assert len(reports) == 2 * 2 * 4
    assert all(np.isfinite(r.rmse_z) for r in reports)


def test_baseline_only_grid_builds_no_graph(tmp_path, monkeypatch):
    built, queried = count_graph_builds(monkeypatch)
    cfg = ExperimentConfig(methods=("linear", "nn"), out_dir=str(tmp_path / "runs"), **FAST)
    run_experiment(cfg)
    assert built == [] and queried == []


def test_frames_run_with_one_blas_thread_and_restore_the_callers_count(tmp_path, monkeypatch):
    api = blas.openblas_threads()
    blas_name = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    if "openblas" in blas_name.lower():  # a failed lookup fails rather than skips
        assert api is not None, f"numpy's {blas_name} was not found"
    if api is None:
        pytest.skip(f"numpy's BLAS is {blas_name}, not OpenBLAS")
    get, set_ = api
    seen = []
    train_frame = trainer.train_frame

    def spy(*args):
        seen.append(get())
        return train_frame(*args)

    monkeypatch.setattr(trainer, "train_frame", spy)
    saved = get()
    set_(2)
    try:
        run_experiment(ExperimentConfig(methods=("simple_gcn", "linear"), out_dir=str(tmp_path / "runs"),
                                        **{**FAST, "train": TrainConfig(epochs=1)}))
        after = get()
    finally:
        set_(saved)
    assert seen == [1]
    assert after == 2


def test_rerun_with_timing_off_is_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        cfg = ExperimentConfig(
            methods=("linear", "nn"),
            out_dir=str(tmp_path / name),
            timing=False,
            **FAST,
        )
        run_experiment(cfg)
        outs.append(
            (tmp_path / name / "reports.csv").read_bytes()
            + (tmp_path / name / "summary.csv").read_bytes()
        )
    assert outs[0] == outs[1]


def test_timing_columns_cover_fit_and_predict(tmp_path, monkeypatch):
    # train_s spans the whole train_frame call and infer_s the prediction
    # step, which for a baseline is its whole run; a baseline has no fit
    spent = {}

    def timed(module, name):
        original = getattr(module, name)

        def spy(*args):
            t0 = time.perf_counter()
            result = original(*args)
            spent[name] = time.perf_counter() - t0
            return result

        monkeypatch.setattr(module, name, spy)

    for module, name in ((trainer, "train_frame"), (trainer, "predict_dropped"),
                         (baselines, "linear_interp"), (baselines, "nearest_neighbor_sub")):
        timed(module, name)
    cfg = ExperimentConfig(methods=("linear", "nn", "superior_gat"), out_dir=str(tmp_path / "runs"), **FAST)
    linear, nn, learned = run_experiment(cfg)
    assert learned.train_s >= spent["train_frame"] > 0
    assert learned.infer_s >= spent["predict_dropped"] > 0
    assert linear.infer_s >= spent["linear_interp"] > 0
    assert nn.infer_s >= spent["nearest_neighbor_sub"] > 0
    assert linear.train_s == nn.train_s == 0


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig(methods=("linear", "cubic"))


def test_empty_grid_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig(methods=())
    with pytest.raises(ValueError):
        ExperimentConfig(k_list=())


@pytest.mark.parametrize("flag, value, field", [
    ("--k", "4,4", "k_list"), ("--methods", "linear,linear", "methods"),
])
def test_cli_rejects_repeated_grid_entries(tmp_path, capsys, flag, value, field):
    # a repeated entry would run the same cell twice and count it as two frames
    rc = cli.main(["--synthetic", "plane", "--sample-target", "400", "--methods", "linear", "--no-timing",
                   flag, value, "--out", str(tmp_path / "runs")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert not (tmp_path / "runs" / "reports.csv").exists()


def test_csv_tables_round_trip_a_name_that_needs_quoting(tmp_path):
    name = 'a,b "c"\nd'  # a comma, a quote and a newline
    report = metrics.EvalReport(frame=name, method="linear", k=4, rmse_z=0.1, rmse_xyz=0.2,
                                chamfer=0.3, train_s=0.0, infer_s=0.0, n_dropped=7)
    write_reports_csv([report], str(tmp_path / "reports.csv"))
    with open(tmp_path / "reports.csv", newline="") as fh:
        header, row = csv.reader(fh)
    assert header == [f.name for f in dataclasses.fields(metrics.EvalReport)]
    assert row == [name, "linear", "4", "0.1", "0.2", "0.3", "0", "0", "7"]

    write_summary_csv([dataclasses.replace(report, method=name)], str(tmp_path / "summary.csv"))
    with open(tmp_path / "summary.csv", newline="") as fh:
        header, row = csv.reader(fh)
    assert len(header) == len(row) == 11
    assert row[:2] == [name, "4"]


def test_summary_csv_holds_each_error_metrics_mean_and_sd_and_each_times_mean(tmp_path):
    header = ("method,k,rmse_z_mean,rmse_z_sd,rmse_xyz_mean,rmse_xyz_sd,chamfer_mean,chamfer_sd,"
              "train_s_mean,infer_s_mean,n_frames\n")
    path = tmp_path / "summary.csv"
    write_summary_csv([], str(path))
    assert path.read_text() == header
    reports = [metrics.EvalReport(frame=f"f{i}", method="linear", k=4, rmse_z=1.0 + 2 * i, rmse_xyz=2.0,
                                  chamfer=3.0 + 2 * i, train_s=4.0 + 2 * i, infer_s=5.0 + 2 * i, n_dropped=7)
               for i in range(2)]
    write_summary_csv(reports, str(path))
    assert path.read_text() == header + "linear,4,2,1.41421356,2,0,4,1.41421356,5,6,2\n"


def test_cli_scan_name_with_a_comma_reads_back_whole(tmp_path):
    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    cloud = synth.synthesize_scene(synth.SceneSpec(kind="sinusoid", point_count=500), seed=4)
    ingest.write_kitti_bin(cloud, str(frame_dir / "a,b.bin"))
    out = tmp_path / "runs"
    rc = cli.main(["--input", str(frame_dir), "--methods", "linear", "--k", "4", "--sample-target", "400",
                   "--no-timing", "--out", str(out)])
    assert rc == 0
    with open(out / "reports.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["frame"], row["method"], row["k"]) == ("a,b", "linear", "4")


def test_cli_scan_name_with_a_carriage_return_is_skipped(tmp_path, caplog):
    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    cloud = synth.synthesize_scene(synth.SceneSpec(kind="sinusoid", point_count=500), seed=4)
    ingest.write_kitti_bin(cloud, str(frame_dir / "a\rb.bin"))
    ingest.write_kitti_bin(cloud, str(frame_dir / "c.bin"))
    out = tmp_path / "runs"
    rc = cli.main(["--input", str(frame_dir), "--methods", "linear", "--k", "4", "--sample-target", "400",
                   "--no-timing", "--out", str(out)])
    assert rc == 0
    assert "skipping frame" in caplog.text and "frame name 'a\\rb' holds a carriage return" in caplog.text
    with open(out / "reports.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["frame"], row["method"], row["k"]) == ("c", "linear", "4")


def test_kitti_input_dir_round_trip(tmp_path):
    spec = synth.SceneSpec(kind="sinusoid", point_count=500)
    cloud = synth.synthesize_scene(spec, seed=4)
    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    ingest.write_kitti_bin(cloud, str(frame_dir / "000000.bin"))
    cfg = ExperimentConfig(
        input_dir=str(frame_dir),
        methods=("linear",),
        out_dir=str(tmp_path / "runs"),
        **FAST,
    )
    (report,) = run_experiment(cfg)
    assert report.frame == "000000"
    assert np.isfinite(report.rmse_z)


def test_unreadable_frame_is_skipped_for_any_worker_count(tmp_path, caplog):
    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    (frame_dir / "000000.bin").write_bytes(bytes(17))  # not a whole record
    paths = [str(frame_dir / f"00000{i}.bin") for i in range(4)]
    for i in (1, 2, 3):
        cloud = synth.synthesize_scene(synth.SceneSpec(kind="sinusoid", point_count=800), seed=i)
        assert len(cloud) > FAST["sample_target"]  # so the frame id seeds the sampling
        ingest.write_kitti_bin(cloud, paths[i])
    outs = []
    for workers in (1, 2):
        cfg = ExperimentConfig(
            input_dir=str(frame_dir),
            frame_limit=2,
            methods=("linear",),
            out_dir=str(tmp_path / f"runs{workers}"),
            workers=workers,
            timing=False,
            **FAST,
        )
        # the unreadable frame takes no --frames slot, and each frame id is
        # the file's position in the sorted listing
        expected = [r for i in (1, 2) for r in _run_one_frame((cfg, i, paths[i]))]
        assert run_experiment(cfg) == expected
        outs.append((tmp_path / f"runs{workers}" / "reports.csv").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0].count(b"\n") == 3  # header and two rows
    assert "skipping frame" in caplog.text and "000000.bin" in caplog.text


def steep_scan() -> np.ndarray:
    """300 points 45 degrees below the horizon, under the lowest beam: all
    land in beam 0, so the dropout drops every populated beam."""
    theta = np.linspace(0.0, 2 * np.pi, 300, endpoint=False)
    r = np.linspace(5.0, 20.0, 300)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), -r])


def test_frame_the_dropout_cannot_split_is_skipped_for_any_worker_count(tmp_path, caplog):
    # 000000.bin is a steep scan the dropout cannot split; 000001.bin is a
    # good scan
    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    ingest.write_kitti_bin(ingest.PointCloud(xyz=steep_scan(), reflectance=np.zeros(300)),
                           str(frame_dir / "000000.bin"))
    cloud = synth.synthesize_scene(synth.SceneSpec(kind="sinusoid", point_count=800), seed=1)
    ingest.write_kitti_bin(cloud, str(frame_dir / "000001.bin"))
    assert_only_frame_1_reports(tmp_path, frame_dir, "400")
    assert "skipping frame" in caplog.text and "drops every populated beam" in caplog.text


def assert_only_frame_1_reports(tmp_path, frame_dir, sample_target: str) -> None:
    """A two-frame linear run over ``frame_dir`` writes the same single row,
    for 000001, with one worker and with two."""
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"runs{workers}"
        rc = cli.main(["--input", str(frame_dir), "--frames", "2", "--methods", "linear",
                       "--sample-target", sample_target, "--no-timing", "--workers", workers, "--out", str(out)])
        assert rc == 0
        outs.append((out / "reports.csv").read_bytes())
    assert outs[0] == outs[1]
    lines = outs[0].decode().splitlines()
    assert len(lines) == 2 and lines[1].startswith("000001,linear,")


def test_frame_with_more_beams_than_the_sample_target_is_skipped_for_any_worker_count(tmp_path, caplog):
    # 000000.bin is a ring scan of about 50 populated beams, which 20 points
    # cannot hold one each; 000001.bin has two beams
    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    cloud = synth.synthesize_scene(synth.SceneSpec(kind="sinusoid", point_count=800), seed=1)
    assert np.unique(ingest.estimate_beams(cloud).beam).size > 20
    ingest.write_kitti_bin(cloud, str(frame_dir / "000000.bin"))
    xyz = two_ring_scan()
    ingest.write_kitti_bin(ingest.PointCloud(xyz=xyz, reflectance=np.zeros(len(xyz))), str(frame_dir / "000001.bin"))
    assert_only_frame_1_reports(tmp_path, frame_dir, "20")
    assert "skipping frame" in caplog.text and "below number of non-empty beams" in caplog.text


def test_cli_run_where_every_frame_is_skipped_exits_1(tmp_path, capsys):
    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    ingest.write_kitti_bin(ingest.PointCloud(xyz=steep_scan(), reflectance=np.zeros(300)),
                           str(frame_dir / "000000.bin"))
    rc = cli.main(["--input", str(frame_dir), "--methods", "linear", "--sample-target", "400",
                   "--out", str(tmp_path / "runs")])
    assert rc == 1
    captured = capsys.readouterr()
    assert "error: every frame was skipped" in captured.err
    assert "wrote" not in captured.out


def ring_points(counts: dict[int, int], rng) -> np.ndarray:
    """``counts[beam]`` points at the centre elevation of each beam, 5-20 m
    out at random azimuths."""
    span = (ingest.ELEV_MAX_DEG - ingest.ELEV_MIN_DEG) / ingest.NUM_BEAMS
    rings = []
    for beam, count in counts.items():
        elev = np.radians(ingest.ELEV_MIN_DEG + (beam + 0.5) * span)
        theta = rng.uniform(-np.pi, np.pi, count)
        r = rng.uniform(5.0, 20.0, count)
        rings.append(np.column_stack([r * np.cos(theta), r * np.sin(theta), r * np.tan(elev)]))
    return np.concatenate(rings)


def two_ring_scan(per_ring: int = 600) -> np.ndarray:
    """Points at the elevations of beams 4 and 5 only: the dropout drops
    beam 4, so the frame has one observed beam."""
    return ring_points({4: per_ring, 5: per_ring}, np.random.default_rng(0))


def test_cli_scan_with_one_observed_beam_reports_both_baselines(tmp_path):
    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    xyz = two_ring_scan()
    ingest.write_kitti_bin(ingest.PointCloud(xyz=xyz, reflectance=np.zeros(len(xyz))),
                           str(frame_dir / "000000.bin"))
    assert set(ingest.estimate_beams(ingest.read_kitti_bin(frame_dir / "000000.bin")).beam.tolist()) == {4, 5}
    out = tmp_path / "runs"
    rc = cli.main(["--input", str(frame_dir), "--methods", "linear,nn", "--sample-target", "1000",
                   "--no-timing", "--out", str(out)])
    assert rc == 0
    rows = (out / "reports.csv").read_text().splitlines()[1:]
    assert [r.split(",")[:3] for r in rows] == [["000000", "linear", "10"], ["000000", "nn", "10"]]


# the beams the default dropout (every 4th) drops, and the ones it keeps
DROPPED_BEAM = st.sampled_from(range(0, ingest.NUM_BEAMS, 4))
OBSERVED_BEAM = st.sampled_from([b for b in range(ingest.NUM_BEAMS) if b % 4])


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dropped=st.dictionaries(DROPPED_BEAM, st.integers(1, 4), min_size=1, max_size=2),
       observed=st.dictionaries(OBSERVED_BEAM, st.integers(1, 4), min_size=1, max_size=2),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_tiny_frame_or_one_observed_beam_reports_or_warns_alike_for_any_worker_count(
        caplog, dropped, observed, seed, data):
    # at most 16 points on one or two observed beams, and k up to one past
    # the point count: every (k, method) cell gives a row or a skip warning,
    # nothing aborts, and --workers 2 writes the rows of --workers 1
    xyz = ring_points({**dropped, **observed}, np.random.default_rng(seed))
    n = len(xyz)
    ks = st.integers(1, n + 1) | st.sampled_from([n - 1, n])  # often the largest k n points hold, or one past
    k_list = data.draw(st.lists(ks, min_size=1, max_size=2, unique=True))
    with tempfile.TemporaryDirectory() as tmp:
        frame_dir = os.path.join(tmp, "frames")
        os.makedirs(frame_dir)
        ingest.write_kitti_bin(ingest.PointCloud(xyz=xyz, reflectance=np.zeros(n)), os.path.join(frame_dir, "000000.bin"))
        outs = []
        for workers in (1, 2):
            caplog.clear()
            cfg = ExperimentConfig(input_dir=frame_dir, k_list=tuple(k_list), train=TrainConfig(epochs=2),
                                   out_dir=os.path.join(tmp, f"runs{workers}"), workers=workers, timing=False)
            reports = run_experiment(cfg)
            with open(os.path.join(cfg.out_dir, "reports.csv"), "rb") as fh:
                outs.append(fh.read())
            if workers == 1:  # a worker process logs where caplog does not see it
                cells = {(r.method, r.k) for r in reports}
                for k in k_list:
                    for method in ALL_METHODS:
                        assert (method, k) in cells or any(
                            m.startswith((f"skipping {method} at k={k} ", "skipping frame "))
                            for m in caplog.messages), f"{method} at k={k}: no row and no warning"
    assert outs[0] == outs[1]


@pytest.mark.parametrize("config, field", [
    ({"k_list": 5}, "k_list"), ({"k_list": [4, "5"]}, "k_list"), ({"k_list": [True]}, "k_list"),
    ({"methods": "linear"}, "methods"), ({"methods": ["linear", 3]}, "methods"),
    ({"frame_limit": "2"}, "frame_limit"), ({"frame_limit": True}, "frame_limit"),
    ({"frame_limit": 1.5}, "frame_limit"), ({"seed": "x"}, "seed"), ({"sample_target": "500"}, "sample_target"),
    ({"workers": None}, "workers"), ({"dropout_nth": [4]}, "dropout_nth"),
    ({"timing": "no"}, "timing"), ({"timing": 0}, "timing"),
    ({"out_dir": 3}, "out_dir"), ({"input_dir": 3}, "input_dir"),
    ({"train": {"learning_rate": "x"}}, "train.learning_rate"),
    ({"train": {"learning_rate": True}}, "train.learning_rate"),
    ({"train": {"epochs": 2.0}}, "train.epochs"), ({"train": {"patience": "3"}}, "train.patience"),
    ({"scene": {"noise_sigma": "0.1"}}, "scene.noise_sigma"), ({"scene": {"point_count": None}}, "scene.point_count"),
    ({"scene": {"kind": 1}}, "scene.kind"),
])
def test_cli_config_value_of_the_wrong_type_is_an_error(tmp_path, capsys, config, field):
    cfg_path = tmp_path / "cfg.json"
    out_dir = str(tmp_path / "runs")
    cfg_path.write_text(json.dumps({"methods": ["linear"], "sample_target": 400, "out_dir": out_dir, **config}))
    assert cli.main(["--config", str(cfg_path)]) == 1
    assert f"error: config field {field} must be " in capsys.readouterr().err
    assert not (tmp_path / "runs" / "reports.csv").exists()


def test_every_config_field_has_a_json_type_check():
    for kind in (ExperimentConfig, TrainConfig, synth.SceneSpec):
        for f in dataclasses.fields(kind):
            assert f.name in ("train", "scene") or f.type in JSON_TYPES, f"{kind.__name__}.{f.name}"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_smoke_run(tmp_path, capsys):
    rc = cli.main(
        [
            "--synthetic", "plane",
            "--methods", "linear,nn",
            "--sample-target", "400",
            "--out", str(tmp_path / "runs"),
            "--seed", "3",
        ]
    )
    assert rc == 0
    assert "report rows" in capsys.readouterr().out
    assert (tmp_path / "runs" / "reports.csv").exists()


SMALL_LEARNED_RUN = ["--synthetic", "plane", "--methods", "linear,superior_gat", "--sample-target", "400",
                     "--epochs", "2", "--no-timing"]


class RecordingMallopt:
    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


def libc_lookup(monkeypatch, mallopt=None):
    """Patch ``ctypes.CDLL``: the process's own symbols (``CDLL(None)``)
    offer ``mallopt``, or fail with OSError when it is None; any other
    library loads as usual. Returns a list that gains an entry per lookup
    of the process's own symbols."""
    real, looked_up = ctypes.CDLL, []

    def cdll(name, *args, **kwargs):
        if name is not None:
            return real(name, *args, **kwargs)
        looked_up.append(name)
        if mallopt is None:
            raise OSError("no C library")
        return type("Libc", (), {"mallopt": mallopt})()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    return looked_up


def test_cli_runs_and_writes_its_csvs_when_the_allocator_lookup_fails(tmp_path, monkeypatch):
    looked_up = libc_lookup(monkeypatch)
    out = tmp_path / "runs"
    assert cli.main(SMALL_LEARNED_RUN + ["--out", str(out)]) == 0
    assert looked_up, "main did not look up mallopt"
    assert (out / "reports.csv").read_text().count("\n") == 3
    assert (out / "summary.csv").exists()


def test_only_cli_main_sets_the_allocator(tmp_path, monkeypatch):
    # mallopt has no getter, so a library caller of run_experiment keeps
    # its allocator settings; main owns its process and sets them
    mallopt = RecordingMallopt()
    libc_lookup(monkeypatch, mallopt)
    run_experiment(ExperimentConfig(methods=("linear", "superior_gat"), out_dir=str(tmp_path / "lib"), **FAST))
    assert mallopt.calls == []
    assert cli.main(SMALL_LEARNED_RUN + ["--out", str(tmp_path / "cli")]) == 0
    assert mallopt.calls == [(cli.M_MMAP_THRESHOLD, 32 << 20), (cli.M_TRIM_THRESHOLD, 1 << 30)]


@pytest.mark.parametrize("flag, value, field", [
    ("--frames", "0", "frame_limit"), ("--workers", "-3", "workers"),
    ("--dropout-nth", "0", "dropout_nth"), ("--dropout-nth", "-4", "dropout_nth"), ("--dropout-nth", "1", "dropout_nth"),
    ("--k", "0,-3", "k_list"), ("--k", "4,0", "k_list"),
    ("--sample-target", "0", "sample_target"), ("--sample-target", "-5", "sample_target"),
])
def test_cli_rejects_counts_below_one(tmp_path, capsys, flag, value, field):
    rc = cli.main([flag, value, "--methods", "linear", "--out", str(tmp_path / "runs")])
    assert rc == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "runs" / "reports.csv").exists()


@pytest.mark.parametrize("text, field", [
    ('{"train": {"patience": 0}}', "patience"), ('{"scene": {"noise_sigma": NaN}}', "noise_sigma"),
    ('{"scene": {"noise_sigma": Infinity}}', "noise_sigma"), ('{"scene": {"noise_sigma": -1}}', "noise_sigma"),
])
def test_cli_config_value_out_of_range_is_an_error(tmp_path, capsys, text, field):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert cli.main(["--config", str(cfg_path), "--methods", "linear", "--out", str(tmp_path / "runs")]) == 1
    assert any(line.startswith("error: ") and field in line for line in capsys.readouterr().err.splitlines())
    assert not (tmp_path / "runs" / "reports.csv").exists()


@pytest.mark.parametrize("text", ["[1]", "3", '"scene"', '{"scene": 3}', '{"train": [1]}', '{"scene": null}'])
def test_cli_config_that_is_not_an_object_is_an_error(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    argv = ["--config", str(cfg_path), "--methods", "linear", "--out", str(tmp_path / "runs")]
    assert cli.main(argv + ["--synthetic", "plane"]) == 1
    assert "must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "runs" / "reports.csv").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_k_the_frame_cannot_hold_skips_only_its_learned_cells(tmp_path, caplog, workers):
    # 60 points hold a kNN graph at k=4 but not at k=60; the k=60 learned
    # cell is skipped, while the baseline and the smaller k still report
    out = tmp_path / "runs"
    rc = cli.main(["--synthetic", "plane", "--sample-target", "60", "--k", "4,60", "--epochs", "2",
                   "--methods", "linear,superior_gat", "--no-timing", "--workers", workers, "--out", str(out)])
    assert rc == 0
    rows = (out / "reports.csv").read_text().splitlines()[1:]
    assert [r.split(",")[1:3] for r in rows] == [["linear", "4"], ["superior_gat", "4"], ["linear", "60"]]
    if workers == "1":  # a worker process logs where caplog does not see it
        assert "skipping superior_gat at k=60" in caplog.text


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cell_whose_training_fails_is_skipped(tmp_path, caplog, monkeypatch, workers):
    # a non-finite training loss in one learned cell leaves the run going:
    # the other cells of every frame still report, and the run exits 0
    train_frame = trainer.train_frame

    def failing(frame, graph, architecture, *args):
        if architecture == "simple_gcn":
            raise NonFiniteError("non-finite training loss at epoch 0")
        return train_frame(frame, graph, architecture, *args)

    monkeypatch.setattr(trainer, "train_frame", failing)
    out = tmp_path / "runs"
    frames = "1" if workers == "1" else "2"
    rc = cli.main(["--synthetic", "plane", "--sample-target", "200", "--k", "4", "--epochs", "1",
                   "--frames", frames, "--methods", "linear,simple_gcn,superior_gat", "--no-timing",
                   "--workers", workers, "--out", str(out)])
    assert rc == 0
    rows = (out / "reports.csv").read_text().splitlines()[1:]
    assert [r.split(",")[:2] for r in rows] == [
        [f"plane{i}", m] for i in range(int(frames)) for m in ("linear", "superior_gat")]
    if workers == "1":  # a worker process logs where caplog does not see it
        assert "skipping simple_gcn at k=4 on frame plane0: non-finite training loss" in caplog.text


def test_cli_rejects_bad_method(tmp_path, capsys):
    rc = cli.main(["--methods", "bogus", "--out", str(tmp_path / "runs")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_help_shows_the_config_defaults():
    # each "(default: ...)" shown in a flag's help, passed back through that
    # flag, leaves ExperimentConfig() as it is: the help shows the value the
    # config holds at the flag's dest path
    parser = cli.build_parser()
    shown = {}
    for action in parser._actions:
        match = re.search(r"\(default: ([^)]*)\)", action.help or "")
        if match and action.dest != "methods":  # "all": a word, not a value
            shown[action.dest] = (action.option_strings[0], match[1])
    assert sorted(shown) == [
        "dropout_nth", "frame_limit", "k_list", "out_dir", "sample_target",
        "scene.kind", "seed", "train.epochs", "workers",
    ]
    for flag, text in shown.values():
        args = parser.parse_args([flag, text])
        assert cli.config_from_args(args) == ExperimentConfig(), (flag, text)


def test_cli_config_file_supplies_defaults(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"scene": {"kind": "plane", "point_count": 500}}')
    rc = cli.main(
        [
            "--config", str(cfg_path),
            "--methods", "linear",
            "--sample-target", "400",
            "--out", str(tmp_path / "runs"),
        ]
    )
    assert rc == 0
    lines = (tmp_path / "runs" / "reports.csv").read_text().splitlines()
    assert lines[1].startswith("plane0,linear,")


def test_cli_flags_not_passed_leave_config_file_values(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "sample_target": 300, "k_list": [4], "methods": ["linear"],
        "train": {"epochs": 3}, "out_dir": str(tmp_path / "runs"),
    }))
    args = cli.build_parser().parse_args(["--config", str(cfg_path)])
    cfg = cli.config_from_args(args)
    assert cfg.sample_target == 300
    assert cfg.k_list == (4,)
    assert cfg.methods == ("linear",)
    assert cfg.train.epochs == 3
    assert cli.main(["--config", str(cfg_path)]) == 0
    rows = (tmp_path / "runs" / "reports.csv").read_text().splitlines()[1:]
    assert [r.split(",")[1:3] for r in rows] == [["linear", "4"]]


def _received_train_args(monkeypatch, cfg, out_dir):
    """The (TrainConfig, seed) of every train_frame call when ``cfg`` runs
    with one small learned method."""
    received = []
    train_frame = trainer.train_frame

    def spy(frame, graph, architecture, train_cfg, seed):
        received.append((train_cfg, seed))
        return train_frame(frame, graph, architecture, train_cfg, seed)

    monkeypatch.setattr(trainer, "train_frame", spy)
    run_experiment(dataclasses.replace(
        cfg, methods=("simple_gcn",), out_dir=str(out_dir)))
    return received


def test_cli_flags_passed_override_config_file(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "sample_target": 300, "k_list": [4], "seed": 5, "timing": True,
        "train": {"epochs": 3, "learning_rate": 0.02},
    }))
    args = cli.build_parser().parse_args(
        ["--config", str(cfg_path), "--k", "6,7", "--epochs", "9", "--seed", "2", "--no-timing"])
    cfg = cli.config_from_args(args)
    assert cfg.k_list == (6, 7)
    assert cfg.sample_target == 300
    assert (cfg.train.epochs, cfg.train.learning_rate, cfg.seed) == (9, 0.02, 2)
    assert cfg.timing is False
    received = _received_train_args(monkeypatch, cfg, tmp_path / "runs")
    assert [(t.epochs, seed) for t, seed in received] == [(9, 2), (9, 2)]


def test_cli_config_train_seed_follows_experiment_seed(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 5, "sample_target": 300, "train": {"epochs": 2}}))
    cfg = cli.config_from_args(cli.build_parser().parse_args(["--config", str(cfg_path)]))
    assert cfg.seed == 5
    received = _received_train_args(monkeypatch, cfg, tmp_path / "runs")
    assert [seed for _, seed in received] == [5]


def test_cli_unknown_config_field_is_an_error(tmp_path, capsys):
    # a misspelt field, and the fields removed from the config: the method,
    # the seeds and the scene kind now live in the call arguments,
    # ``seed`` and ``scene.kind``; the scene geometry is fixed, and the whole
    # ``model`` section is gone, so an error names ``model`` itself
    removed = [
        "train.transductive", "model.layers", "model.activation", "dropout_offset",
        "train.beta1", "train.beta2", "train.eps", "train.mask_fraction",
        "model.in_features", "model.input_scale", "model.attn_slope", "model.ffn_slope",
        "model.architecture", "scene.seed", "train.seed", "synthetic", "model.heads",
        "scene.extent", "scene.ground_z", "scene.amplitude", "scene.wavelength", "scene.wall_x",
    ]
    cfg_path = tmp_path / "cfg.json"
    for path in ["train.epoch"] + removed:
        section, _, field = path.rpartition(".")
        cfg_path.write_text(json.dumps({section: {field: 1}} if section else {field: 1}))
        assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "runs")]) == 1, path
        err = capsys.readouterr().err
        assert "error: unknown config field(s): " + ("model" if section == "model" else path) in err, path


@pytest.mark.parametrize("kind, field, value", [(TrainConfig, "seed", 8), (synth.SceneSpec, "seed", 5)])
def test_values_each_cell_sets_are_not_config_fields(kind, field, value):
    # the method, the training seed and the scene seed are call arguments,
    # so a config cannot carry a value the run would ignore
    with pytest.raises(TypeError):
        kind(**{field: value})


def test_cli_synthetic_overrides_config_file_scene_kind(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scene": {"kind": "two_plane", "point_count": 500}}))
    argv = ["--config", str(cfg_path), "--methods", "linear", "--sample-target", "400",
            "--out", str(tmp_path / "runs")]
    assert cli.config_from_args(cli.build_parser().parse_args(argv)).scene.kind == "two_plane"
    cfg = cli.config_from_args(cli.build_parser().parse_args(argv + ["--synthetic", "plane"]))
    assert (cfg.scene.kind, cfg.scene.point_count) == ("plane", 500)
    assert cli.main(argv + ["--synthetic", "plane"]) == 0
    lines = (tmp_path / "runs" / "reports.csv").read_text().splitlines()
    assert lines[1].startswith("plane0,linear,")
