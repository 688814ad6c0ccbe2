import dataclasses
import json

import numpy as np
import pytest

from beamgat import baselines, cli, ingest, metrics, synth
from beamgat.experiment import (
    ExperimentConfig,
    emit_xz_projection,
    run_experiment,
)
from beamgat.model import ModelConfig
from beamgat.trainer import TrainConfig

FAST = dict(
    sample_target=400,
    scene=synth.SceneSpec(point_count=500),
    model=ModelConfig(heads=2, head_width=4, ffn_hidden=16, dec_hidden=8),
    train=TrainConfig(epochs=3),
)


# ---------------------------------------------------------------------------
# synthetic scenes
# ---------------------------------------------------------------------------


def test_plane_scene_sits_at_ground_height():
    spec = synth.SceneSpec(kind="plane", point_count=600, seed=0)
    cloud = synth.synthesize_scene(spec)
    assert cloud.xyz.shape[0] >= 400
    np.testing.assert_allclose(cloud.xyz[:, 2], spec.ground_z, atol=1e-6)


def test_sinusoid_scene_height_stays_within_amplitude():
    spec = synth.SceneSpec(kind="sinusoid", point_count=600, seed=1)
    cloud = synth.synthesize_scene(spec)
    dev = np.abs(cloud.xyz[:, 2] - spec.ground_z)
    # z = ground + amplitude * (sin + 0.5 cos) stays within 1.5 amplitude
    assert dev.max() <= 1.5 * spec.amplitude + 1e-6


def test_scene_generation_is_deterministic():
    spec = synth.SceneSpec(kind="sinusoid", point_count=500, seed=3, noise_sigma=0.1)
    a = synth.synthesize_scene(spec)
    b = synth.synthesize_scene(spec)
    assert np.array_equal(a.xyz, b.xyz)
    assert np.array_equal(a.beam, b.beam)


def test_linear_interp_is_near_exact_on_plane():
    spec = synth.SceneSpec(kind="plane", point_count=800, seed=2)
    frame = ingest.apply_beam_dropout(synth.synthesize_scene(spec))
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


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig(methods=("linear", "cubic"))


def test_empty_grid_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig(methods=())
    with pytest.raises(ValueError):
        ExperimentConfig(k_list=())


def test_kitti_input_dir_round_trip(tmp_path):
    spec = synth.SceneSpec(kind="sinusoid", point_count=500, seed=4)
    cloud = synth.synthesize_scene(spec)
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


# ---------------------------------------------------------------------------
# x-z projection CSV
# ---------------------------------------------------------------------------


def _tiny_frame():
    spec = synth.SceneSpec(kind="sinusoid", point_count=300, seed=5)
    return ingest.apply_beam_dropout(synth.synthesize_scene(spec))


def test_xz_projection_row_counts(tmp_path):
    frame = _tiny_frame()
    dropped = np.flatnonzero(frame.dropped_mask)
    z_hat = np.zeros(dropped.size)
    path = tmp_path / "xz.csv"
    emit_xz_projection(frame, z_hat, str(path), stride=4)
    lines = path.read_text().splitlines()
    n_obs = int(frame.observed_mask.sum())
    n_drop_rows = len(range(0, dropped.size, 4))
    assert lines[0] == "x,z_truth,z_pred,dropped"
    assert len(lines) == 1 + n_obs + n_drop_rows


def test_xz_projection_stride_one_keeps_all_dropped(tmp_path):
    frame = _tiny_frame()
    dropped = np.flatnonzero(frame.dropped_mask)
    path = tmp_path / "xz.csv"
    emit_xz_projection(frame, frame.z_truth[dropped], str(path), stride=1)
    rows = path.read_text().splitlines()[1:]
    flags = np.array([int(r.rsplit(",", 1)[1]) for r in rows])
    assert (flags == 1).sum() == dropped.size
    # with truth passed as the prediction, pred column equals truth column
    for r in rows:
        _, zt, zp, _ = r.split(",")
        assert zt == zp


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


def test_cli_rejects_bad_method(tmp_path, capsys):
    rc = cli.main(["--methods", "bogus", "--out", str(tmp_path / "runs")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_config_file_supplies_defaults(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        '{"synthetic": "plane", "scene": {"point_count": 500}, '
        '"model": {"heads": 2, "head_width": 4, "ffn_hidden": 16, "dec_hidden": 8}}'
    )
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


def test_cli_flags_passed_override_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "sample_target": 300, "k_list": [4], "seed": 5, "timing": True,
        "train": {"epochs": 3, "seed": 8},
    }))
    args = cli.build_parser().parse_args(
        ["--config", str(cfg_path), "--k", "6,7", "--epochs", "9", "--seed", "2", "--no-timing"])
    cfg = cli.config_from_args(args)
    assert cfg.k_list == (6, 7)
    assert cfg.sample_target == 300
    assert (cfg.train.epochs, cfg.train.seed, cfg.seed) == (9, 2, 2)
    assert cfg.timing is False


def test_cli_config_train_seed_follows_experiment_seed(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 5}))
    cfg = cli.config_from_args(cli.build_parser().parse_args(["--config", str(cfg_path)]))
    assert (cfg.seed, cfg.train.seed) == (5, 5)


def test_cli_unknown_config_field_is_an_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"train": {"epoch": 3}}))
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "runs")]) == 1
    assert "train.epoch" in capsys.readouterr().err
