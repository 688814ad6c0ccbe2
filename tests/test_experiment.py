import dataclasses
import json

import numpy as np
import pytest

from beamgat import baselines, cli, graph as graph_mod, ingest, metrics, synth, trainer
from beamgat.experiment import ExperimentConfig, _run_one_frame, run_experiment
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
    spec = synth.SceneSpec(kind="plane", point_count=600)
    cloud = synth.synthesize_scene(spec, seed=0)
    assert cloud.xyz.shape[0] >= 400
    np.testing.assert_allclose(cloud.xyz[:, 2], spec.ground_z, atol=1e-6)


def test_sinusoid_scene_height_stays_within_amplitude():
    spec = synth.SceneSpec(kind="sinusoid", point_count=600)
    cloud = synth.synthesize_scene(spec, seed=1)
    dev = np.abs(cloud.xyz[:, 2] - spec.ground_z)
    # z = ground + amplitude * (sin + 0.5 cos) stays within 1.5 amplitude
    assert dev.max() <= 1.5 * spec.amplitude + 1e-6


def test_scene_generation_is_deterministic():
    spec = synth.SceneSpec(kind="sinusoid", point_count=500, noise_sigma=0.1)
    a = synth.synthesize_scene(spec, seed=3)
    b = synth.synthesize_scene(spec, seed=3)
    assert np.array_equal(a.xyz, b.xyz)
    assert np.array_equal(a.beam, b.beam)


def test_linear_interp_is_near_exact_on_plane():
    spec = synth.SceneSpec(kind="plane", point_count=800)
    frame = ingest.apply_beam_dropout(synth.synthesize_scene(spec, seed=2))
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

    def counting_build(frame, k, *args, **kwargs):
        built.append(k)
        return build(frame, k, *args, **kwargs)

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
    # one graph per (frame, k), from one kNN query per frame at the largest k
    assert built == [4, 6, 4, 6]
    assert queried == [6, 6]
    assert len(reports) == 2 * 2 * 4
    assert all(np.isfinite(r.rmse_z) for r in reports)


def test_baseline_only_grid_builds_no_graph(tmp_path, monkeypatch):
    built, queried = count_graph_builds(monkeypatch)
    cfg = ExperimentConfig(methods=("linear", "nn"), out_dir=str(tmp_path / "runs"), **FAST)
    run_experiment(cfg)
    assert built == [] and queried == []


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


@pytest.mark.parametrize("flag, value, field", [
    ("--frames", "0", "frame_limit"), ("--workers", "-3", "workers"),
    ("--dropout-nth", "0", "dropout_nth"), ("--dropout-nth", "-4", "dropout_nth"), ("--dropout-nth", "1", "dropout_nth"),
])
def test_cli_rejects_counts_below_one(tmp_path, capsys, flag, value, field):
    rc = cli.main([flag, value, "--methods", "linear", "--out", str(tmp_path / "runs")])
    assert rc == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "runs" / "reports.csv").exists()


def test_cli_rejects_bad_method(tmp_path, capsys):
    rc = cli.main(["--methods", "bogus", "--out", str(tmp_path / "runs")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_config_file_supplies_defaults(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        '{"scene": {"kind": "plane", "point_count": 500}, '
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


def _received_train_args(monkeypatch, cfg, out_dir):
    """The (TrainConfig, seed) of every train_frame call when ``cfg`` runs
    with one small learned method."""
    received = []
    train_frame = trainer.train_frame

    def spy(frame, graph, architecture, model_cfg, train_cfg, seed):
        received.append((train_cfg, seed))
        return train_frame(frame, graph, architecture, model_cfg, train_cfg, seed)

    monkeypatch.setattr(trainer, "train_frame", spy)
    run_experiment(dataclasses.replace(
        cfg, methods=("simple_gcn",), model=FAST["model"], out_dir=str(out_dir)))
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
    # ``seed`` and ``scene.kind``
    removed = [
        "train.transductive", "model.layers", "model.activation", "dropout_offset",
        "train.beta1", "train.beta2", "train.eps", "train.mask_fraction",
        "model.in_features", "model.input_scale", "model.attn_slope", "model.ffn_slope",
        "model.architecture", "scene.seed", "train.seed", "synthetic",
    ]
    cfg_path = tmp_path / "cfg.json"
    for path in ["train.epoch"] + removed:
        section, _, field = path.rpartition(".")
        cfg_path.write_text(json.dumps({section: {field: 1}} if section else {field: 1}))
        assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "runs")]) == 1, path
        assert path in capsys.readouterr().err


@pytest.mark.parametrize("kind, field, value", [
    (ModelConfig, "architecture", "gat_baseline"), (TrainConfig, "seed", 8), (synth.SceneSpec, "seed", 5),
])
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
