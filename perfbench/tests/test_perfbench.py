"""Tests for the benchmark's own code: the tracer, the generated scan and
the output check. Run with ``python3 -m pytest perfbench/tests``."""

import contextlib
import io

import numpy as np
import pytest

import inputs
import outputs
import spans
from beamgat import cli, ingest
from beamgat import tensor_ad as T

GOOD_REPORTS = (
    "frame,method,k,rmse_z,rmse_xyz,chamfer,train_s,infer_s,n_dropped\n"
    "sinusoid0,linear,10,0.12,0.07,0.05,0,0,574\n"
    "sinusoid0,superior_gat,10,0.71,0.41,0.30,0,0,574\n"
)


def _cli_reports(tmp_path, name):
    out = tmp_path / name
    argv = ["--synthetic", "sinusoid", "--k", "4", "--methods", "linear,nn,superior_gat,simple_gcn",
            "--frames", "1", "--seed", "3", "--out", str(out), "--epochs", "2",
            "--sample-target", "50000", "--dropout-nth", "4", "--workers", "1", "--no-timing"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return (out / "reports.csv").read_bytes()


def test_wrapped_functions_return_what_unwrapped_ones_do(tmp_path):
    rng = np.random.default_rng(0)
    a, b = T.Tensor(rng.normal(size=(5, 3))), T.Tensor(rng.normal(size=(3, 2)))
    original = T.matmul
    plain_product = T.matmul(a, b).data
    plain_reports = _cli_reports(tmp_path, "plain")

    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert T.matmul is not original
        traced_product = T.matmul(a, b).data
        traced_reports = _cli_reports(tmp_path, "traced")

    assert T.matmul is original
    np.testing.assert_array_equal(traced_product, plain_product)
    assert traced_reports == plain_reports
    names = {name for name, *_ in tracer.spans}
    assert {"experiment.run_experiment", "trainer.train_frame", "tensor_ad.Tape.backward",
            "baselines.linear_interp", "model.gcn_layer"} <= names
    assert tracer.counters["tensor_ad.matmul.flops"] > 2 * 5 * 3 * 2


def test_self_times_on_a_hand_built_span_tree():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9]
    clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0]).__next__
    tracer = spans.Tracer(clock=clock)
    leaf = tracer.wrap("tensor_ad.matmul", lambda: None)
    a = tracer.wrap("model.forward", leaf)
    b = tracer.wrap("model.forward", lambda: None)
    tracer.wrap("cli.main", lambda: (a(), b()))()

    root, fwd_a, mm, fwd_b = tracer.spans
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0]
    assert spans.self_times(tracer.spans) == [3.0, 2.0, 1.0, 4.0]
    m = spans.layer_metrics(tracer.spans, {})
    assert (m["model.forward.s"], m["model.forward.self_s"], m["model.forward.calls"]) == (7.0, 6.0, 2)
    assert m["cli.main.self_s"] == 3.0 and m["cli.main.s"] == 10.0
    assert m["graph.knn_indices.s"] == 0 and m["ingest.records"] == 0


def test_generated_scan_is_a_function_of_the_seed(tmp_path):
    paths = [tmp_path / name for name in ("a.bin", "b.bin", "c.bin")]
    for path, seed in zip(paths, (3, 3, 4)):
        inputs.write_scan(str(path), seed, records=2000)
    first, again, other = (p.read_bytes() for p in paths)
    assert first == again
    assert first != other
    cloud = ingest.read_kitti_bin(paths[0])
    assert len(cloud) + cloud.skipped_nonfinite == 2000
    assert cloud.skipped_nonfinite == 7


def test_output_check_accepts_good_and_rejects_bad_reports():
    methods = ("linear", "superior_gat")
    assert outputs.check_reports(GOOD_REPORTS, methods, k=10) == {"linear": 0.12, "superior_gat": 0.71}
    bad = [
        GOOD_REPORTS.rsplit("\n", 2)[0] + "\n",  # last row missing
        GOOD_REPORTS[:-12],  # last row cut mid-line
        "",
        GOOD_REPORTS.replace("0.71", "nan"),
        GOOD_REPORTS.replace("0.30", "inf"),
        GOOD_REPORTS.replace("0,0,574\nsinusoid0,superior", "0,0,573\nsinusoid0,superior"),
        GOOD_REPORTS.replace("superior_gat", "linear"),
    ]
    for text in bad:
        with pytest.raises(outputs.OutputError):
            outputs.check_reports(text, methods, k=10)
