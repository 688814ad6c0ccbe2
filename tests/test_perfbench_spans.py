"""The traced benchmark (``perfbench/run.py --trace 1``) wraps beamgat
functions by name; renaming or deleting one of them breaks it. Load its
tracer and install every wrapper once."""

import importlib.util
import os

from beamgat import tensor_ad as T

SPANS_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_installs_and_restores():
    spans = load_spans()
    original = T.matmul
    with spans.installed(spans.Tracer()) as tracer:
        assert T.matmul is not original
        T.matmul(T.Tensor([[1.0]]), T.Tensor([[2.0]]))
    assert T.matmul is original
    assert [name for name, *_ in tracer.spans] == ["tensor_ad.matmul"]
