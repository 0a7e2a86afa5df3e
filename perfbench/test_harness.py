"""Self-test of the benchmark harness (a few seconds):

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run as bench  # noqa: E402
from calltrace import Recorder, Span, aggregate, self_times, traced  # noqa: E402

TINY = bench.Workload("tiny", dim=64, n_heads=4, n_layers=2, ffn_dim=172,
                      calib_samples=3, calib_seqlen=16, eval_tokens=64, eval_seqlen=16)


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        Span(0, "root", 0.0, None, end=10.0),
        Span(1, "a", 1.0, 0, end=3.0),
        Span(2, "deep", 1.5, 1, end=2.5),   # a grandchild: not subtracted from root
        Span(3, "b", 2.0, 0, end=4.0),      # overlaps a: the overlap counts once
        Span(4, "c", 6.0, 0, end=7.0, error=True, counts={"tokens": 5}),
    ]
    own = self_times(spans)
    assert own == {0: 10.0 - 4.0, 1: 2.0 - 1.0, 2: 1.0, 3: 2.0, 4: 1.0}
    scope = {"a": ("root",), "c": ("root",), "deep": ("other",)}
    agg = aggregate(spans, scope)
    assert agg["a.busy_s"] == 2.0 and agg["a.self_s"] == 1.0
    assert agg["c.errors"] == 1 and agg["c.tokens"] == 5
    assert agg["deep.calls"] == 0  # its root is not in its scope


def test_traced_restores_every_rebound_name():
    from rankprune import cli, linalg, lowrank, pipeline, transformer

    originals = (transformer.load_dense_model, linalg.svd, transformer.collect_stats)
    with traced(Recorder(), bench.trace_targets()):
        assert cli.load_dense_model is not originals[0]
        assert lowrank.svd is linalg.svd is not originals[1]
        assert pipeline.collect_stats is transformer.collect_stats is not originals[2]
    assert cli.load_dense_model is transformer.load_dense_model is originals[0]
    assert lowrank.svd is linalg.svd is originals[1]
    assert pipeline.collect_stats is transformer.collect_stats is originals[2]


def _traced_cycle(tmp_path: Path) -> tuple[bench.Bench, dict]:
    b = bench.Bench(TINY, seed=3, work=tmp_path)
    b.setup()
    b.cycle(0, trace=True)
    assert [o.ok for o in b.ops] == [True, True], [o.problems for o in b.ops]
    return b, b.layer_samples[0]


def test_layer_passes_and_counts_repeat_exactly(tmp_path):
    _, first = _traced_cycle(tmp_path / "a")
    _, second = _traced_cycle(tmp_path / "b")
    samples, layers = TINY.calib_samples, TINY.n_layers
    # compress re-forwards the prefix: samples * L(L+1)/2 layer passes
    assert first["transformer.forward.layer_passes"] == samples * layers * (layers + 1) // 2
    assert first["transformer.forward.calls"] == samples * layers
    windows = TINY.eval_tokens // TINY.eval_seqlen
    assert first["transformer.perplexity.layer_passes"] == windows * layers
    assert first["transformer.perplexity.tokens"] == windows * TINY.eval_seqlen
    counts = [k for k in first if not k.endswith(("busy_s", "self_s"))]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert all(first[f"{n}.errors"] == 0 for n in bench.SCOPE)


def test_a_failing_check_is_counted(tmp_path):
    b, _ = _traced_cycle(tmp_path)
    (b.fixture / "eval.bin").write_bytes(b"\x01")  # shorter than one window: eval exits 2
    op = b.eval(0)
    assert not op.ok and "exited 2" in op.problems[0]


def test_benchmark_json_declares_what_the_harness_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == bench.per_layer_metrics()
