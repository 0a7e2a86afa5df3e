"""perfbench/run.py --trace 1 rebinds rankprune functions by name and reads
their arguments; a change to those names or signatures must fail here, not
only inside a benchmark run.  The benchmark files are read, never changed."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports calltrace from its own directory
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _traced_cycle(bench, workload, tmp_path):
    """Set up, run one traced compress-then-eval cycle and one more eval of its
    output; the harness's own checks (reload, keep ratio, finite and repeated
    ppl) must find nothing."""
    b = bench.Bench(workload, seed=3, work=tmp_path)
    b.setup()
    assert b.setup_problems == []
    b.cycle(0, trace=True)
    b.eval(0)
    assert [(o.kind, o.problems) for o in b.ops] == [("compress", []), ("eval", []), ("eval", [])]
    layer = b.layer_samples[0]
    assert {name: layer[f"{name}.errors"] for name in bench.SCOPE} == dict.fromkeys(bench.SCOPE, 0)
    # One factoring call per layer, whatever the plan leaves to factor.
    assert layer["lowrank.compress_mha.calls"] == workload.n_layers
    # The plan prunes FFN channels and factors attention: one channel-group set, and so
    # one FFN pruning decision, per layer.
    scored, decided, sliced = (layer[f"pruning.{fn}.calls"] for fn in ("group_scores", "decide_pruning", "apply_pruning"))
    assert scored == decided == sliced == workload.n_layers
    # Neither compress nor eval calls transformer.forward: perfbench's count hook for it
    # reads stop_after_layer, which forward no longer takes, and would raise KeyError.
    assert [s["name"] for cycle in b.spans for s in cycle if s["name"] == "transformer.forward"] == []
    return b


def test_traced_benchmark_cycle_has_no_errors(tmp_path, monkeypatch):
    bench = _load_bench(monkeypatch)
    tiny = bench.Workload("tiny", dim=64, n_heads=4, n_layers=2, ffn_dim=172,
                          calib_samples=3, calib_seqlen=16, eval_tokens=64, eval_seqlen=16)
    _traced_cycle(bench, tiny, tmp_path)


def test_traced_benchmark_cycle_at_a_blocked_attention_window(tmp_path, monkeypatch):
    # Two 256-token eval windows, each running attention as two 128-row causal-prefix blocks.
    bench = _load_bench(monkeypatch)
    long = bench.Workload("long", dim=64, n_heads=4, n_layers=2, ffn_dim=172,
                          calib_samples=3, calib_seqlen=16, eval_tokens=512, eval_seqlen=256)
    b = _traced_cycle(bench, long, tmp_path)
    assert b.layer_samples[0]["transformer.perplexity.tokens"] == 512


def test_traced_cycle_with_every_factoring_on_the_svd_fallback(tmp_path, monkeypatch):
    # 128-wide matrices are factored on pool threads.  There a fallback to the full
    # SVD must not reach the traced `linalg.svd`: the recorder keeps one thread's spans.
    from rankprune import linalg, util

    bench = _load_bench(monkeypatch)
    monkeypatch.setattr(util, "_workers", lambda: 3)
    monkeypatch.setattr(linalg, "GRAM_MIN_SIGMA_RATIO", 2.0)  # sigma_r / sigma_1 is never above 1
    fallbacks = []
    full_svd = linalg._svd

    def counting(*args):
        fallbacks.append(args[1])
        return full_svd(*args)

    monkeypatch.setattr(linalg, "_svd", counting)
    wide = bench.Workload("wide", dim=128, n_heads=2, n_layers=2, ffn_dim=344,
                          calib_samples=2, calib_seqlen=16, eval_tokens=64, eval_seqlen=16)
    b = _traced_cycle(bench, wide, tmp_path)
    assert sorted(fallbacks) == sorted(["q_proj", "k_proj", "v_proj", "o_proj"] * wide.n_layers)
    assert b.layer_samples[0]["linalg.svd.calls"] == 0
