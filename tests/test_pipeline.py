import copy
import json
import re
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
from rankprune import pipeline, store, synth, transformer, util
from rankprune.config import ModelConfig
from rankprune.errors import AllocationError, CalibrationError, InfeasibleRatioError, ManifestError
from rankprune.pipeline import CompressionPlan, compress_model, sample_calibration_windows
from rankprune.transformer import ALL_SITES, count_params_macs, forward, model_from_tensors, model_to_tensors, perplexity


@pytest.fixture(scope="module")
def setup():
    cfg = synth.toy_config()
    model = synth.make_planted_model(cfg, seed=0)
    calib = synth.sample_from_model(model, 4096, seed=100, window=64)
    evalset = synth.sample_from_model(model, 2048, seed=200, window=64)
    return cfg, model, calib, evalset


def _plan(keep, **kw):
    base = dict(calib_samples=16, calib_tokens=32, seed=7)
    base.update(kw)
    return CompressionPlan(keep_ratio=keep, **base)


def test_noop_compression_preserves_model(setup):
    cfg, model, calib, evalset = setup
    compressed, manifest, report = compress_model(model, _plan(1.0), calib)
    assert report["params_after"] == report["params_before"]
    ppl_before = perplexity(model, evalset, 64)
    ppl_after = perplexity(compressed, evalset, 64)
    assert abs(ppl_after - ppl_before) < 1e-4
    assert all(s["kind"] == "dense" for s in manifest["global"]["plan"]["mha"]["schemes"].values())
    assert manifest["global"]["plan"]["ffn"]["retained_count"] == cfg.ffn_dim


def test_half_ratio_parameter_accounting(setup):
    cfg, model, calib, _ = setup
    compressed, manifest, report = compress_model(model, _plan(0.5), calib)
    target = 0.5 * report["layer_params_before"]
    assert abs(report["layer_params_after"] - target) / target < 0.005
    # report totals equal a direct walk of the model
    params, macs = count_params_macs(compressed, 32)
    assert report["params_after"] == params
    assert report["macs_after"] == macs
    assert report["macs_after"] < report["macs_before"]
    # and savings decompose exactly
    assert report["params_before"] - report["params_after"] == (
        report["layer_params_before"] - report["layer_params_after"]
    )


def test_keep_08_accounting_within_tolerance(setup):
    cfg, model, calib, _ = setup
    _, _, report = compress_model(model, _plan(0.8), calib)
    target = 0.8 * report["layer_params_before"]
    assert abs(report["layer_params_after"] - target) / target < 0.005


def test_compressed_model_finite_ppl(setup):
    cfg, model, calib, evalset = setup
    compressed, _, _ = compress_model(model, _plan(0.5), calib)
    ppl = perplexity(compressed, evalset, 64)
    assert np.isfinite(ppl)


def test_byte_determinism_across_runs(setup, tmp_path):
    cfg, model, calib, _ = setup
    out = []
    for tag in ("a", "b"):
        compressed, manifest, report = compress_model(model, _plan(0.5), calib, calib_sha256="x")
        d = tmp_path / tag
        pipeline.write_outputs(d, compressed, manifest, report)
        out.append(d)
    for name in ("model.safetensors", "manifest.json", "report.json"):
        assert (out[0] / name).read_bytes() == (out[1] / name).read_bytes(), name


def test_seed_changes_calibration_choice(setup):
    cfg, model, calib, _ = setup
    _, m1, _ = compress_model(model, _plan(0.5, seed=1), calib)
    _, m2, _ = compress_model(model, _plan(0.5, seed=2), calib)
    assert m1["global"]["calibration"]["window_starts"] != m2["global"]["calibration"]["window_starts"]


def test_calibration_windows_non_overlapping():
    stream = np.arange(1000)
    windows, starts = sample_calibration_windows(stream, 10, 50, seed=3)
    assert len(windows) == 10
    assert all(w.size == 50 for w in windows)
    spans = sorted((s, s + 50) for s in starts)
    assert all(a_end <= b_start for (_, a_end), (b_start, _) in zip(spans, spans[1:]))


def test_calibration_shortfall(setup):
    cfg, model, _, _ = setup
    with pytest.raises(CalibrationError):
        compress_model(model, _plan(0.5, calib_samples=64, calib_tokens=128), np.arange(256))


def test_roundtrip_through_container(setup, tmp_path):
    cfg, model, calib, evalset = setup
    for mha, ffn in (("awsvd", "prune"), ("svd", "svd"), ("head_prune", "prune")):
        compressed, manifest, report = compress_model(
            model, _plan(0.5, mha_method=mha, ffn_method=ffn), calib
        )
        out = tmp_path / f"{mha}-{ffn}"
        pipeline.write_outputs(out, compressed, manifest, report)
        cfg2, tensors, _ = store.load_compressed(out)
        rebuilt = model_from_tensors(cfg2, tensors)
        toks = evalset[:64]
        a = forward(compressed, toks)
        b = forward(rebuilt, toks)
        # container stores f32, so round-trip agrees to f32 resolution
        assert np.max(np.abs(a - b)) < 1e-4


def _layer_arrays(layer):
    return {f"{name}.{field}": a for name, proj in layer.projections().items() for field, a in vars(proj).items()} | {
        "attn_norm": layer.attn_norm, "ffn_norm": layer.ffn_norm,
    }


@settings(max_examples=15, deadline=None)
@given(
    n_heads=st.integers(1, 3),
    head_dim=st.sampled_from([8, 16]),
    n_layers=st.integers(1, 2),
    ffn_dim=st.integers(8, 40),
    keep=st.sampled_from([0.1, 0.3, 0.5, 0.75, 0.95, 1.0]),
    alloc=st.sampled_from([(1.0, 3.0), (1.0, 1.0), (5.0, 1.0)]),
    mha=st.sampled_from(pipeline.MHA_METHODS),
    ffn=st.sampled_from(pipeline.FFN_METHODS),
    seed=st.integers(0, 2**16),
)
def test_written_model_reloads_bit_exact(n_heads, head_dim, n_layers, ffn_dim, keep, alloc, mha, ffn, seed):
    # A model loaded from disk is float32 and so is every projection
    # compress_model builds from it, so what write_outputs stores and
    # load_compressed returns is the in-memory compressed model exactly.
    # Keep ratios from rank 1 to dense passthrough put the write-time check
    # of each record against its plan at both edges.
    cfg = ModelConfig(dim=n_heads * head_dim, n_heads=n_heads, head_dim=head_dim, n_layers=n_layers,
                      ffn_dim=ffn_dim, vocab_size=256)
    model = model_from_tensors(cfg, model_to_tensors(helpers.make_random_model(cfg, seed, scale=0.2)))
    plan = CompressionPlan(keep_ratio=keep, alloc_ratio=alloc, calib_samples=2, calib_tokens=8, seed=seed,
                           mha_method=mha, ffn_method=ffn)
    try:
        compressed, manifest, report = compress_model(model, plan, helpers.random_token_stream(64, seed))
    except AllocationError:
        assume(False)  # a budget below rank 1, or no channel retained
    with tempfile.TemporaryDirectory() as out:
        pipeline.write_outputs(out, compressed, manifest, report)
        rebuilt = model_from_tensors(*store.load_compressed(Path(out))[:2])
    for name in ("embed", "final_norm", "lm_head"):
        a, b = getattr(rebuilt, name), getattr(compressed, name)
        assert a.dtype == b.dtype == np.float32 and np.array_equal(a, b), name
    for got, want in zip(rebuilt.layers, compressed.layers, strict=True):
        assert {n: type(p) for n, p in got.projections().items()} == {n: type(p) for n, p in want.projections().items()}
        got_arrays, want_arrays = _layer_arrays(got), _layer_arrays(want)
        assert got_arrays.keys() == want_arrays.keys()
        for name, b in want_arrays.items():
            a = got_arrays[name]
            assert a.dtype == b.dtype == np.float32 and np.array_equal(a, b), name


def test_write_outputs_copies_no_float32_model(setup):
    # A compressed float32 model goes to the container as it is: the tensor
    # map write_outputs hands the writer holds the model's own arrays.
    cfg, model, calib, _ = setup
    compressed, _, _ = compress_model(model_from_tensors(cfg, model_to_tensors(model)), _plan(0.5), calib)
    own = {id(a) for a in _model_arrays(compressed, copy=False)}
    floats = [a for a in model_to_tensors(compressed).values() if a.dtype.kind == "f"]
    assert len(floats) == len(own) and all(id(a) in own for a in floats)


@pytest.mark.parametrize("pruned", ["heads and channels", "channels"])
def test_compress_rejects_an_already_pruned_model(setup, tmp_path, pruned):
    cfg, model, calib, _ = setup
    plan = _plan(0.5, mha_method="head_prune")
    out = tmp_path / "once"
    pipeline.write_outputs(out, *compress_model(model, plan, calib))
    again, _ = pipeline.load_any_model(out)
    if pruned == "channels":  # dense attention, pruned FFN in layer 0
        layer = again.layers[0]
        ffn = {p: layer.projections()[p] for p in store.FFN_PROJS}
        again = model.replace_layer(0, model.layers[0].with_projections(ffn))
    with pytest.raises(ManifestError, match="compressed once"):
        compress_model(again, plan, calib)


@pytest.mark.parametrize("keep", [0.3, 0.5, 0.8])
def test_head_pruning_slices_the_rows_of_the_kept_heads(setup, keep):
    # Each kept head's head_dim rows of q, k and v and columns of o, in head order.
    cfg, model, calib, _ = setup
    compressed, manifest, _ = compress_model(model, _plan(keep, mha_method="head_prune"), calib)
    for dense, pruned, rec in zip(model.layers, compressed.layers, manifest["layers"]):
        h = cfg.head_dim
        rows = np.concatenate([np.arange(k * h, (k + 1) * h) for k in rec["kept_heads"]])
        for name in ("q", "k", "v"):
            assert getattr(pruned, name).w.tobytes() == getattr(dense, name).w[rows, :].tobytes()
        assert pruned.o.w.tobytes() == dense.o.w[:, rows].tobytes()


def test_compress_rejects_a_layer_sliced_by_hand(setup):
    # Dense projections at a width the config does not give are a pruned layer
    # too: the weight shapes, not a field beside them, say it was compressed.
    cfg, model, calib, _ = setup
    layer, n = model.layers[1], cfg.ffn_dim // 2
    sliced = layer.with_projections(
        {"gate_proj": transformer.Dense(layer.gate.w[:n]), "up_proj": transformer.Dense(layer.up.w[:n]),
         "down_proj": transformer.Dense(layer.down.w[:, :n])}
    )
    with pytest.raises(ManifestError, match="gate_proj not dense at .*compressed once"):
        compress_model(model.replace_layer(1, sliced), _plan(0.5), calib)


def test_manifest_global_fields(setup):
    cfg, model, calib, _ = setup
    _, manifest, _ = compress_model(model, _plan(0.5), calib, calib_sha256="deadbeef")
    g = manifest["global"]
    assert g["layer_keep_ratio"] == 0.5
    assert g["aggregation"] == "l2"
    assert g["retain_least"] == 0.01
    assert g["seed"] == 7
    assert g["calibration"]["sha256"] == "deadbeef"
    assert g["calibration"]["resampled_per_layer"] is False
    assert manifest["config"] == cfg.to_dict()


def test_plan_from_ratio_s(setup):
    cfg, model, calib, _ = setup
    plan = pipeline.plan_from_ratio_s(cfg, 0.2, calib_samples=16, calib_tokens=32)
    ratio_l = store.plan_ratio(cfg, 0.2)
    assert plan.keep_ratio == pytest.approx(1.0 - ratio_l)
    assert plan.target_ratio_s == 0.2
    with pytest.raises(InfeasibleRatioError):  # layer ratio ~1.20 on the toy shape
        pipeline.plan_from_ratio_s(cfg, 0.9)


def test_propagation_uses_compressed_prefix(setup):
    # statistics for layer 1 must differ between the dense model and the
    # model whose layer 0 was already compressed
    cfg, model, calib, _ = setup
    from rankprune.transformer import collect_stats

    windows, _ = sample_calibration_windows(calib, 8, 32, seed=0)
    dense_stats = collect_stats(model, windows)[1]
    compressed, _, _ = compress_model(model, _plan(0.35), calib)
    # rebuild a hybrid: compressed layer 0, dense layer 1
    hybrid = model.replace_layer(0, compressed.layers[0])
    hybrid_stats = collect_stats(hybrid, windows)[1]
    assert not np.allclose(dense_stats["attn_input"], hybrid_stats["attn_input"])


@pytest.fixture(scope="module")
def deep_setup():
    cfg = synth.toy_config(n_layers=4)
    model = helpers.make_random_model(cfg, seed=3)
    return model, helpers.random_token_stream(1024, seed=4), _plan(0.5, calib_samples=5, calib_tokens=24)


def _reforward_x_din(model, windows, layer):
    """Oracle: re-forward every window through layers 0..layer and sum the
    squares of each site's capture in sample order."""
    acc = None
    for window in windows:
        caps = helpers.captured_sites(model, window, n_layers=layer + 1)
        sq = {site: np.einsum("lj,lj->j", caps[(layer, site)], caps[(layer, site)]) for site in ALL_SITES}
        acc = sq if acc is None else {site: acc[site] + sq[site] for site in ALL_SITES}
    return {site: np.sqrt(v) for site, v in acc.items()}


def test_carried_state_stats_equal_reforward_oracle(deep_setup, monkeypatch):
    model, stream, plan = deep_setup
    seen = []

    def spy(work, states, layer):
        stats = transformer.layer_stats(work, states, layer)
        seen.append(stats)
        return stats

    monkeypatch.setattr(pipeline, "layer_stats", spy)
    compressed, _, _ = compress_model(model, plan, stream)
    windows, _ = sample_calibration_windows(stream, plan.calib_samples, plan.calib_tokens, plan.seed)
    assert len(seen) == model.config.n_layers
    for k, stats in enumerate(seen):
        hybrid = model  # first k layers compressed, the rest dense
        for j in range(k):
            hybrid = hybrid.replace_layer(j, compressed.layers[j])
        oracle = _reforward_x_din(hybrid, windows, k)
        for site in ALL_SITES:
            assert np.array_equal(stats[site], oracle[site]), (k, site)


def test_compress_runs_2l_minus_1_layer_passes_per_window(deep_setup, monkeypatch):
    model, stream, plan = deep_setup
    passes = []
    layer_forward = transformer._layer_forward
    # compression swaps a layer's projections but keeps its norm arrays
    index = {id(layer.attn_norm): i for i, layer in enumerate(model.layers)}

    def counting(cfg, layer, x, *args, **kwargs):
        passes.append(index[id(layer.attn_norm)])
        return layer_forward(cfg, layer, x, *args, **kwargs)

    monkeypatch.setattr(transformer, "_layer_forward", counting)
    compress_model(model, plan, stream)
    n_layers, samples = model.config.n_layers, plan.calib_samples
    assert len(passes) == samples * (2 * n_layers - 1)
    # a stats pass per layer, plus an advance through every layer but the last
    assert [passes.count(i) for i in range(n_layers)] == [2 * samples] * (n_layers - 1) + [samples]


def test_compress_model_frees_a_dense_layer_it_holds_alone(setup, monkeypatch):
    # The caller hands over its only reference: layer 0's dense weights,
    # all replaced at keep 0.5, must be gone before layer 1's statistics.
    cfg, _, calib, _ = setup
    dense_refs = []

    def handed_over_model():
        model = synth.make_planted_model(cfg, seed=0)
        dense_refs.extend(weakref.ref(proj.w) for proj in model.layers[0].projections().values())
        return model

    alive_at = {}
    real_layer_stats = pipeline.layer_stats

    def checking_layer_stats(model, states, layer):
        alive_at[layer] = [ref() is not None for ref in dense_refs]
        return real_layer_stats(model, states, layer)

    monkeypatch.setattr(pipeline, "layer_stats", checking_layer_stats)
    _, manifest, _ = compress_model(handed_over_model(), _plan(0.5), calib)
    plan = manifest["global"]["plan"]
    assert {s["kind"] for s in plan["mha"]["schemes"].values()} == {"factored"}
    assert plan["ffn"]["retained_count"] < cfg.ffn_dim
    assert alive_at == {0: [True] * 7, 1: [False] * 7}


def _model_arrays(model, copy=True):
    """Every float array of a model, in a fixed order."""
    arrays = [model.embed, model.lm_head, model.final_norm]
    for layer in model.layers:
        arrays += [layer.attn_norm, layer.ffn_norm]
        arrays += [a for proj in layer.projections().values() for a in vars(proj).values()]
    return [a.copy() for a in arrays] if copy else arrays


def test_compress_model_leaves_a_kept_model_unchanged(setup):
    cfg, model, calib, _ = setup
    before = _model_arrays(model)
    compress_model(model, _plan(0.5), calib)
    after = _model_arrays(model)
    assert len(before) == len(after)
    assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(before, after))


def test_record_evaluation_updates_report(setup, tmp_path):
    cfg, model, calib, evalset = setup
    compressed, manifest, report = compress_model(model, _plan(0.5), calib)
    out = tmp_path / "run"
    pipeline.write_outputs(out, compressed, manifest, report)
    ppl, wall = perplexity(compressed, evalset, 64), 0.25
    pipeline.record_evaluation(out / "report.json", report, "eval.bin", ppl, wall)
    updated = json.loads((out / "report.json").read_text())
    assert updated["evaluations"]["eval.bin"] == ppl
    assert "eval_wall_time_s" in updated["timing"]["eval.bin"]


def test_report_weighted_errors_recorded(setup):
    cfg, model, calib, _ = setup
    _, manifest, report = compress_model(model, _plan(0.5), calib)
    assert manifest["global"]["plan"]["mha"]["schemes"]["q_proj"]["kind"] == "factored"
    assert report["layers"][0]["q_proj"]["weighted_error"] > 0.0
    assert manifest["global"]["plan"]["ffn"]["retained_count"] == 86  # round(0.5 * 172)


@pytest.mark.parametrize("ffn", store.FFN_METHODS)
@pytest.mark.parametrize("mha", store.MHA_METHODS)
def test_params_and_report_entries_follow_the_plan(setup, mha, ffn):
    cfg, model, calib, _ = setup
    compressed, manifest, report = compress_model(model, _plan(0.5, mha_method=mha, ffn_method=ffn), calib)
    params = manifest["global"]["params"]
    # The layout count agrees with a walk of each model in memory.
    assert params["source_total"] == count_params_macs(model, 1)[0]
    assert params["compressed_total"] == count_params_macs(compressed, 1)[0]
    for total, m in (("layer_source", model), ("layer_retained", compressed)):
        assert params[total] == sum(p.n_params for layer in m.layers for p in layer.projections().values())
    assert [report[k] for k in ("params_before", "params_after", "layer_params_before", "layer_params_after")] == [
        params[k] for k in ("source_total", "compressed_total", "layer_source", "layer_retained")
    ]
    # A report entry is one measurement per factored projection and nothing the plan says.
    ranks = store.planned_ranks(store.layer_plan(cfg, manifest["global"]))
    factored = {p for p, rank in ranks.items() if rank is not None}
    assert [set(entry) for entry in report["layers"]] == [{"layer", *factored}] * cfg.n_layers
    for i, entry in enumerate(report["layers"]):
        assert entry["layer"] == i
        for p in factored:
            assert entry[p].keys() == {"weighted_error"}
            assert np.isfinite(entry[p]["weighted_error"]) and entry[p]["weighted_error"] > 0.0


def test_plan_validation():
    with pytest.raises(ValueError):
        CompressionPlan(keep_ratio=0.0)
    with pytest.raises(ValueError):
        CompressionPlan(keep_ratio=1.2)
    with pytest.raises(ValueError):
        CompressionPlan(keep_ratio=0.5, retain_least=0.6)
    with pytest.raises(ValueError):
        CompressionPlan(keep_ratio=0.5, aggregation="l7")
    with pytest.raises(ValueError):
        CompressionPlan(keep_ratio=0.5, mha_method="magic")
    # Each of these once passed the plan and failed only later: in the calibration
    # RNG, at allocation, or when the written manifest was validated.
    for fields in (
        dict(keep_ratio=True),
        dict(seed=-5),
        dict(seed=2.5),
        dict(seed="x"),
        dict(alloc_ratio=(0.0, 1.0)),
        dict(alloc_ratio=(float("inf"), 1.0)),
        dict(target_ratio_s="x"),
    ):
        with pytest.raises(ValueError):
            CompressionPlan(**{"keep_ratio": 0.5, **fields})


@pytest.mark.parametrize("field", ["calib_samples", "calib_tokens"])
@pytest.mark.parametrize("value", [2.5, 8.0, True, 0, -1, "8"])
def test_calibration_counts_must_be_positive_ints(field, value):
    # A float or bool count once passed and failed only inside the calibration RNG.
    with pytest.raises(ValueError, match="calibration sample and token counts"):
        CompressionPlan(keep_ratio=0.5, **{field: value})


def test_allocation_runs_once_per_compress(setup, monkeypatch):
    from rankprune import lowrank

    cfg, model, calib, _ = setup
    # store.layer_plan imports allocate_mha from lowrank at call time, so the patch sees every call.
    made = []
    allocate = lowrank.allocate_mha
    monkeypatch.setattr(lowrank, "allocate_mha", lambda *args: made.append(args) or allocate(*args))
    compress_model(model, _plan(0.5), calib)
    assert cfg.n_layers > 1 and len(made) == 1


def test_a_plan_that_retains_no_channel_fails_before_any_layer_pass(setup, monkeypatch):
    # 0.002 of 172 channels rounds to none, and head_prune keeps one head of 4, so only
    # the FFN count fails: in store.layer_plan, before calibration runs a single layer.
    cfg, model, calib, _ = setup
    passes = []
    layer_forward = transformer._layer_forward
    monkeypatch.setattr(transformer, "_layer_forward", lambda *args, **kw: passes.append(1) or layer_forward(*args, **kw))
    with pytest.raises(AllocationError, match=f"keep_ratio 0.002 retains no channel of {cfg.ffn_dim}"):
        compress_model(model, _plan(0.002, mha_method="head_prune", retain_least=0.0), calib)
    assert passes == []


def test_a_compress_that_strays_from_its_plan_is_refused(setup, tmp_path, monkeypatch):
    cfg, model, calib, _ = setup
    compress_mha = pipeline.compress_mha

    def short_q(weights, x_din, ranks):
        return compress_mha(weights, x_din, {**ranks, "q_proj": ranks["q_proj"] - 1})

    monkeypatch.setattr(pipeline, "compress_mha", short_q)
    compressed, manifest, report = compress_model(model, _plan(0.5), calib)
    r = manifest["global"]["plan"]["mha"]["schemes"]["q_proj"]["rank"]
    name = store.factor_names(store.weight_name(0, "q_proj"))[0]
    shapes = f"tensor '{name}' has shape ({cfg.dim}, {r - 1}), manifest implies ({cfg.dim}, {r})"
    with pytest.raises(ManifestError, match=re.escape(shapes)):
        pipeline.write_outputs(tmp_path / "out", compressed, manifest, report)
    assert not (tmp_path / "out").exists()


def _edit_every_container(node):
    """Add an entry to every dict and list inside node."""
    children = list(node.values()) if isinstance(node, dict) else list(node)
    for child in children:
        if isinstance(child, (dict, list)):
            _edit_every_container(child)
    if isinstance(node, dict):
        node["edited"] = True
    else:
        node.append("edited")


@pytest.mark.parametrize("mha, ffn", [("awsvd", "svd"), ("head_prune", "prune")])
def test_layer_records_share_nothing_with_each_other_or_the_plan(setup, monkeypatch, mha, ffn):
    cfg, model, calib, _ = setup
    plans = []
    layer_plan = store.layer_plan

    def recording_plan(*args):
        plans.append(layer_plan(*args))
        return plans[-1]

    monkeypatch.setattr(store, "layer_plan", recording_plan)
    _, manifest, _ = compress_model(model, _plan(0.5, mha_method=mha, ffn_method=ffn), calib)
    (planned,) = plans
    plan_before, others_before = copy.deepcopy(planned), copy.deepcopy(manifest["layers"][1:])
    _edit_every_container(manifest["layers"][0])
    assert planned == plan_before
    assert manifest["layers"][1:] == others_before


@pytest.fixture(scope="module")
def wide_setup():
    # 128 wide, the narrowest layer whose matrices compress_mha factors on threads.
    cfg = ModelConfig(dim=128, n_heads=2, head_dim=64, n_layers=2, ffn_dim=344, vocab_size=256)
    model = model_from_tensors(cfg, model_to_tensors(helpers.make_random_model(cfg, seed=5)))
    return model, helpers.random_token_stream(1024, seed=6)


@pytest.mark.parametrize("mha, ffn", [(mha, ffn) for mha in store.MHA_METHODS for ffn in store.FFN_METHODS])
def test_outputs_are_the_same_bytes_for_any_worker_count(wide_setup, tmp_path, monkeypatch, mha, ffn):
    model, calib = wide_setup
    plan = _plan(0.5, calib_samples=4, calib_tokens=32, mha_method=mha, ffn_method=ffn)
    outputs = []
    for workers in (0, 1, 2, 9):
        monkeypatch.setattr(util, "_workers", lambda: workers)
        out = tmp_path / f"{workers}-workers"
        pipeline.write_outputs(out, *compress_model(model, plan, calib))
        outputs.append({name: (out / name).read_bytes() for name in ("model.safetensors", "manifest.json", "report.json")})
    assert all(got == outputs[0] for got in outputs[1:])


def test_ffn_pruning_holds_about_two_float64_copies_of_one_matrix(heap_peak):
    # The scores are taken one matrix at a time and the float32 arrays are sliced
    # as they are, so no matrix is widened beside another.  Widening all three
    # together, as before, held 3.2 times the whole float32 FFN.
    rng = np.random.default_rng(41)
    d, d_m = 512, 1376
    weights = {"up_proj": rng.normal(size=(d_m, d)).astype(np.float32),
               "gate_proj": rng.normal(size=(d_m, d)).astype(np.float32),
               "down_proj": rng.normal(size=(d, d_m)).astype(np.float32)}
    x_by_proj = {"up_proj": rng.uniform(0.1, 2.0, d), "down_proj": rng.uniform(0.1, 2.0, d_m)}
    names = ("up_proj", "gate_proj", "down_proj")
    (maps, decision), peak = heap_peak(pipeline._prune, weights, x_by_proj, "l2", names, d_m // 2, 0.01)
    assert len(decision.retained) == d_m // 2
    assert all(proj.w.dtype == np.float32 for proj in maps.values())
    assert peak < 2.5 * d_m * d * 8


def test_awsvd_at_width_512_makes_no_full_svd(monkeypatch):
    # q/k get rank 64 and v/o rank 192 of 512 here; every factor pair must
    # come from the Gram eigendecomposition, not the full-SVD fallback.
    cfg = ModelConfig(dim=512, n_heads=8, head_dim=64, n_layers=1, ffn_dim=1376, vocab_size=256)
    model = synth.make_planted_model(cfg, seed=0)
    calib = helpers.random_token_stream(512, seed=3)
    calls = []
    full_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return full_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    _, manifest, _ = compress_model(model, _plan(0.5, calib_samples=4, calib_tokens=64), calib)
    ranks = {p: s["rank"] for p, s in manifest["global"]["plan"]["mha"]["schemes"].items()}
    assert ranks == {"q_proj": 64, "k_proj": 64, "v_proj": 192, "o_proj": 192}
    assert calls == []
