import json
import shutil

import numpy as np
import pytest

import helpers
from rankprune import store, synth
from rankprune.config import ModelConfig
from rankprune.container import read_container, write_container
from rankprune.errors import (
    AllocationError,
    ContainerFormatError,
    InfeasibleRatioError,
    ManifestError,
    MissingTensorError,
    ShapeMismatchError,
)
from rankprune.transformer import Dense, model_from_tensors, model_to_tensors


@pytest.fixture()
def toy_checkpoint(tmp_path, toy_cfg, random_model):
    path = tmp_path / "model.safetensors"
    write_container(path, model_to_tensors(random_model))
    return path


def test_load_model_roundtrip(toy_checkpoint, toy_cfg):
    weights = store.load_model(toy_checkpoint, toy_cfg)
    # 2 layers x (7 projections + 2 norms) + embed + head + final norm
    assert len(weights) == 2 * 9 + 3
    q = weights[store.weight_name(0, "q_proj")]
    assert q.shape == (64, 64)
    assert q.dtype == np.float32
    gate = weights[store.weight_name(1, "gate_proj")]
    assert gate.shape == (172, 64)


def test_load_model_ignores_extra_tensors(tmp_path, toy_cfg, random_model):
    tensors = model_to_tensors(random_model)
    tensors["model.layers.0.self_attn.rotary_emb.inv_freq"] = np.zeros(8, dtype=np.float32)
    path = tmp_path / "model.safetensors"
    write_container(path, tensors)
    weights = store.load_model(path, toy_cfg)
    assert "model.layers.0.self_attn.rotary_emb.inv_freq" not in weights


def test_load_model_missing_tensor(tmp_path, toy_cfg, random_model):
    tensors = model_to_tensors(random_model)
    del tensors[store.weight_name(1, "down_proj")]
    path = tmp_path / "model.safetensors"
    write_container(path, tensors)
    with pytest.raises(MissingTensorError, match="down_proj"):
        store.load_model(path, toy_cfg)


def test_load_model_transposed_shape(tmp_path, toy_cfg, random_model):
    tensors = model_to_tensors(random_model)
    name = store.weight_name(0, "up_proj")
    tensors[name] = tensors[name].T.copy()
    path = tmp_path / "model.safetensors"
    write_container(path, tensors)
    with pytest.raises(ShapeMismatchError, match="up_proj"):
        store.load_model(path, toy_cfg)


def test_load_model_empty_file(tmp_path, toy_cfg):
    path = tmp_path / "model.safetensors"
    path.write_bytes(b"")
    with pytest.raises(ContainerFormatError):
        store.load_model(path, toy_cfg)


def test_load_model_rejects_non_finite_weight(tmp_path, toy_cfg, random_model):
    tensors = model_to_tensors(random_model)
    tensors[store.weight_name(1, "v_proj")][3, 5] = np.nan
    path = tmp_path / "model.safetensors"
    write_container(path, tensors)
    with pytest.raises(ContainerFormatError, match="v_proj"):
        store.load_model(path, toy_cfg)


def test_load_model_holds_one_copy_of_the_float32_model(tmp_path, heap_peak):
    # F32 tensors are the arrays the container reader filled: loading F
    # float32 bytes holds F bytes, with no widened or converted copy.
    cfg = synth.toy_config(n_layers=4)
    tensors = model_to_tensors(helpers.make_random_model(cfg, seed=1))
    path = tmp_path / "model.safetensors"
    write_container(path, tensors)
    f32_bytes = sum(arr.nbytes for arr in tensors.values())
    weights, peak = heap_peak(store.load_model, path, cfg)
    assert all(arr.dtype == np.float32 for arr in weights.values())
    assert sum(arr.nbytes for arr in weights.values()) == f32_bytes
    assert peak <= f32_bytes + 64 * 1024


def test_load_model_widens_float16_to_float32(tmp_path, toy_cfg, random_model):
    tensors = {name: arr.astype(np.float16) for name, arr in model_to_tensors(random_model).items()}
    path = tmp_path / "model.safetensors"
    write_container(path, tensors)
    weights = store.load_model(path, toy_cfg)
    for name, arr in tensors.items():
        assert weights[name].dtype == np.float32
        np.testing.assert_array_equal(weights[name], arr.astype(np.float32))


# ---------------------------------------------------------------------------
# Ratio arithmetic


def test_llama_7b_param_total_matches_published():
    assert store.param_counts(store.LLAMA_SHAPES["7b"])["source_total"] == 6_738_415_616


# Published layer-ratio table for the 7B/13B/30B shapes at model ratios
# 0.1 .. 0.8 (values rounded to three decimals in the source).
RATIO_TABLE = {
    "7b": [0.104, 0.208, 0.312, 0.416, 0.520, 0.624, 0.728, 0.832],
    "13b": [0.103, 0.205, 0.308, 0.410, 0.513, 0.616, 0.718, 0.821],
    "30b": [0.101, 0.203, 0.304, 0.405, 0.507, 0.608, 0.709, 0.811],
}


@pytest.mark.parametrize("size", ["7b", "13b", "30b"])
def test_plan_ratio_reproduces_published_table(size):
    config = store.LLAMA_SHAPES[size]
    for ratio_s, expected in zip(np.arange(1, 9) / 10.0, RATIO_TABLE[size]):
        ratio_l = store.plan_ratio(config, float(ratio_s))
        assert ratio_l == pytest.approx(expected, abs=1e-3)


def test_plan_ratio_small_ratio_limit():
    config = store.LLAMA_SHAPES["7b"]
    ratio_l = store.plan_ratio(config, 1e-9)
    assert ratio_l < 1e-8


def test_plan_ratio_infeasible():
    config = store.LLAMA_SHAPES["7b"]
    with pytest.raises(InfeasibleRatioError):
        store.plan_ratio(config, 0.99)


def test_plan_ratio_rejects_out_of_range():
    config = store.LLAMA_SHAPES["7b"]
    with pytest.raises(ValueError):
        store.plan_ratio(config, 0.0)
    with pytest.raises(ValueError):
        store.plan_ratio(config, 1.0)


# ---------------------------------------------------------------------------
# Compressed output


def _compressed_toy(tmp_path, keep=0.5, d_m=172, mha_method="awsvd", ffn_method="prune"):
    from rankprune import pipeline

    config = ModelConfig(dim=64, n_heads=4, head_dim=16, n_layers=2, ffn_dim=d_m, vocab_size=256)
    model = helpers.make_random_model(config, seed=1, scale=0.05)
    calib = helpers.random_token_stream(4096, 3)
    plan = pipeline.CompressionPlan(
        keep_ratio=keep, calib_samples=8, calib_tokens=32, seed=0,
        mha_method=mha_method, ffn_method=ffn_method,
    )
    compressed, manifest, report = pipeline.compress_model(model, plan, calib)
    out = tmp_path / "out"
    pipeline.write_outputs(out, compressed, manifest, report)
    return config, compressed, manifest, out


def test_write_compressed_roundtrip_bitwise(tmp_path):
    config, _, _, out = _compressed_toy(tmp_path)
    tensors_a, _ = read_container(out / "model.safetensors")
    # write the loaded tensors again: bytes of every tensor must survive
    write_container(tmp_path / "again.st", tensors_a)
    tensors_b, _ = read_container(tmp_path / "again.st")
    assert set(tensors_a) == set(tensors_b)
    for name in tensors_a:
        assert tensors_a[name].tobytes() == tensors_b[name].tobytes()


def test_load_compressed_holds_one_copy_of_the_payload(tmp_path, heap_peak):
    # Like load_model: the float tensors are the arrays the reader filled;
    # the int32 index tensors are checked and not returned.
    config, _, _, out = _compressed_toy(tmp_path)
    on_disk, _ = read_container(out / "model.safetensors")
    disk_bytes = sum(arr.nbytes for arr in on_disk.values())
    (_, tensors, _), peak = heap_peak(store.load_compressed, out)
    assert tensors.keys() == {name for name, arr in on_disk.items() if arr.dtype.kind == "f"}
    assert all(arr.dtype == np.float32 for arr in tensors.values())
    index_bytes = sum(arr.nbytes for arr in on_disk.values() if arr.dtype.kind == "i")
    assert sum(arr.nbytes for arr in tensors.values()) == disk_bytes - index_bytes
    assert peak <= disk_bytes + 64 * 1024


def test_factored_tensor_shapes(tmp_path):
    # at keep 0.5 on the all-square toy MHA, q resolves to rank 8
    _, _, manifest, out = _compressed_toy(tmp_path, keep=0.5)
    tensors, _ = read_container(out / "model.safetensors")
    assert manifest["global"]["plan"]["mha"]["schemes"]["q_proj"] == {"kind": "factored", "rank": 8, "params": 1024}
    assert tensors["model.layers.0.self_attn.q_proj.L"].shape == (64, 8)
    assert tensors["model.layers.0.self_attn.q_proj.R"].shape == (8, 64)


def test_pruned_ffn_shapes(tmp_path):
    # keep 0.8 of 128 channels -> round(102.4) = 102 retained
    _, _, manifest, out = _compressed_toy(tmp_path, keep=0.8, d_m=128)
    tensors, _ = read_container(out / "model.safetensors")
    assert manifest["global"]["plan"]["ffn"]["retained_count"] == 102
    assert tensors["model.layers.0.mlp.up_proj.weight"].shape == (102, 64)
    assert tensors["model.layers.0.mlp.gate_proj.weight"].shape == (102, 64)
    assert tensors["model.layers.0.mlp.down_proj.weight"].shape == (64, 102)
    idx = tensors["model.layers.0.mlp.retained_channels"]
    assert idx.shape == (102,)
    assert idx.dtype == np.int32


def test_manifest_param_accounting(tmp_path, toy_cfg):
    _, _, manifest, out = _compressed_toy(tmp_path)
    tensors, _ = read_container(out / "model.safetensors")
    recorded = manifest["global"]["params"]["layer_retained"]
    projections = [a for name, a in tensors.items() if store.split_projection_name(name) is not None]
    assert all(a.dtype.kind == "f" for a in projections)
    assert recorded == sum(a.size for a in projections)


def test_manifest_tamper_detected(tmp_path):
    config, _, manifest, out = _compressed_toy(tmp_path)
    tampered = json.loads((out / "manifest.json").read_text())
    tampered["global"]["plan"]["mha"]["schemes"]["q_proj"]["rank"] = 9
    (out / "manifest.json").write_text(json.dumps(tampered))
    with pytest.raises(ManifestError):
        store.load_compressed(out)


@pytest.fixture(scope="module")
def head_pruned_out(tmp_path_factory):
    # pruned FFN channels and pruned heads in every layer
    return _compressed_toy(tmp_path_factory.mktemp("heads"), mha_method="head_prune")[3]


def _duplicate_channel(rec, tensors):
    idx = rec["retained_channels"]
    idx[1] = idx[0]
    tensors[store.retained_channels_name(0)][1] = idx[0]


def _channel_out_of_range(rec, tensors):
    idx = rec["retained_channels"]
    idx[-1] = 172
    tensors[store.retained_channels_name(0)][-1] = 172


def _bogus_provenance(rec, tensors):
    rec["provenance"][0] = "bogus"


def _provenance_one_short(rec, tensors):
    assert rec["provenance"].pop() == "top"  # the bottom quota still holds


def _all_bottom(rec, tensors):
    provenance = rec["provenance"]
    provenance[:] = ["bottom"] * len(provenance)


def _kept_heads_tensor_mismatch(rec, tensors):
    name = store.kept_heads_name(0)
    others = sorted(set(range(4)) - set(rec["kept_heads"]))
    tensors[name] = np.asarray(others[: len(tensors[name])], dtype=np.int32)


def _kept_heads_descending(rec, tensors):
    rec["kept_heads"].reverse()
    name = store.kept_heads_name(0)
    tensors[name] = tensors[name][::-1].copy()


def _float_rank(manifest, tensors):
    manifest["global"]["plan"]["mha"]["schemes"]["q_proj"]["rank"] = 8.0


def _bool_rank(manifest, tensors):
    # True == 1, so the factor tensors and the parameter total are cut to
    # rank 1 to leave the type as the only fault.
    manifest["global"]["plan"]["mha"]["schemes"]["q_proj"]["rank"] = True
    for side, cut in (("L", np.s_[:, :1]), ("R", np.s_[:1, :])):
        name = f"model.layers.0.self_attn.q_proj.{side}"
        tensors[name] = np.ascontiguousarray(tensors[name][cut])
    manifest["global"]["params"]["layer_retained"] -= 7 * (64 + 64)


def _float_count(manifest, tensors):
    manifest["global"]["plan"]["ffn"]["retained_count"] = 102.0


# A rank or count that is a float or bool compares equal to the int it
# stands for, so only a type check catches it.
@pytest.mark.parametrize(
    "corrupt, keep, d_m, message",
    [
        pytest.param(corrupt, keep, d_m, message, id=corrupt.__name__.lstrip("_"))
        for corrupt, keep, d_m, message in (
            (_float_rank, 0.5, 172, "global: plan.mha.schemes.q_proj.rank is 8.0; expected 8"),
            (_bool_rank, 0.5, 172, "global: plan.mha.schemes.q_proj.rank is True; expected 8"),
            (_float_count, 0.8, 128, "global: plan.ffn.retained_count is 102.0; expected 102"),
        )
    ],
)
def test_non_integer_rank_or_count_is_rejected(tmp_path, corrupt, keep, d_m, message):
    config, _, _, out = _compressed_toy(tmp_path, keep=keep, d_m=d_m)
    manifest = json.loads((out / "manifest.json").read_text())
    tensors, _ = read_container(out / "model.safetensors")
    store.validate_manifest(manifest, tensors, config)
    corrupt(manifest, tensors)
    with pytest.raises(ManifestError, match=message):
        store.validate_manifest(manifest, tensors, config)


def test_float_rank_exits_2_under_stats(tmp_path):
    from rankprune.cli import main

    _, _, _, out = _compressed_toy(tmp_path)
    manifest = json.loads((out / "manifest.json").read_text())
    _float_rank(manifest, None)
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert main(["stats", "--model", str(out)]) == 2


# Each corruption keeps the index tensors in step with the manifest where
# the rule allows it, so only the rule under test can catch it.
@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_duplicate_channel, "retained channels must be strictly ascending"),
        (_channel_out_of_range, "retained channels must be strictly ascending"),
        (_bogus_provenance, "provenance"),
        (_provenance_one_short, "provenance must hold one 'top' or 'bottom' per retained channel"),
        (_all_bottom, "marked bottom"),
        (_kept_heads_tensor_mismatch, "kept-heads tensor disagrees"),
        (_kept_heads_descending, "kept_heads must be strictly ascending"),
    ],
)
def test_corrupt_index_records_are_rejected(head_pruned_out, tmp_path, corrupt, message):
    import shutil

    from rankprune.cli import main

    out = tmp_path / "corrupt"
    shutil.copytree(head_pruned_out, out)
    manifest = json.loads((out / "manifest.json").read_text())
    tensors, meta = read_container(out / "model.safetensors")
    corrupt(manifest["layers"][0], tensors)
    (out / "manifest.json").write_text(json.dumps(manifest))
    write_container(out / "model.safetensors", tensors, metadata=meta)
    with pytest.raises(ManifestError, match=message):
        store.load_compressed(out)
    assert main(["stats", "--model", str(out)]) == 2


@pytest.fixture(scope="module")
def factored_out(tmp_path_factory):
    # factored attention and pruned FFN channels in every layer
    return _compressed_toy(tmp_path_factory.mktemp("factored"))[3]


def _off_by_one(path, delta, message):
    return pytest.param(path, delta, message, id=".".join(map(str, path)) + f"{delta:+d}")


PARAM_TOTALS = ("source_total", "compressed_total", "layer_source", "layer_retained", "realized_ratio_s")
MHA_PLAN_PATHS = (*(("schemes", proj, "params") for proj in store.ATTN_PROJS),
                  *((key,) for key in ("budget", "qk_budget", "vo_budget", "slack")))


# Each record is one off from what the config, the plan in global and the
# tensors imply.  A wider ffn_dim leaves a pruned output's tensors, channel
# range and bottom quota valid, but not the retained count it plans.  The
# MHA budget, its group shares, the slack and the scheme sizes follow from
# the plan, which global.plan records once.  A layer record holds only the
# calibration data: one that restates a plan field, as a format 1 layer
# record did (layers.i.mha...), is rejected whatever its value.
@pytest.mark.parametrize(
    "path, delta, message",
    [
        _off_by_one(("config", "ffn_dim"), 1, "global: plan.ffn.retained_count is 86; expected 87"),
        *(_off_by_one(("global", "params", key), d, key) for key in PARAM_TOTALS for d in (1, -1)),
        *(
            _off_by_one(("global", "plan", "mha", *sub), d, f"global: plan.mha.{'.'.join(sub)} is")
            for sub in MHA_PLAN_PATHS
            for d in (1, -1)
        ),
        *(
            _off_by_one(("layers", i, "mha", *sub), d, f"layer {i}: record is")
            for i in (0, 1)
            for sub in MHA_PLAN_PATHS
            for d in (1, -1)
        ),
        *(_off_by_one(("global", "calibration", "samples"), d, "window_starts") for d in (1, -1)),
        *(_off_by_one(("global", "calibration", "window_starts", 0), d, "window_starts") for d in (1, -1)),
    ],
)
def test_parameter_records_off_by_one_are_rejected(factored_out, tmp_path, path, delta, message):
    import shutil

    from rankprune.cli import main

    out = tmp_path / "corrupt"
    shutil.copytree(factored_out, out)
    manifest = json.loads((out / "manifest.json").read_text())
    # A layer path takes its value from the plan it restates.
    source = ("global", "plan", *path[2:]) if path[0] == "layers" else path
    helpers.set_leaf(manifest, path, _get_leaf(manifest, source) + delta)
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ManifestError, match=message):
        store.load_compressed(out)
    assert main(["stats", "--model", str(out)]) == 2


def _keep_ratio_of_layer_0(manifest):
    manifest["layers"][0]["keep_ratio"] = 0.5  # the keep ratio a format 1 layer record restated


def _global_keep_ratio(manifest):
    manifest["global"]["layer_keep_ratio"] = 0.9


def _one_window_start(manifest):
    del manifest["global"]["calibration"]["window_starts"][1:]


def _window_starts_descending(manifest):
    manifest["global"]["calibration"]["window_starts"].reverse()


@pytest.mark.parametrize(
    "corrupt, message",
    [
        pytest.param(corrupt, message, id=corrupt.__name__.lstrip("_"))
        for corrupt, message in (
            (_keep_ratio_of_layer_0, "layer 0: record is .*; expected exactly the keys"),
            (_global_keep_ratio, "global: plan.mha.schemes.q_proj.rank is 8; expected"),
            (_one_window_start, "window_starts must be 8 strictly ascending"),
            (_window_starts_descending, "window_starts must be 8 strictly ascending"),
        )
    ],
)
def test_plan_records_are_checked(factored_out, tmp_path, corrupt, message):
    import shutil

    from rankprune.cli import main

    out = tmp_path / "corrupt"
    shutil.copytree(factored_out, out)
    manifest = json.loads((out / "manifest.json").read_text())
    corrupt(manifest)
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ManifestError, match=message):
        store.load_compressed(out)
    assert main(["stats", "--model", str(out)]) == 2


def _get_leaf(tree, path):
    for key in path:
        tree = tree[key]
    return tree


# Edits that used to load, or to end in a traceback: the methods, aggregation,
# seed and alloc_ratio in global, the budgets and schemes of the recorded
# plan, and a layer record that restates alloc_ratio as format 1 did.
@pytest.mark.parametrize(
    "edits, message",
    [
        pytest.param({("global", "mha_method"): "head_prune"}, "global: plan.mha.schemes.q_proj.kind is 'factored'",
                     id="mha_method"),
        pytest.param({("global", "mha_method"): "bogus"}, "unknown methods 'bogus'/'prune'", id="mha_method-bogus"),
        pytest.param({("global", "ffn_method"): "svd"}, "global: plan.ffn is {'retained_count': 86}", id="ffn_method"),
        pytest.param({("global", "aggregation"): "l3"}, "aggregation must be one of", id="aggregation"),
        pytest.param({("global", "alloc_ratio"): [1, 1]}, "global: plan.mha.schemes.q_proj.rank is 8; expected 16",
                     id="alloc_ratio"),
        pytest.param({("global", "alloc_ratio"): "1:3"}, "alloc_ratio must be a list", id="alloc_ratio-string"),
        pytest.param({("global", "plan", "mha", "alloc_ratio"): [1.0, 3.0]}, "global: plan.mha is",
                     id="plan-alloc_ratio"),
        pytest.param({("layers", 0, "mha", "alloc_ratio"): [1.0, 3.0]}, "layer 0: record is", id="layer-alloc_ratio"),
        pytest.param({("global", "plan", "mha", "qk_budget"): 6144, ("global", "plan", "mha", "vo_budget"): 2048},
                     "global: plan.mha.qk_budget is 6144; expected 2048", id="budgets-swapped"),
        pytest.param({("global", "plan", "mha", "schemes"): list(store.ATTN_PROJS)},
                     r"global: plan.mha.schemes is \['q_proj'", id="schemes-list"),
        *(pytest.param({("global", "seed"): seed}, "seed must be a non-negative integer", id=f"seed-{seed}")
          for seed in ("x", -5, 2.5)),
    ],
)
def test_edits_of_the_plan_are_rejected(factored_out, tmp_path, edits, message):
    import shutil

    from rankprune.cli import main

    out = tmp_path / "corrupt"
    shutil.copytree(factored_out, out)
    manifest = json.loads((out / "manifest.json").read_text())
    for path, value in edits.items():
        helpers.set_leaf(manifest, path, value)
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ManifestError, match=message):
        store.load_compressed(out)
    assert main(["stats", "--model", str(out)]) == 2


def _arrays(proj):
    return (proj.w,) if isinstance(proj, Dense) else (proj.l, proj.r)


def _f32(a):
    return np.asarray(a, dtype=np.float32).astype(np.float64)


@pytest.mark.parametrize("ffn_method", ["prune", "svd"])
@pytest.mark.parametrize("mha_method", ["awsvd", "svd", "head_prune"])
def test_load_compressed_rebuilds_the_written_model(tmp_path, mha_method, ffn_method):
    _, want, _, out = _compressed_toy(tmp_path, mha_method=mha_method, ffn_method=ffn_method)
    got = model_from_tensors(*store.load_compressed(out)[:2])
    for name in ("embed", "final_norm", "lm_head"):
        np.testing.assert_array_equal(getattr(got, name), _f32(getattr(want, name)))
    for want_layer, got_layer in zip(want.layers, got.layers, strict=True):
        for name in ("attn_norm", "ffn_norm"):
            np.testing.assert_array_equal(getattr(got_layer, name), _f32(getattr(want_layer, name)))
        got_projs = got_layer.projections()
        for name, proj in want_layer.projections().items():
            assert type(got_projs[name]) is type(proj), name
            for a, b in zip(_arrays(got_projs[name]), _arrays(proj), strict=True):
                np.testing.assert_array_equal(a, _f32(b), err_msg=name)


def test_one_layer_plan_per_manifest_validation(tmp_path, monkeypatch):
    # The validator lays out the tensors from the plan it already built.
    from rankprune import pipeline

    config, compressed, manifest, out = _compressed_toy(tmp_path)
    report = json.loads((out / "report.json").read_text())
    calls, layer_plan = [], store.layer_plan
    monkeypatch.setattr(store, "layer_plan", lambda *args: calls.append(args) or layer_plan(*args))
    store.load_compressed(out)
    assert len(calls) == 1
    pipeline.write_outputs(tmp_path / "again", compressed, manifest, report)
    assert len(calls) == 2


def test_load_compressed_rejects_non_finite_factor(tmp_path):
    _, _, _, out = _compressed_toy(tmp_path)
    tensors, meta = read_container(out / "model.safetensors")
    name = "model.layers.0.self_attn.q_proj.L"
    tensors[name][0, 0] = np.inf
    write_container(out / "model.safetensors", tensors, metadata=meta)
    with pytest.raises(ContainerFormatError, match="q_proj.L"):
        store.load_compressed(out)


def test_write_compressed_rejects_inconsistent_pair(tmp_path):
    config, compressed, manifest, out = _compressed_toy(tmp_path)
    tensors = model_to_tensors(compressed)
    bad = json.loads(json.dumps(manifest))
    bad["global"]["plan"]["ffn"]["retained_count"] += 1
    with pytest.raises(ManifestError):
        store.write_compressed(tmp_path / "bad", tensors, bad)


def test_write_compressed_builds_the_index_tensors_from_the_manifest(tmp_path):
    # Given the weights alone, the container's index tensors are the manifest's
    # lists; an index tensor the caller passes is checked against its list.
    _, compressed, manifest, _ = _compressed_toy(tmp_path, mha_method="head_prune")
    weights = model_to_tensors(compressed)
    assert all(arr.dtype == np.float32 for arr in weights.values())
    tensors, _ = read_container(store.write_compressed(tmp_path / "w", weights, manifest))
    for i, rec in enumerate(manifest["layers"]):
        for name, key in ((store.kept_heads_name(i), "kept_heads"),
                          (store.retained_channels_name(i), "retained_channels")):
            assert tensors[name].dtype == np.int32 and tensors[name].tolist() == rec[key], name
    for name, message in ((store.kept_heads_name(1), "kept-heads tensor disagrees"),
                          (store.retained_channels_name(1), "index tensor disagrees")):
        with pytest.raises(ManifestError, match=message):
            store.write_compressed(tmp_path / "bad", {**weights, name: tensors[name][::-1].copy()}, manifest)
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("key", ["kept_heads", "retained_channels"])
@pytest.mark.parametrize("value", [["a"], [2**40], [[0], [1, 2]], None, [0.5, 1.5], [[0, 1]]])
def test_write_compressed_rejects_a_list_that_is_no_index_list(head_pruned_out, tmp_path, key, value):
    # The index tensors are built from the manifest before it is validated, so
    # a list that makes no int32 array is a ManifestError like any other fault.
    _, weights, manifest = store.load_compressed(head_pruned_out)
    manifest["layers"][0][key] = value
    with pytest.raises(ManifestError):
        store.write_compressed(tmp_path / "bad", weights, manifest)
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("config", [{}, None, "dim 65", "absent"])
def test_a_manifest_without_a_usable_config_is_a_manifest_error(head_pruned_out, tmp_path, config):
    # Writing and loading hold a manifest's config to the one guard.
    _, weights, manifest = store.load_compressed(head_pruned_out)
    if config == "absent":
        del manifest["config"]
    else:
        manifest["config"] = {**manifest["config"], "dim": 65} if config == "dim 65" else config
    with pytest.raises(ManifestError, match="no usable model config"):
        store.write_compressed(tmp_path / "bad", weights, manifest)
    assert not (tmp_path / "bad").exists()
    out = tmp_path / "edited"
    shutil.copytree(head_pruned_out, out)
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ManifestError, match="no usable model config"):
        store.load_compressed(out)


# ---------------------------------------------------------------------------
# Container layout

METHOD_PAIRS = [(mha, ffn) for mha in ("awsvd", "svd", "head_prune") for ffn in ("prune", "svd")]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """(config, compressed model, manifest, written tensors) per method pair."""
    out = {}
    for mha, ffn in METHOD_PAIRS:
        config, compressed, manifest, path = _compressed_toy(
            tmp_path_factory.mktemp(f"{mha}-{ffn}"), mha_method=mha, ffn_method=ffn
        )
        out[mha, ffn] = config, compressed, manifest, read_container(path / "model.safetensors")[0]
    return out


def test_dense_layout_is_the_serialized_model(toy_cfg, random_model):
    assert store.expected_shapes(toy_cfg) == {name: a.shape for name, a in model_to_tensors(random_model).items()}


@pytest.mark.parametrize("mha, ffn", METHOD_PAIRS)
def test_compressed_layout_is_the_serialized_model(outputs, mha, ffn):
    config, _, manifest, tensors = outputs[mha, ffn]
    shapes = {name: a.shape for name, a in tensors.items()}
    assert store.expected_shapes(config, manifest) == shapes


def _other_scheme(name):
    """A projection tensor of the scheme the manifest does not declare."""
    layer, proj, suffix = store.split_projection_name(name)
    weight = store.weight_name(layer, proj.name)
    return store.factor_names(weight)[0] if suffix == "weight" else weight


@pytest.mark.parametrize("mha, ffn", METHOD_PAIRS)
def test_every_tensor_mutation_is_rejected(outputs, mha, ffn):
    config, _, manifest, tensors = outputs[mha, ffn]
    store.validate_manifest(manifest, tensors, config)
    accepted = []
    for name, arr in tensors.items():
        mutations = {
            "dropped": {k: v for k, v in tensors.items() if k != name},
            "shrunk": {**tensors, name: arr[:-1]},
            "stray": {**tensors, name + ".stray": arr},
        }
        if store.split_projection_name(name) is not None:
            mutations["other scheme"] = {**tensors, _other_scheme(name): arr}
        for kind, mutated in mutations.items():
            try:
                store.validate_manifest(manifest, mutated, config)
            except ManifestError:
                continue
            accepted.append(f"{kind} {name}")
    assert accepted == []


@pytest.mark.parametrize("name, dtype", [(store.weight_name(0, "up_proj"), np.int32),
                                         (store.retained_channels_name(0), np.float32)])
def test_tensor_of_the_wrong_kind_is_rejected(outputs, name, dtype):
    config, _, manifest, tensors = outputs["awsvd", "prune"]
    with pytest.raises(ManifestError, match="dtype"):
        store.validate_manifest(manifest, {**tensors, name: tensors[name].astype(dtype)}, config)


# ---------------------------------------------------------------------------
# Manifest sweep


# Edits that must load: they leave every shape and count as written, so no
# check can tell them from the tensors.  Each is asserted to load, so this
# list cannot outlive the rule that admits it.
PROVENANCE_EDITS = {
    "global.seed +1",
    "global.calibration.sha256 bogus",
    "global.target_ratio_s float",
    "global.mha_method awsvd<->svd",  # one layout: svd is awsvd at unit weights
    "global.aggregation l2->l1",  # scores are not recorded
    "global.retain_least same quota",  # 0.005 of 172 channels keeps the one bottom channel of 0.01
    "config.norm_eps x2",
}


@pytest.mark.parametrize("mha, ffn", METHOD_PAIRS)
def test_every_manifest_leaf_edit_exits_2(tmp_path, capsys, monkeypatch, mha, ffn):
    from rankprune import cli

    out = _compressed_toy(tmp_path, mha_method=mha, ffn_method=ffn)[3]
    written = json.loads((out / "manifest.json").read_text())
    assert written["format_version"] == 2 and written["global"]["retain_least"] == 0.01
    edits = [(path, label, edit)
             for path, value in helpers.json_leaves(written) for label, edit in helpers.leaf_edits(value).items()]
    edits += [
        (("config", "norm_eps"), "x2", 2 * written["config"]["norm_eps"]),
        (("global", "aggregation"), "l2->l1", "l1"),
        (("global", "retain_least"), "same quota", 0.005),
        (("global", "retain_least"), "new quota", 0.02),  # 3 bottom channels of 172
    ]
    if mha != "head_prune":
        edits.append((("global", "mha_method"), "awsvd<->svd", {"awsvd": "svd", "svd": "awsvd"}[mha]))
    # Each edit runs `stats` once; what load_compressed raised in it is kept.
    raised = []
    load = store.load_compressed

    def recording_load(path):
        try:
            return load(path)
        except Exception as exc:
            raised.append(type(exc))
            raise

    monkeypatch.setattr(store, "load_compressed", recording_load)
    results = {}
    for path, label, edit in edits:
        manifest = json.loads(json.dumps(written))
        helpers.set_leaf(manifest, path, edit)
        (out / "manifest.json").write_text(json.dumps(manifest))
        raised.clear()
        code = cli.main(["stats", "--model", str(out)])
        results[f"{'.'.join(map(str, path))} {label}"] = code, raised[0] if raised else None
    capsys.readouterr()
    loads, rejected = (0, None), ((2, ManifestError), (2, ContainerFormatError))
    assert {name: r for name, r in results.items() if r != loads and r not in rejected} == {}
    want = PROVENANCE_EDITS - ({"global.mha_method awsvd<->svd"} if mha == "head_prune" else set())
    if ffn == "svd":  # no channel is pruned, so no quota can be checked
        want = want | {"global.retain_least new quota"}
    assert {name for name, r in results.items() if r == loads} == want


# The keys of a layer record: its index and what the calibration data decided.
DATA_KEYS = {
    ("awsvd", "prune"): {"layer", "retained_channels", "provenance"},
    ("svd", "prune"): {"layer", "retained_channels", "provenance"},
    ("head_prune", "prune"): {"layer", "kept_heads", "retained_channels", "provenance"},
    ("awsvd", "svd"): {"layer"},
    ("svd", "svd"): {"layer"},
    ("head_prune", "svd"): {"layer", "kept_heads"},
}


@pytest.mark.parametrize("mha, ffn", METHOD_PAIRS)
def test_manifest_records_the_plan_once(outputs, mha, ffn):
    config, _, manifest, _ = outputs[mha, ffn]
    assert manifest["format_version"] == 2
    assert [set(rec) for rec in manifest["layers"]] == [DATA_KEYS[mha, ffn]] * config.n_layers
    assert [rec["layer"] for rec in manifest["layers"]] == list(range(config.n_layers))
    plan = manifest["global"]["plan"]
    assert plan == store.layer_plan(config, manifest["global"])
    # The plan keeps what the allocation and counts decided, and none of the
    # global fields it is derived from.
    mha_keys = {"schemes", "kept_head_count", "budget", "qk_budget", "vo_budget", "slack"}
    assert set(plan) == {"mha", "ffn"} and set(plan["mha"]) == mha_keys
    assert set(plan["ffn"]) == ({"retained_count"} if ffn == "prune" else {"ranks"})
    assert not (mha_keys | set(plan["ffn"])) & set(manifest["global"])


def test_a_plan_that_retains_no_channel_is_an_allocation_error(toy_cfg):
    # 0.002 of 172 channels rounds to none; head_prune keeps one head, so only the FFN count is refused.
    from rankprune import pipeline

    global_plan = pipeline.CompressionPlan(keep_ratio=0.002, retain_least=0.0, mha_method="head_prune").global_fields()
    with pytest.raises(AllocationError, match=f"keep_ratio 0.002 retains no channel of {toy_cfg.ffn_dim}"):
        store.layer_plan(toy_cfg, global_plan)
    global_plan["ffn_method"] = "svd"  # a factored FFN retains no channel count to refuse
    assert "ranks" in store.layer_plan(toy_cfg, global_plan)["ffn"]


@pytest.mark.parametrize("version", [1, 3, "2", None])
def test_manifest_of_another_format_version_is_rejected(factored_out, tmp_path, version):
    import shutil

    out = tmp_path / "other"
    shutil.copytree(factored_out, out)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["format_version"] = version
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ManifestError, match=f"format_version {version!r}; .* re-run compress"):
        store.load_compressed(out)
