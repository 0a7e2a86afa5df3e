"""Layer-by-layer compression orchestration.

Each calibration window is embedded once and its hidden state is carried
from layer to layer.  For each layer in order: run the dense layer on
every state to collect input-norm statistics, factor the attention
matrices under the allocated budget, prune the FFN channel groups, then
advance every state through the compressed layer - so the statistics of
layer i+1 always see the output of the compressed layer i.  That is
2L-1 layer passes per window for L layers.  The layer passes run in the
model's dtype (see `transformer`): for a model loaded from disk the
carried states take samples x tokens x dim float32 values, 4 bytes each
(about 4.3 GB at 128 x 2048 x 4096).  Statistics, factors, errors and
scores are computed in float64, and each compressed projection is cast
to the dtype of the dense projection it replaces before the states
advance through it, so they advance through exactly the factors that
are written.  The run is bit-deterministic given (model bytes,
calibration bytes, seed, plan).  The plan (`store.layer_plan`) fixes
every layer's attention ranks and FFN channel counts once per run; each
layer is factored at those ranks in one `compress_mha` call.  The
manifest records the plan once, as `global.plan`, and per layer only
what the calibration data decided (kept heads, retained channels,
provenance; `_layer_record`).  Every parameter total, in the manifest
and the report, is `store.param_counts` of the plan's layout; the MAC
totals come from `transformer.count_params_macs`.  The report holds
measurements only: per layer, the weighted error of each factored
projection, beside the parameter and MAC totals and, once
`eval --update-report` has run, the evaluations and their timing.

`compress_model` never changes the model it is given.  Once the windows
are embedded it refers to the model only through the one it is building,
so a caller that hands over its only reference (as `cli compress` does)
gets each dense layer freed as soon as its compressed layer replaces it,
and the dense and compressed models are never both whole in memory.  A
caller that keeps its model keeps all of it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import pruning, store
from .config import ModelConfig
from .errors import CalibrationError, DataError, DecompositionError, ManifestError
from .lowrank import compress_mha
from .store import FFN_METHODS, MANIFEST_VERSION, MHA_METHODS, RatioPlan  # noqa: F401 - the methods are re-exported
from .transformer import (
    Dense,
    Factored,
    TransformerLayer,
    TransformerModel,
    advance,
    check_tokens,
    count_params_macs,
    embed,
    layer_stats,
    load_dense_model,
    model_from_tensors,
    model_to_tensors,
    perplexity,
)
from .util import canonical_json


@dataclass(frozen=True)
class CompressionPlan:
    """Resolved knobs for one compression run.

    keep_ratio is the fraction of each transformer layer's parameters to
    retain; the same value drives the MHA budget and the FFN retained
    fraction for every layer (uniform-layer policy).  target_ratio_s
    records the whole-model removal fraction when the plan was derived
    from one via the ratio arithmetic.
    """

    keep_ratio: float
    alloc_ratio: tuple[float, float] = (1.0, 3.0)
    aggregation: str = "l2"
    retain_least: float = 0.01
    seed: int = 0
    calib_samples: int = 128
    calib_tokens: int = 128
    mha_method: str = "awsvd"
    ffn_method: str = "prune"
    target_ratio_s: float | None = None

    def __post_init__(self):
        store.check_plan(self.global_fields())
        if not all(type(n) is int and n >= 1 for n in (self.calib_samples, self.calib_tokens)):
            raise ValueError("calibration sample and token counts must be integers >= 1")

    def global_fields(self) -> dict:
        """The plan as a manifest's `global` records it."""
        return {
            "layer_keep_ratio": self.keep_ratio,
            "target_ratio_s": self.target_ratio_s,
            "alloc_ratio": list(self.alloc_ratio),
            "aggregation": self.aggregation,
            "retain_least": self.retain_least,
            "seed": self.seed,
            "mha_method": self.mha_method,
            "ffn_method": self.ffn_method,
        }


def plan_from_ratio_s(config: ModelConfig, ratio_s: float, **knobs) -> CompressionPlan:
    """Derive the per-layer keep fraction from a whole-model removal target.

    The parameter total is that of a dense checkpoint with config's shapes
    (store.dense_param_total), the only kind `compress` reads.
    """
    ratio_plan: RatioPlan = store.plan_ratio(config, store.dense_param_total(config), ratio_s)
    return CompressionPlan(keep_ratio=ratio_plan.layer_keep, target_ratio_s=ratio_s, **knobs)


def sample_calibration_windows(
    stream: np.ndarray, n_samples: int, window: int, seed: int
) -> tuple[list[np.ndarray], list[int]]:
    """Seeded uniform choice of n non-overlapping windows.

    The stream is partitioned into aligned, disjoint blocks of `window`
    tokens and n of them are drawn without replacement, which guarantees
    non-overlap and reproducibility.  n_samples or window below 1 is a
    ValueError.
    """
    if n_samples < 1 or window < 1:
        raise ValueError(f"calibration needs >= 1 sample of >= 1 token, got {n_samples} x {window}")
    stream = np.asarray(stream)
    n_blocks = stream.size // window
    if n_blocks < n_samples:
        raise CalibrationError(
            f"calibration stream has {stream.size} tokens, only {n_blocks} disjoint "
            f"windows of {window}; {n_samples} requested"
        )
    rng = np.random.default_rng(seed)
    starts = sorted(int(b) * window for b in rng.choice(n_blocks, size=n_samples, replace=False))
    return [stream[s : s + window] for s in starts], starts


def _dense_weights(layer: TransformerLayer) -> dict[str, np.ndarray]:
    if layer.kept_heads is not None or layer.retained_channels is not None:
        raise ManifestError("layer to compress is already head- or channel-pruned; layers are compressed once")
    projs = layer.projections()
    for name, proj in projs.items():
        if not isinstance(proj, Dense):
            raise ManifestError(f"layer to compress has non-dense {name}; layers are compressed once")
    return {name: proj.w for name, proj in projs.items()}


def compress_model(
    model: TransformerModel,
    plan: CompressionPlan,
    calib_stream: np.ndarray,
    calib_sha256: str = "",
) -> tuple[TransformerModel, dict, dict]:
    """Run the full pipeline; returns (compressed model, manifest, report).

    `model` is left unchanged; pass its only reference to let each dense
    layer go once it is compressed (see the module docstring).  Every id of
    `calib_stream`, sampled or not, must be inside the vocabulary (DataError).
    """
    cfg = model.config
    calib, starts = sample_calibration_windows(
        calib_stream, plan.calib_samples, plan.calib_tokens, plan.seed
    )
    check_tokens(model, calib_stream)  # the whole stream, not only the sampled windows
    global_plan = plan.global_fields()
    planned = store.layer_plan(cfg, global_plan)
    params = store.param_counts(cfg, planned)
    macs_before = count_params_macs(model, plan.calib_tokens)[1]

    states = [embed(model, window) for window in calib]
    # Only `work` refers to the model from here on (see the module docstring).
    work = model
    del model
    layer_manifests: list[dict] = []
    layer_reports: list[dict] = []
    for i in range(cfg.n_layers):
        compressed, layer_manifest, layer_report = _compress_layer(
            cfg, i, work.layers[i], layer_stats(work, states, i), plan, planned
        )
        work = work.replace_layer(i, compressed)
        if i + 1 < cfg.n_layers:
            # In place, so at most one window's state exists twice.
            for w, state in enumerate(states):
                states[w] = advance(work, state, i)
        layer_manifests.append(layer_manifest)
        layer_reports.append(layer_report)

    macs_after = count_params_macs(work, plan.calib_tokens)[1]
    manifest = {
        "format_version": MANIFEST_VERSION,
        "config": cfg.to_dict(),
        "global": {
            **global_plan,
            "calibration": {
                "sha256": calib_sha256,
                "samples": plan.calib_samples,
                "tokens_per_sample": plan.calib_tokens,
                "window_starts": starts,
                "resampled_per_layer": False,
            },
            "params": params,
            "plan": planned,
        },
        "layers": layer_manifests,
    }
    report = {
        "format_version": 2,
        "layers": layer_reports,
        "params_before": params["source_total"],
        "params_after": params["compressed_total"],
        "layer_params_before": params["layer_source"],
        "layer_params_after": params["layer_retained"],
        "layer_params_target": plan.keep_ratio * params["layer_source"],
        "macs_before": macs_before,
        "macs_after": macs_after,
        "macs_seq_len": plan.calib_tokens,
        "evaluations": {},
        "timing": {},
    }
    return work, manifest, report


def _compress_layer(cfg, i, source, x_din, plan, planned):
    """Compress dense layer i from its {site: x_din} map as the planned record
    says; returns (compressed layer, manifest entry, report entry).  The report
    entry is the weighted error of every factored projection.  Nothing here
    outlives the call, so the source layer is held only by the model."""
    weights = _dense_weights(source)
    x_by_proj = {p.name: x_din[p.site] for p in store.PROJECTIONS}
    # svd attention and the factored FFN are awsvd at unit weights.
    weighted = store.ATTN_PROJS if plan.mha_method == "awsvd" else ()
    x_factor = {p: x_by_proj[p] if p in weighted else np.ones(w.shape[1]) for p, w in weights.items()}
    try:
        pairs = compress_mha(weights, x_factor, store.planned_ranks(planned))
    except DecompositionError as exc:
        raise DecompositionError(f"layer {i}: {exc}") from exc
    head_prune, ffn_prune = plan.mha_method == "head_prune", plan.ffn_method == "prune"
    head_maps, kept_heads = _prune_heads(cfg, source, weights, x_by_proj, plan) if head_prune else ({}, None)
    ffn_maps, decision = _prune_ffn(weights, x_by_proj, plan) if ffn_prune else ({}, None)

    factored = {p: Factored(pair.l, pair.r) for p, pair in pairs.items() if pair is not None}
    retained = None if decision is None else decision.retained
    # Factors and pruned slices come back in float64; store them in the source's dtype.
    maps = {name: proj.astype(weights[name].dtype) for name, proj in {**factored, **head_maps, **ffn_maps}.items()}
    compressed = source.with_projections(maps, kept_heads=kept_heads, retained_channels=retained)
    errors = {p: {"weighted_error": pair.weighted_error} for p, pair in pairs.items() if pair is not None}
    return compressed, _layer_record(i, kept_heads, decision), {"layer": i, **errors}


def _layer_record(i, kept_heads, decision):
    """Layer i's manifest entry: what its calibration data decided, the kept heads
    (None unless head-pruned) and the retained channels and their provenance (the
    FFN PruneDecision, None when factored)."""
    record = {"layer": i}
    if kept_heads is not None:
        record["kept_heads"] = list(kept_heads)
    if decision is not None:
        record["retained_channels"] = [int(c) for c in decision.retained]
        record["provenance"] = list(decision.provenance)
    return record


def _prune_heads(cfg, layer, weights, x_by_proj, plan):
    qkvo = [weights[p] for p in store.ATTN_PROJS]
    scores = pruning.head_scores(
        *qkvo, x_by_proj["q_proj"], x_by_proj["o_proj"], layer.n_heads(cfg), cfg.head_dim, plan.aggregation,
    )
    kept = pruning.decide_head_pruning(scores, plan.keep_ratio)
    pruned = pruning.apply_head_pruning(*qkvo, kept, cfg.head_dim)
    return {p: Dense(w) for p, w in zip(store.ATTN_PROJS, pruned)}, kept


def _prune_ffn(weights, x_by_proj, plan):
    up, gate, down = weights["up_proj"], weights["gate_proj"], weights["down_proj"]
    scores = pruning.group_scores(up, gate, down, x_by_proj["up_proj"], x_by_proj["down_proj"], plan.aggregation)
    decision = pruning.decide_pruning(scores, plan.keep_ratio, plan.retain_least)
    up, gate, down = pruning.apply_pruning(up, gate, down, decision)
    return {"up_proj": Dense(up), "gate_proj": Dense(gate), "down_proj": Dense(down)}, decision


# ---------------------------------------------------------------------------
# Output plumbing


def write_outputs(out_dir: str | Path, model: TransformerModel, manifest: dict, report: dict) -> Path:
    out_dir = Path(out_dir)
    tensors = model_to_tensors(model)
    model_path = store.write_compressed(out_dir, tensors, manifest)
    (out_dir / "report.json").write_text(canonical_json(report), encoding="utf-8")
    return model_path


def load_any_model(path: str | Path, config: ModelConfig | None = None) -> tuple[TransformerModel, dict | None]:
    """Load a compressed output directory or a dense checkpoint file.

    Directories (or files with a manifest.json sibling) are self-described;
    a bare dense checkpoint needs an explicit config.
    """
    p = Path(path)
    manifest_sibling = (p / "manifest.json") if p.is_dir() else p.parent / "manifest.json"
    if p.is_dir() or manifest_sibling.exists():
        cfg, tensors, manifest = store.load_compressed(p)
        return model_from_tensors(cfg, tensors), manifest
    if config is None:
        raise ValueError(f"{path} is a bare checkpoint; a model config is required to load it")
    return load_dense_model(p, config), None


def record_evaluation(report_path: str | Path, data_key: str, ppl: float, wall_time_s: float) -> None:
    """Append an evaluation result to an existing run report; a report that is not an
    object, or whose evaluations or timing is not one, is a DataError and is left as it is."""
    report_path = Path(report_path)
    report = json.loads(report_path.read_text(encoding="utf-8"))
    if not isinstance(report, dict) or not all(isinstance(report.get(k, {}), dict) for k in ("evaluations", "timing")):
        raise DataError(f"{report_path}: a run report must be a JSON object whose evaluations and timing are objects")
    report.setdefault("evaluations", {})[data_key] = ppl
    report.setdefault("timing", {})[data_key] = {"eval_wall_time_s": wall_time_s}
    report_path.write_text(canonical_json(report), encoding="utf-8")


def timed_perplexity(model: TransformerModel, stream: np.ndarray, seq_len: int) -> tuple[float, float]:
    t0 = time.perf_counter()
    ppl = perplexity(model, stream, seq_len)
    return ppl, time.perf_counter() - t0
