"""Layer-by-layer compression orchestration.

Each calibration window is embedded once and its hidden state is carried
from layer to layer.  For each layer in order: run the dense layer on
every state to collect input-norm statistics, factor the attention
matrices under the allocated budget, prune the FFN channel groups, then
advance every state through the compressed layer - so the statistics of
layer i+1 always see the output of the compressed layer i.  That is 2L-1
layer passes per window for L layers.  The layer passes run in the
model's dtype (see `transformer`): for a model loaded from disk the
carried states take samples x tokens x dim float32 values, 4 bytes each
(about 4.3 GB at 128 x 2048 x 4096).  Statistics, factors, errors and
scores are computed in float64, and each compressed projection is cast
to the dtype of the dense projection it replaces before the states
advance through it, so they advance through exactly the factors that are
written.  The run is bit-deterministic given (model bytes, calibration
bytes, seed, plan).  The plan (`store.layer_plan`) fixes every layer's
attention ranks, head and FFN channel counts once per run; each layer is
factored at those ranks in one `compress_mha` call.  Whole heads
(`head_prune`) and FFN channels are pruned at those counts by one helper,
`_prune`: heads at group=head_dim, FFN channels at group 1 with
`store.bottom_quota` of them least important.  The manifest
records the plan once, as `global.plan`, and per layer only what the
calibration data decided (kept heads, retained channels, provenance;
`_layer_record`), the source of the container's index tensors.  Every
parameter total, in the manifest and the report, is `store.param_counts`
of the plan's layout; the MAC totals come from
`transformer.count_params_macs`.  The report holds measurements only:
per layer, the weighted error of each factored projection, beside the
parameter and MAC totals and, once `eval --update-report` has run, the
evaluations and their timing.

`compress_model` never changes the model it is given.  Once the windows
are embedded it refers to the model only through the one it is building,
so a caller that hands over its only reference (as `cli compress` does)
gets each dense layer freed as soon as its compressed layer replaces it,
and the dense and compressed models are never both whole in memory.  A
caller that keeps its model keeps all of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import pruning, store
from .config import ModelConfig
from .errors import CalibrationError, DecompositionError, ManifestError
from .lowrank import compress_mha
from .store import FFN_METHODS, MANIFEST_VERSION, MHA_METHODS  # noqa: F401 - the methods are re-exported
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
    """Derive the per-layer keep fraction from a whole-model removal target
    (`store.plan_ratio`, on a dense checkpoint, the only kind `compress` reads)."""
    ratio_l = store.plan_ratio(config, ratio_s)
    return CompressionPlan(keep_ratio=1.0 - ratio_l, target_ratio_s=ratio_s, **knobs)


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


def _dense_weights(cfg: ModelConfig, layer: TransformerLayer) -> dict[str, np.ndarray]:
    projs, dense = layer.projections(), store.widths(cfg)
    for name, proj in projs.items():
        shape = store.PROJECTION[name].shape(dense)
        if not (isinstance(proj, Dense) and proj.shape == shape):
            raise ManifestError(f"layer to compress has {name} not dense at {shape}; layers are compressed once")
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
    weights = _dense_weights(cfg, source)
    x_by_proj = {p.name: x_din[p.site] for p in store.PROJECTIONS}
    # svd attention and the factored FFN are awsvd at unit weights.
    weighted = store.ATTN_PROJS if plan.mha_method == "awsvd" else ()
    x_factor = {p: x_by_proj[p] if p in weighted else np.ones(w.shape[1]) for p, w in weights.items()}
    try:
        pairs = compress_mha(weights, x_factor, store.planned_ranks(planned))
    except DecompositionError as exc:
        raise DecompositionError(f"layer {i}: {exc}") from exc
    n_heads, n_channels = planned["mha"]["kept_head_count"], planned["ffn"].get("retained_count")
    head_maps, heads = _prune(weights, x_by_proj, plan.aggregation, store.ATTN_PROJS, n_heads, group=cfg.head_dim)
    ffn_names = ("up_proj", "gate_proj", "down_proj")  # scored in this order
    ffn_maps, channels = _prune(weights, x_by_proj, plan.aggregation, ffn_names, n_channels, plan.retain_least)

    factored = {p: Factored(pair.l, pair.r) for p, pair in pairs.items() if pair is not None}
    # Factors and pruned slices come back in float64; store them in the source's dtype.
    maps = {name: proj.astype(weights[name].dtype) for name, proj in {**factored, **head_maps, **ffn_maps}.items()}
    compressed = source.with_projections(maps)
    errors = {p: {"weighted_error": pair.weighted_error} for p, pair in pairs.items() if pair is not None}
    return compressed, _layer_record(i, heads, channels), {"layer": i, **errors}


def _layer_record(i, heads, channels):
    """Layer i's manifest entry: what its calibration data decided, the kept heads and the
    retained channels and their provenance, from the head and FFN PruneDecisions (or None)."""
    record = {"layer": i}
    if heads is not None:
        record["kept_heads"] = [int(h) for h in heads.retained]
    if channels is not None:
        record["retained_channels"] = [int(c) for c in channels.retained]
        record["provenance"] = list(channels.provenance)
    return record


def _prune(weights, x_by_proj, agg, names, n_keep, retain_least=0.0, group=1):
    """Prune the group set `names` (its input-side matrices, then its output-side one) to the
    plan's n_keep groups of `group` channels, `store.bottom_quota` of them least important;
    returns ({name: Dense slice}, the PruneDecision), or ({}, None) where n_keep is None."""
    if n_keep is None:
        return {}, None
    ins, out = {p: weights[p] for p in names[:-1]}, {names[-1]: weights[names[-1]]}
    scores = pruning.group_scores(ins, out, x_by_proj[names[0]], x_by_proj[names[-1]], agg, group)
    decision = pruning.decide_pruning(scores, n_keep, store.bottom_quota(scores.size, n_keep, retain_least))
    rows = (decision.retained[:, None] * group + np.arange(group)).ravel()
    return {p: Dense(w) for p, w in pruning.apply_pruning(ins, out, rows).items()}, decision


# ---------------------------------------------------------------------------
# Output plumbing


def write_outputs(out_dir: str | Path, model: TransformerModel, manifest: dict, report: dict) -> Path:
    out_dir = Path(out_dir)
    tensors = model_to_tensors(model)
    model_path = store.write_compressed(out_dir, tensors, manifest)
    (out_dir / "report.json").write_text(canonical_json(report), encoding="utf-8")
    return model_path


def load_any_model(path: str | Path, config: ModelConfig | None = None) -> tuple[TransformerModel, dict | None]:
    """Load a compressed output (`store.compressed_container`), which describes
    itself, or a bare dense checkpoint, which needs an explicit config."""
    if store.compressed_container(path) is not None:
        cfg, weights, manifest = store.load_compressed(path)
        return model_from_tensors(cfg, weights), manifest
    if config is None:
        raise ValueError(f"{path} is a bare checkpoint; a model config is required to load it")
    return load_dense_model(path, config), None


def record_evaluation(report_path: str | Path, report: dict, data_key: str, ppl: float, wall_time_s: float) -> None:
    """Add an evaluation result to `report`, the run report read from report_path (whose
    evaluations and timing, where present, are objects), and write it back there."""
    report.setdefault("evaluations", {})[data_key] = ppl
    report.setdefault("timing", {})[data_key] = {"eval_wall_time_s": wall_time_s}
    Path(report_path).write_text(canonical_json(report), encoding="utf-8")
