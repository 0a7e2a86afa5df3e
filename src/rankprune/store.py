"""Model weight storage: the projection table, qualified tensor names,
the container layout, checkpoint loading, compressed-output writing with
a sidecar manifest, and the model-to-layer ratio arithmetic.

`PROJECTIONS` is the one list of a layer's seven weight matrices.  Each
row says which sub-layer a matrix belongs to (q/k/v/o are attention
matrices, factored under the MHA budget; gate/up/down form the FFN
channel group that is pruned as one), which activation site feeds it,
and its shape in terms of the model width, the kept-head width and the
retained-channel width.  Serialization, loading, validation, accounting
and calibration naming all iterate over it.

`expected_shapes(config, manifest=None)` is the one {name: shape} layout
of both container kinds.  Compression touches only the layer projections,
and every layer under one plan, so a compressed output's layout follows
from the config and its manifest's `global` (`layer_plan`); it must hold
exactly those tensors at exactly those shapes.  A manifest records that
plan once, as `global.plan`, which `validate_manifest` holds to one rule:
it must equal what the rest of `global` implies.  Per layer it records only
what the calibration data decided, kept heads, retained channels and their
provenance, which are checked beside it.  `check_plan` is the one check of
the plan fields, for a `pipeline.CompressionPlan` and a manifest's `global`.

`param_counts(config, plan)` is the one parameter count of a layout:
every tensor of `_layout(config, plan)` but the index tensors.  It is the
manifest's `global.params`, the dense total of the ratio arithmetic and
the report's parameter totals; `transformer.count_params_macs` counts a
model in memory.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ModelConfig
from .container import read_container, write_container
from .errors import (
    AllocationError,
    ContainerFormatError,
    InfeasibleRatioError,
    ManifestError,
    MissingTensorError,
    ShapeMismatchError,
)
from .pruning import AGGREGATIONS, bottom_quota, kept_head_count, retained_count
from .util import canonical_json, round_half_up

MANIFEST_VERSION = 2
MHA_METHODS = ("awsvd", "svd", "head_prune")
FFN_METHODS = ("prune", "svd")

EMBED_NAME = "model.embed_tokens.weight"
HEAD_NAME = "lm_head.weight"
FINAL_NORM_NAME = "model.norm.weight"

# Activation sites, the inputs of the projections.
SITE_ATTN_INPUT = "attn_input"          # input to q/k/v projections
SITE_ATTN_O_INPUT = "attn_o_input"      # input to the o projection (head concat)
SITE_FFN_INPUT = "ffn_input"            # input to gate/up projections
SITE_FFN_DOWN_INPUT = "ffn_down_input"  # input to the down projection

ATTN = "self_attn"
MLP = "mlp"

# Widths a projection axis can have: the model width, the concatenated
# width of the kept heads, and the number of retained FFN channels.
DIM, HEADS, CHANNELS = "dim", "heads", "channels"


@dataclass(frozen=True)
class Projection:
    """One weight matrix of a transformer layer (y = Wx orientation)."""

    name: str      # tensor name component, e.g. "q_proj"
    attr: str      # TransformerLayer attribute
    group: str     # ATTN or MLP
    site: str      # activation site feeding its input features
    out_axis: str  # DIM, HEADS or CHANNELS
    in_axis: str

    def shape(self, widths: dict[str, int]) -> tuple[int, int]:
        return widths[self.out_axis], widths[self.in_axis]


PROJECTIONS = (
    Projection("q_proj", "q", ATTN, SITE_ATTN_INPUT, HEADS, DIM),
    Projection("k_proj", "k", ATTN, SITE_ATTN_INPUT, HEADS, DIM),
    Projection("v_proj", "v", ATTN, SITE_ATTN_INPUT, HEADS, DIM),
    Projection("o_proj", "o", ATTN, SITE_ATTN_O_INPUT, DIM, HEADS),
    Projection("gate_proj", "gate", MLP, SITE_FFN_INPUT, CHANNELS, DIM),
    Projection("up_proj", "up", MLP, SITE_FFN_INPUT, CHANNELS, DIM),
    Projection("down_proj", "down", MLP, SITE_FFN_DOWN_INPUT, DIM, CHANNELS),
)
PROJECTION = {p.name: p for p in PROJECTIONS}
ATTN_PROJS = tuple(p.name for p in PROJECTIONS if p.group == ATTN)
FFN_PROJS = tuple(p.name for p in PROJECTIONS if p.group == MLP)
ALL_SITES = tuple(dict.fromkeys(p.site for p in PROJECTIONS))


def widths(config: ModelConfig, n_kept_heads: int | None = None, n_channels: int | None = None) -> dict[str, int]:
    """Axis widths of one layer; None means the head or channel set is whole."""
    return {
        DIM: config.dim,
        HEADS: config.dim if n_kept_heads is None else n_kept_heads * config.head_dim,
        CHANNELS: config.ffn_dim if n_channels is None else n_channels,
    }


def weight_name(layer: int, proj: str) -> str:
    return f"model.layers.{layer}.{PROJECTION[proj].group}.{proj}.weight"


def split_projection_name(name: str) -> tuple[int, Projection, str] | None:
    """(layer, projection, suffix) of a projection tensor name, where the
    suffix is "weight", "L" or "R"; None for any other name."""
    parts = name.split(".")
    if len(parts) != 6 or parts[:2] != ["model", "layers"] or parts[5] not in ("weight", "L", "R"):
        return None
    proj = PROJECTION.get(parts[4])
    if proj is None or proj.group != parts[3] or not parts[2].isdecimal() or str(int(parts[2])) != parts[2]:
        return None
    return int(parts[2]), proj, parts[5]


def attn_norm_name(layer: int) -> str:
    return f"model.layers.{layer}.input_layernorm.weight"


def ffn_norm_name(layer: int) -> str:
    return f"model.layers.{layer}.post_attention_layernorm.weight"


def retained_channels_name(layer: int) -> str:
    return f"model.layers.{layer}.{MLP}.retained_channels"


def kept_heads_name(layer: int) -> str:
    return f"model.layers.{layer}.{ATTN}.kept_heads"


def factor_names(name: str) -> tuple[str, str]:
    """Names of the (L, R) pair replacing a factored weight."""
    base = name.removesuffix(".weight")
    return base + ".L", base + ".R"


def expected_shapes(config: ModelConfig, manifest: dict | None = None) -> dict[str, tuple[int, ...]]:
    """The {name: shape} layout of a container.

    Without a manifest this is a dense checkpoint: embedding, LM head,
    final norm, and per layer two norms and the seven projections at
    dense width.  With a compressed output's manifest every layer is laid
    out as `layer_plan` plans it from the manifest's `global`: projections
    are sized by the kept heads and retained channels, a projection with
    a rank becomes name.L (out, r) and name.R (r, in), and the kept-head
    and retained-channel index tensors are added.

    Projections follow the y = Wx orientation: axis 0 is the output
    feature axis, axis 1 the input feature axis.
    """
    return _layout(config, None if manifest is None else layer_plan(config, manifest["global"]))


def _layout(config: ModelConfig, plan: dict | None) -> dict[str, tuple[int, ...]]:
    """The layout `expected_shapes` gives, from a `layer_plan` record (None: a dense checkpoint)."""
    d, v = config.dim, config.vocab_size
    shapes: dict[str, tuple[int, ...]] = {
        EMBED_NAME: (v, d),
        HEAD_NAME: (v, d),
        FINAL_NORM_NAME: (d,),
    }
    ranks, n_heads, n_channels = dict.fromkeys(PROJECTION), None, None
    if plan is not None:
        ranks, n_heads = planned_ranks(plan), plan["mha"]["kept_head_count"]
        n_channels = plan["ffn"].get("retained_count")
    layer_widths = widths(config, n_heads, n_channels)
    for i in range(config.n_layers):
        shapes[attn_norm_name(i)] = (d,)
        shapes[ffn_norm_name(i)] = (d,)
        if n_heads is not None:
            shapes[kept_heads_name(i)] = (n_heads,)
        if n_channels is not None:
            shapes[retained_channels_name(i)] = (n_channels,)
        for p in PROJECTIONS:
            name, rank = weight_name(i, p.name), ranks[p.name]
            out, inp = p.shape(layer_widths)
            if rank is None:
                shapes[name] = (out, inp)
            else:
                lname, rname = factor_names(name)
                shapes[lname], shapes[rname] = (out, rank), (rank, inp)
    return shapes


def _is_index(name: str) -> bool:
    """True for a kept-head or retained-channel index tensor: integer, and not a parameter."""
    return name.endswith((".kept_heads", ".retained_channels"))


def param_counts(config: ModelConfig, plan: dict | None = None) -> dict:
    """The parameter totals of the dense layout and of a `layer_plan` record's
    layout (None: the dense one again), as a manifest's `global.params`
    records them.  Every layout tensor but the index tensors is a parameter;
    the layer totals count the projections alone."""

    def count(layout_plan: dict | None) -> tuple[int, int]:
        params = {name: math.prod(shape) for name, shape in _layout(config, layout_plan).items() if not _is_index(name)}
        return sum(params.values()), sum(n for name, n in params.items() if split_projection_name(name))

    (source_total, layer_source), (compressed_total, layer_retained) = count(None), count(plan)
    return {
        "source_total": source_total,
        "compressed_total": compressed_total,
        "layer_source": layer_source,
        "layer_retained": layer_retained,
        "realized_ratio_s": (source_total - compressed_total) / source_total,
    }


def check_plan(global_plan: dict) -> None:
    """The one check of a plan's fields, as `CompressionPlan.global_fields`
    gives them and a manifest's `global` records them: a value compress
    cannot plan with, or would never write, is a ValueError."""
    keep, alloc_ratio = global_plan["layer_keep_ratio"], global_plan["alloc_ratio"]
    mha_method, ffn_method = global_plan["mha_method"], global_plan["ffn_method"]
    seed, retain_least, target = global_plan["seed"], global_plan["retain_least"], global_plan["target_ratio_s"]
    if not (_is_real(keep) and 0.0 < keep <= 1.0):
        raise ValueError(f"layer_keep_ratio must be a number in (0, 1], got {keep!r}")
    pair = type(alloc_ratio) is list and len(alloc_ratio) == 2
    if not (pair and all(_is_real(a) and 0.0 < a < math.inf for a in alloc_ratio)):
        raise ValueError(f"alloc_ratio must be a list of two positive finite numbers, got {alloc_ratio!r}")
    if mha_method not in MHA_METHODS or ffn_method not in FFN_METHODS:
        raise ValueError(f"unknown methods {mha_method!r}/{ffn_method!r}: MHA {MHA_METHODS}, FFN {FFN_METHODS}")
    if global_plan["aggregation"] not in AGGREGATIONS:
        raise ValueError(f"aggregation must be one of {AGGREGATIONS}, got {global_plan['aggregation']!r}")
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if not (_is_real(retain_least) and 0.0 <= retain_least < keep):
        raise ValueError(f"retain_least must be a number in [0, layer_keep_ratio), got {retain_least!r}")
    if target is not None and not _is_real(target):
        raise ValueError(f"target_ratio_s must be null or a number, got {target!r}")


def layer_plan(config: ModelConfig, global_plan: dict) -> dict:
    """The plan record a `global` implies, decided once per run and the same
    for every layer: awsvd/svd attention by `lowrank.allocate_mha`, the
    kept-head and retained-channel counts by `pruning`, FFN factor ranks by
    max(1, floor(keep_ratio * size / (d_out + d_in))).  Compress records it
    once, as the manifest's `global.plan`; a layer record holds only the
    lists its calibration data decided.  A global no plan has is a
    ValueError (`check_plan`) or AllocationError.
    """
    from .lowrank import allocate_mha  # lowrank imports this module's projection table

    check_plan(global_plan)
    keep, alloc_ratio = global_plan["layer_keep_ratio"], global_plan["alloc_ratio"]
    mha_method, ffn_method = global_plan["mha_method"], global_plan["ffn_method"]
    dense = {p.name: p.shape(widths(config)) for p in PROJECTIONS}
    if mha_method == "head_prune":
        n_heads = kept_head_count(config.n_heads, keep)
        kept = {p: PROJECTION[p].shape(widths(config, n_heads)) for p in ATTN_PROJS}
        mha = {
            "schemes": {p: {"kind": "dense", "rank": None, "params": math.prod(shape)} for p, shape in kept.items()},
            "kept_head_count": n_heads,
            "budget": round_half_up(keep * sum(math.prod(dense[p]) for p in ATTN_PROJS)),
            "qk_budget": None,
            "vo_budget": None,
            "slack": 0,  # heads are kept whole: no q/k vs v/o split and no rank-flooring slack
        }
    else:
        alloc = allocate_mha({p: dense[p] for p in ATTN_PROJS}, keep, alloc_ratio)
        mha = {
            "schemes": {p: {"kind": s.kind, "rank": s.rank, "params": s.n_params} for p, s in alloc.schemes.items()},
            "kept_head_count": None,
            "budget": alloc.budget,
            "qk_budget": alloc.qk_budget,
            "vo_budget": alloc.vo_budget,
            "slack": alloc.slack,
        }
    if ffn_method == "prune":
        ffn = {"retained_count": retained_count(config.ffn_dim, keep)}
    else:
        ffn = {"ranks": {p: max(1, int(keep * math.prod(dense[p]) / sum(dense[p]))) for p in FFN_PROJS}}
    return {"mha": mha, "ffn": ffn}


def planned_ranks(plan: dict) -> dict[str, int | None]:
    """{projection: rank} of a `layer_plan` record; None where it stays dense, kept whole or pruned."""
    ranks = {p: scheme["rank"] for p, scheme in plan["mha"]["schemes"].items()}
    return {**ranks, **dict.fromkeys(FFN_PROJS), **plan["ffn"].get("ranks", {})}


def load_model(path: str | Path, config: ModelConfig) -> dict[str, np.ndarray]:
    """Load a dense checkpoint as float32 tensors.

    Every expected tensor must be present with the shape the config
    implies and hold only finite values; unexpected extras (e.g. rotary
    frequency buffers some exporters include) are ignored.  F32 tensors
    are the arrays the container reader filled, so loading F float32
    bytes holds F bytes; an F16 tensor is widened to float32, one at a
    time.
    """
    tensors, _ = read_container(path)
    shapes = expected_shapes(config)
    missing = sorted(set(shapes) - set(tensors))
    if missing:
        raise MissingTensorError(f"{path}: missing tensors: {', '.join(missing)}")
    out: dict[str, np.ndarray] = {}
    for name, want in shapes.items():
        arr = tensors.pop(name)
        if arr.shape != want:
            raise ShapeMismatchError(
                f"{path}: tensor {name!r} has shape {arr.shape}, expected {want}"
            )
        require_finite(path, name, arr)
        out[name] = arr.astype(np.float32, copy=False)
    return out


def require_finite(path: str | Path, name: str, arr: np.ndarray) -> None:
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise ContainerFormatError(f"{path}: tensor {name!r} holds NaN or infinite values")


# ---------------------------------------------------------------------------
# Ratio arithmetic


@dataclass(frozen=True)
class RatioPlan:
    """Translation of a whole-model compression target to the layer level.

    ratio_s is the fraction of all parameters to remove; because the
    embedding and LM head stay untouched, the layers must absorb the
    larger fraction ratio_l = param_total * ratio_s / layer_source, the
    dense layers' parameters (`param_counts`).
    layer_keep = 1 - ratio_l is what the per-layer compressors receive.
    """

    ratio_l: float

    @property
    def layer_keep(self) -> float:
        return 1.0 - self.ratio_l


def plan_ratio(config: ModelConfig, param_total: int, ratio_s: float) -> RatioPlan:
    if not 0.0 < ratio_s < 1.0:
        raise ValueError(f"ratio_s must lie in (0, 1), got {ratio_s}")
    ratio_l = (param_total * ratio_s) / param_counts(config)["layer_source"]
    if ratio_l > 1.0:
        raise InfeasibleRatioError(
            f"model ratio {ratio_s} needs layer ratio {ratio_l:.4f} > 1; "
            "the transformer layers cannot absorb it"
        )
    return RatioPlan(ratio_l=ratio_l)


def dense_param_total(config: ModelConfig) -> int:
    """Parameter count of a dense checkpoint with these shapes."""
    return param_counts(config)["source_total"]


# Published shape constants, handy for checking the ratio arithmetic
# against known model sizes.
LLAMA_SHAPES = {
    "7b": ModelConfig(dim=4096, n_heads=32, head_dim=128, n_layers=32, ffn_dim=11008, vocab_size=32000),
    "13b": ModelConfig(dim=5120, n_heads=40, head_dim=128, n_layers=40, ffn_dim=13824, vocab_size=32000),
    "30b": ModelConfig(dim=6656, n_heads=52, head_dim=128, n_layers=60, ffn_dim=17920, vocab_size=32000),
}


# ---------------------------------------------------------------------------
# Compressed output


def validate_manifest(manifest: dict, tensors: dict[str, np.ndarray], config: ModelConfig) -> None:
    """Cross-check a manifest against the tensors it describes.

    The one rule: the plan recorded once, `global.plan`, must equal what
    the rest of `global` implies.  `global` must pass `check_plan`, as a
    `CompressionPlan` does; `global.plan` is `layer_plan(config, global)`
    JSON type for JSON type (8.0 and true are not 8), and the container must
    hold exactly the tensors `expected_shapes` lays out from that plan,
    weights float and index tensors integer.  Beside it only what the data
    decides is checked: layer i's record holds "layer": i and exactly the
    lists the plan leaves to the data, kept heads and retained channels strictly
    ascending in range and equal to their index tensors, one provenance
    "top" or "bottom" per retained channel with the retain-least quota of
    "bottom", and the calibration windows.  `global.params` must be
    `param_counts` of the plan.
    """
    try:
        _validate_manifest(manifest, tensors, config)
    except (KeyError, TypeError, AttributeError, ValueError, AllocationError) as exc:
        raise ManifestError(f"manifest is missing or misusing a required field: {exc}") from exc


def _validate_manifest(manifest: dict, tensors: dict[str, np.ndarray], config: ModelConfig) -> None:
    version = manifest.get("format_version")
    if type(version) is not int or version != MANIFEST_VERSION:
        hint = f"this release reads {MANIFEST_VERSION}: re-run compress to write the output again"
        raise ManifestError(f"unsupported manifest format_version {version!r}; {hint}")
    plan, recs = layer_plan(config, manifest["global"]), manifest["layers"]
    _require_planned("global", plan, manifest["global"]["plan"], "plan")
    _check_calibration(manifest["global"]["calibration"])
    if type(recs) is not list or len(recs) != config.n_layers:
        raise ManifestError("manifest layer records do not cover every layer exactly once")
    layout = _layout(config, plan)
    missing, unexpected = sorted(set(layout) - set(tensors)), sorted(set(tensors) - set(layout))
    if missing or unexpected:
        raise ManifestError(
            f"tensors disagree with the manifest: missing {', '.join(missing) or 'none'}; "
            f"unexpected {', '.join(unexpected) or 'none'}"
        )
    for name, shape in layout.items():
        arr = tensors[name]
        if arr.shape != shape:
            raise ManifestError(f"tensor {name!r} has shape {arr.shape}, manifest implies {shape}")
        if arr.dtype.kind != ("i" if _is_index(name) else "f"):
            raise ManifestError(f"tensor {name!r} has dtype {arr.dtype}; weights are float, index tensors integer")
    retain_least = manifest["global"]["retain_least"]
    # A layer record holds its index and the lists its calibration data decided.
    keys = {"layer", *(["kept_heads"] if plan["mha"]["kept_head_count"] is not None else [])}
    keys |= {"retained_channels", "provenance"} if "retained_count" in plan["ffn"] else set()
    for i, rec in enumerate(recs):
        if type(rec) is not dict or rec.keys() != keys:
            raise ManifestError(f"layer {i}: record is {reprlib.repr(rec)}; expected exactly the keys {sorted(keys)}")
        _require_planned(f"layer {i}", i, rec["layer"], "layer")
        if "kept_heads" in rec:
            kept_heads = rec["kept_heads"]
            if not _ascending_within(kept_heads, config.n_heads):
                raise ManifestError(f"layer {i}: kept_heads must be strictly ascending inside [0, {config.n_heads})")
            if tensors[kept_heads_name(i)].tolist() != kept_heads:
                raise ManifestError(f"layer {i}: kept-heads tensor disagrees with manifest list")
        if "retained_channels" in rec:
            _check_retained(i, rec, tensors[retained_channels_name(i)], config.ffn_dim, retain_least)
    _require_planned("global", param_counts(config, plan), manifest["global"]["params"], "params")


def _require_planned(where: str, want, got, path: str = "") -> None:
    """got must be want exactly, JSON type for JSON type (8.0 and true are not 8)."""
    if isinstance(want, dict):
        keys, same = want.keys(), type(got) is dict and got.keys() == want.keys()
    elif isinstance(want, list):
        keys, same = range(len(want)), type(got) is list and len(got) == len(want)
    else:
        keys, same = (), type(got) is type(want) and got == want
    if not same:
        raise ManifestError(f"{where}: {path or 'record'} is {reprlib.repr(got)}; expected {reprlib.repr(want)}")
    for key in keys:
        _require_planned(where, want[key], got[key], f"{path}.{key}" if path else str(key))


def _check_calibration(calibration: dict) -> None:
    """The calibration windows must be ones compress draws."""
    samples, tokens, starts = calibration["samples"], calibration["tokens_per_sample"], calibration["window_starts"]
    if type(calibration["sha256"]) is not str or calibration["resampled_per_layer"] is not False:
        raise ManifestError("calibration sha256 must be a string and resampled_per_layer false")
    if not (_is_count(samples) and _is_count(tokens)):
        raise ManifestError(f"calibration samples {samples!r} and tokens_per_sample {tokens!r} must be positive integers")
    multiples = all(type(s) is int and s >= 0 and s % tokens == 0 for s in starts)
    if not (len(starts) == samples and multiples and all(a < b for a, b in zip(starts, starts[1:]))):
        raise ManifestError(f"calibration window_starts must be {samples} strictly ascending multiples of {tokens}")


def _is_count(value) -> bool:
    """True for a positive int; bool and integral floats (8.0, which
    compares equal to 8) are not counts."""
    return type(value) is int and value >= 1


def _is_real(value) -> bool:
    """True for an int or float that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_retained(i: int, rec: dict, index: np.ndarray, d_m: int, retain_least: float) -> None:
    idx, provenance = rec["retained_channels"], rec["provenance"]
    if not _ascending_within(idx, d_m):
        raise ManifestError(f"layer {i}: retained channels must be strictly ascending inside [0, {d_m})")
    top_or_bottom = type(provenance) is list and all(p in ("top", "bottom") for p in provenance)
    if not (top_or_bottom and len(provenance) == len(idx)):
        raise ManifestError(f"layer {i}: provenance must hold one 'top' or 'bottom' per retained channel")
    n_bottom = provenance.count("bottom")
    quota = bottom_quota(d_m, len(provenance), retain_least)
    if n_bottom != quota:
        raise ManifestError(f"layer {i}: {n_bottom} channels marked bottom, retain_least {retain_least} gives {quota}")
    if index.tolist() != idx:
        raise ManifestError(f"layer {i}: index tensor disagrees with manifest list")


def _ascending_within(values: list[int], upper: int) -> bool:
    """True when values are strictly ascending (hence unique) ints inside [0, upper)."""
    return all(a < b for a, b in zip(values, values[1:])) and all(type(v) is int and 0 <= v < upper for v in values)


def write_compressed(out_dir: str | Path, tensors: dict[str, np.ndarray], manifest: dict) -> Path:
    """Write the compressed container plus its sidecar manifest.

    Returns the container path.  The manifest is validated against the
    tensors first so an inconsistent pair can never reach disk.
    """
    config = ModelConfig.from_dict(manifest["config"])
    validate_manifest(manifest, tensors, config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path = out_dir / "model.safetensors"
    write_container(model_path, tensors, metadata={"format": "rankprune-compressed"})
    (out_dir / "manifest.json").write_text(canonical_json(manifest), encoding="utf-8")
    return model_path


def load_compressed(path: str | Path) -> tuple[ModelConfig, dict[str, np.ndarray], dict]:
    """Load a compressed model directory (or its container file directly).

    Returns (config, tensor map in float32/int64, manifest).  Float
    tensors must hold only finite values; a manifest without a valid
    config object is a ManifestError like any other manifest fault.
    Like `load_model`, F32 tensors are the arrays the reader filled, so
    the payload is held once; F16 and I32 tensors are widened one at a
    time.
    """
    path = Path(path)
    model_path = path / "model.safetensors" if path.is_dir() else path
    manifest_path = model_path.parent / "manifest.json"
    if not manifest_path.exists():
        raise ManifestError(f"no manifest.json found next to {model_path}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    try:
        config = ModelConfig.from_dict(manifest["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(f"{manifest_path}: no usable model config: {exc}") from exc
    tensors, _ = read_container(model_path)
    for name, arr in tensors.items():
        require_finite(model_path, name, arr)
    validate_manifest(manifest, tensors, config)
    widened: dict[str, np.ndarray] = {}
    for name in list(tensors):
        arr = tensors.pop(name)
        widened[name] = arr.astype(np.float32 if arr.dtype.kind == "f" else np.int64, copy=False)
    return config, widened, manifest
