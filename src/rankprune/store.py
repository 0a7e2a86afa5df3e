"""Model weight storage: qualified tensor names, checkpoint loading,
compressed-output writing with a sidecar manifest, and the
model-to-layer ratio arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ModelConfig
from .container import read_container, write_container
from .errors import (
    ContainerFormatError,
    InfeasibleRatioError,
    ManifestError,
    MissingTensorError,
    ShapeMismatchError,
)
from .util import canonical_json

MANIFEST_VERSION = 1

EMBED_NAME = "model.embed_tokens.weight"
HEAD_NAME = "lm_head.weight"
FINAL_NORM_NAME = "model.norm.weight"

ATTN_PROJS = ("q_proj", "k_proj", "v_proj", "o_proj")
FFN_PROJS = ("gate_proj", "up_proj", "down_proj")


def attn_weight_name(layer: int, proj: str) -> str:
    return f"model.layers.{layer}.self_attn.{proj}.weight"


def mlp_weight_name(layer: int, proj: str) -> str:
    return f"model.layers.{layer}.mlp.{proj}.weight"


def attn_norm_name(layer: int) -> str:
    return f"model.layers.{layer}.input_layernorm.weight"


def ffn_norm_name(layer: int) -> str:
    return f"model.layers.{layer}.post_attention_layernorm.weight"


def retained_channels_name(layer: int) -> str:
    return f"model.layers.{layer}.mlp.retained_channels"


def kept_heads_name(layer: int) -> str:
    return f"model.layers.{layer}.self_attn.kept_heads"


def factor_names(weight_name: str) -> tuple[str, str]:
    """Names of the (L, R) pair replacing a factored weight."""
    base = weight_name.removesuffix(".weight")
    return base + ".L", base + ".R"


def expected_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """All tensors a dense checkpoint must contain, with their shapes.

    Projections follow the y = Wx orientation: axis 0 is the output
    feature axis, axis 1 the input feature axis.
    """
    d, d_m, v = config.dim, config.ffn_dim, config.vocab_size
    shapes: dict[str, tuple[int, ...]] = {
        EMBED_NAME: (v, d),
        HEAD_NAME: (v, d),
        FINAL_NORM_NAME: (d,),
    }
    for i in range(config.n_layers):
        shapes[attn_norm_name(i)] = (d,)
        shapes[ffn_norm_name(i)] = (d,)
        for proj in ATTN_PROJS:
            shapes[attn_weight_name(i, proj)] = (d, d)
        shapes[mlp_weight_name(i, "gate_proj")] = (d_m, d)
        shapes[mlp_weight_name(i, "up_proj")] = (d_m, d)
        shapes[mlp_weight_name(i, "down_proj")] = (d, d_m)
    return shapes


@dataclass(frozen=True)
class WeightMatrix:
    """A dense weight with its input-feature axis made explicit.

    din_axis is 1 for projections (y = Wx convention) and None for
    tensors that are not matrix products over a feature vector
    (embedding rows, norm scales).
    """

    name: str
    data: np.ndarray
    din_axis: int | None = 1

    @property
    def d_out(self) -> int:
        return self.data.shape[0]

    @property
    def d_in(self) -> int:
        return self.data.shape[1]


def load_model(path: str | Path, config: ModelConfig) -> dict[str, WeightMatrix]:
    """Load a dense checkpoint, widening every tensor to float64.

    Every expected tensor must be present with the shape the config
    implies and hold only finite values; unexpected extras (e.g. rotary
    frequency buffers some exporters include) are ignored.
    """
    tensors, _ = read_container(path)
    shapes = expected_shapes(config)
    missing = sorted(set(shapes) - set(tensors))
    if missing:
        raise MissingTensorError(f"{path}: missing tensors: {', '.join(missing)}")
    out: dict[str, WeightMatrix] = {}
    for name, want in shapes.items():
        arr = tensors[name]
        if arr.shape != want:
            raise ShapeMismatchError(
                f"{path}: tensor {name!r} has shape {arr.shape}, expected {want}"
            )
        _require_finite(path, name, arr)
        din_axis = 1 if arr.ndim == 2 and name != EMBED_NAME else None
        out[name] = WeightMatrix(name=name, data=arr.astype(np.float64), din_axis=din_axis)
    return out


def _require_finite(path: str | Path, name: str, arr: np.ndarray) -> None:
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise ContainerFormatError(f"{path}: tensor {name!r} holds NaN or infinite values")


# ---------------------------------------------------------------------------
# Ratio arithmetic


@dataclass(frozen=True)
class RatioPlan:
    """Translation of a whole-model compression target to the layer level.

    ratio_s is the fraction of all parameters to remove; because the
    embedding and LM head stay untouched, the layers must absorb the
    larger fraction ratio_l = param_total * ratio_s / (n_layers * param_layer).
    layer_keep = 1 - ratio_l is what the per-layer compressors receive.
    """

    param_total: int
    param_layer: int
    n_layers: int
    ratio_s: float
    ratio_l: float

    @property
    def layer_keep(self) -> float:
        return 1.0 - self.ratio_l


def plan_ratio(config: ModelConfig, param_total: int, ratio_s: float) -> RatioPlan:
    if not 0.0 < ratio_s < 1.0:
        raise ValueError(f"ratio_s must lie in (0, 1), got {ratio_s}")
    param_layer = config.layer_params
    ratio_l = (param_total * ratio_s) / (config.n_layers * param_layer)
    if ratio_l > 1.0:
        raise InfeasibleRatioError(
            f"model ratio {ratio_s} needs layer ratio {ratio_l:.4f} > 1; "
            "the transformer layers cannot absorb it"
        )
    return RatioPlan(
        param_total=param_total,
        param_layer=param_layer,
        n_layers=config.n_layers,
        ratio_s=ratio_s,
        ratio_l=ratio_l,
    )


def dense_param_total(config: ModelConfig) -> int:
    """Parameter count of a dense checkpoint with these shapes."""
    d, v = config.dim, config.vocab_size
    norms = (2 * config.n_layers + 1) * d
    return config.n_layers * config.layer_params + 2 * v * d + norms


# Published shape constants, handy for checking the ratio arithmetic
# against known model sizes.
LLAMA_SHAPES = {
    "7b": ModelConfig(dim=4096, n_heads=32, head_dim=128, n_layers=32, ffn_dim=11008, vocab_size=32000),
    "13b": ModelConfig(dim=5120, n_heads=40, head_dim=128, n_layers=40, ffn_dim=13824, vocab_size=32000),
    "30b": ModelConfig(dim=6656, n_heads=52, head_dim=128, n_layers=60, ffn_dim=17920, vocab_size=32000),
}


# ---------------------------------------------------------------------------
# Compressed output


def count_weight_params(tensors: dict[str, np.ndarray]) -> int:
    """Float weight elements in a tensor map; integer metadata is excluded."""
    return sum(int(a.size) for a in tensors.values() if a.dtype.kind == "f")


def layer_tensor_params(tensors: dict[str, np.ndarray], n_layers: int) -> int:
    """Float weight elements belonging to transformer projections only."""
    total = 0
    for i in range(n_layers):
        prefixes = [attn_weight_name(i, p).removesuffix(".weight") for p in ATTN_PROJS]
        prefixes += [mlp_weight_name(i, p).removesuffix(".weight") for p in FFN_PROJS]
        for name, arr in tensors.items():
            if arr.dtype.kind != "f":
                continue
            if any(name == p + ".weight" or name in (p + ".L", p + ".R") for p in prefixes):
                total += int(arr.size)
    return total


def _recompute_layer_params(manifest: dict, config: ModelConfig) -> int:
    d, d_m = config.dim, config.ffn_dim
    total = 0
    for rec in manifest["layers"]:
        kept_heads = rec["mha"].get("kept_heads")
        attn_d_out = (len(kept_heads) * config.head_dim) if kept_heads is not None else d
        for proj, scheme in rec["mha"]["schemes"].items():
            d_out = attn_d_out if proj != "o_proj" else d
            d_in = d if proj != "o_proj" else attn_d_out
            if scheme["kind"] == "dense":
                total += d_out * d_in
            else:
                total += scheme["rank"] * (d_out + d_in)
        ffn = rec["ffn"]
        if ffn["kind"] == "pruned":
            total += ffn["retained_count"] * 3 * d
        else:
            for proj, rank in ffn["ranks"].items():
                total += rank * (d_m + d)
    return total


def validate_manifest(manifest: dict, tensors: dict[str, np.ndarray], config: ModelConfig) -> None:
    """Cross-check a manifest against the tensors it describes.

    Every transformer weight of the source model must be accounted for
    exactly once, and the parameter totals recorded in the manifest must
    be reproducible from the per-layer records and from the tensors.
    Retained FFN channels and kept heads must be strictly ascending,
    in range and equal to their index tensors; every retained channel's
    provenance must be "top" or "bottom".
    """
    try:
        _validate_manifest(manifest, tensors, config)
    except (KeyError, TypeError) as exc:
        raise ManifestError(f"manifest is missing or misusing a required field: {exc}") from exc


def _validate_manifest(manifest: dict, tensors: dict[str, np.ndarray], config: ModelConfig) -> None:
    if manifest.get("format_version") != MANIFEST_VERSION:
        raise ManifestError(f"unsupported manifest format_version {manifest.get('format_version')!r}")
    recs = manifest["layers"]
    if [r["layer"] for r in recs] != list(range(config.n_layers)):
        raise ManifestError("manifest layer records do not cover every layer exactly once")
    d, d_m = config.dim, config.ffn_dim
    for rec in recs:
        i = rec["layer"]
        schemes = rec["mha"]["schemes"]
        if sorted(schemes) != sorted(ATTN_PROJS):
            raise ManifestError(f"layer {i}: MHA schemes must cover exactly {ATTN_PROJS}")
        kept_heads = rec["mha"].get("kept_heads")
        hname = kept_heads_name(i)
        if kept_heads is None:
            _absent(tensors, hname)
        else:
            if not _ascending_within(kept_heads, config.n_heads):
                raise ManifestError(f"layer {i}: kept_heads must be strictly ascending inside [0, {config.n_heads})")
            if hname not in tensors or tensors[hname].tolist() != kept_heads:
                raise ManifestError(f"layer {i}: kept-heads tensor disagrees with manifest list")
        attn_d_out = (len(kept_heads) * config.head_dim) if kept_heads is not None else d
        for proj, scheme in schemes.items():
            wname = attn_weight_name(i, proj)
            lname, rname = factor_names(wname)
            d_out = attn_d_out if proj != "o_proj" else d
            d_in = d if proj != "o_proj" else attn_d_out
            if scheme["kind"] == "dense":
                _expect(tensors, wname, (d_out, d_in))
                _absent(tensors, lname, rname)
            elif scheme["kind"] == "factored":
                rank = scheme["rank"]
                _expect(tensors, lname, (d_out, rank))
                _expect(tensors, rname, (rank, d_in))
                _absent(tensors, wname)
            else:
                raise ManifestError(f"layer {i}: unknown MHA scheme {scheme['kind']!r} for {proj}")
        ffn = rec["ffn"]
        if ffn["kind"] == "pruned":
            kept = ffn["retained_count"]
            idx = ffn["retained_channels"]
            if len(idx) != kept or len(ffn["provenance"]) != kept:
                raise ManifestError(f"layer {i}: retained index/provenance lists disagree with count")
            if not _ascending_within(idx, d_m):
                raise ManifestError(f"layer {i}: retained channels must be strictly ascending inside [0, {d_m})")
            if not set(ffn["provenance"]) <= {"top", "bottom"}:
                raise ManifestError(f"layer {i}: provenance values must be 'top' or 'bottom'")
            _expect(tensors, mlp_weight_name(i, "gate_proj"), (kept, d))
            _expect(tensors, mlp_weight_name(i, "up_proj"), (kept, d))
            _expect(tensors, mlp_weight_name(i, "down_proj"), (d, kept))
            iname = retained_channels_name(i)
            if iname not in tensors:
                raise ManifestError(f"layer {i}: retained-channel index tensor missing")
            if tensors[iname].tolist() != idx:
                raise ManifestError(f"layer {i}: index tensor disagrees with manifest list")
        elif ffn["kind"] == "factored":
            for proj in FFN_PROJS:
                wname = mlp_weight_name(i, proj)
                lname, rname = factor_names(wname)
                rank = ffn["ranks"][proj]
                d_out, d_in = (d, d_m) if proj == "down_proj" else (d_m, d)
                _expect(tensors, lname, (d_out, rank))
                _expect(tensors, rname, (rank, d_in))
                _absent(tensors, wname)
        else:
            raise ManifestError(f"layer {i}: unknown FFN scheme {ffn['kind']!r}")
    recorded = manifest["global"]["params"]["layer_retained"]
    from_records = _recompute_layer_params(manifest, config)
    from_tensors = layer_tensor_params(tensors, config.n_layers)
    if not recorded == from_records == from_tensors:
        raise ManifestError(
            f"layer parameter totals disagree: manifest={recorded}, "
            f"records={from_records}, tensors={from_tensors}"
        )


def _ascending_within(values: list[int], upper: int) -> bool:
    """True when values are strictly ascending (hence unique) inside [0, upper)."""
    return all(a < b for a, b in zip(values, values[1:])) and all(0 <= v < upper for v in values)


def _expect(tensors: dict[str, np.ndarray], name: str, shape: tuple[int, ...]) -> None:
    if name not in tensors:
        raise ManifestError(f"tensor {name!r} required by the manifest is missing")
    if tensors[name].shape != shape:
        raise ManifestError(f"tensor {name!r} has shape {tensors[name].shape}, manifest implies {shape}")


def _absent(tensors: dict[str, np.ndarray], *names: str) -> None:
    for name in names:
        if name in tensors:
            raise ManifestError(f"tensor {name!r} conflicts with the manifest scheme")


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

    Returns (config, tensor map in float64/int64, manifest).  Float
    tensors must hold only finite values.
    """
    path = Path(path)
    if path.is_dir():
        model_path = path / "model.safetensors"
        manifest_path = path / "manifest.json"
    else:
        model_path = path
        manifest_path = path.parent / "manifest.json"
    if not manifest_path.exists():
        raise ManifestError(f"no manifest.json found next to {model_path}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    config = ModelConfig.from_dict(manifest["config"])
    tensors, _ = read_container(model_path)
    for name, arr in tensors.items():
        _require_finite(model_path, name, arr)
    validate_manifest(manifest, tensors, config)
    widened = {
        name: arr.astype(np.float64) if arr.dtype.kind == "f" else arr.astype(np.int64)
        for name, arr in tensors.items()
    }
    return config, widened, manifest
