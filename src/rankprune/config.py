"""Model shape configuration."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True)
class ModelConfig:
    """Shape constants of a LLaMA-style decoder.

    Counts are positive ints (not bools) and norm_eps and rope_theta are
    positive finite reals (not bools or strings); dim == n_heads * head_dim
    must hold; head_dim must be even so the rotary embedding can pair its
    components.  Any other value is a ValueError.
    """

    dim: int
    n_heads: int
    head_dim: int
    n_layers: int
    ffn_dim: int
    vocab_size: int
    norm_eps: float = 1e-5
    rope_theta: float = 10000.0

    def __post_init__(self):
        counts = {
            "dim": self.dim,
            "n_heads": self.n_heads,
            "head_dim": self.head_dim,
            "n_layers": self.n_layers,
            "ffn_dim": self.ffn_dim,
            "vocab_size": self.vocab_size,
        }
        for key, value in counts.items():
            if type(value) is not int or value < 1:  # True is not a count
                raise ValueError(f"config field {key} must be a positive integer, got {value!r}")
        if self.dim != self.n_heads * self.head_dim:
            raise ValueError(
                f"dim ({self.dim}) must equal n_heads * head_dim "
                f"({self.n_heads} * {self.head_dim})"
            )
        if self.head_dim % 2 != 0:
            raise ValueError(f"head_dim must be even for rotary pairing, got {self.head_dim}")
        for key in ("norm_eps", "rope_theta"):
            value = getattr(self, key)
            real = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (real and math.isfinite(value) and value > 0):
                raise ValueError(f"config field {key} must be a positive finite number, got {value!r}")

    @property
    def layer_params(self) -> int:
        """Compressible parameters in one transformer layer: 4d^2 + 3*d*d_m."""
        return 4 * self.dim * self.dim + 3 * self.dim * self.ffn_dim

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {d!r}")
        known = {f: d[f] for f in cls.__dataclass_fields__ if f in d}
        missing = [
            f
            for f in ("dim", "n_heads", "head_dim", "n_layers", "ffn_dim", "vocab_size")
            if f not in known
        ]
        if missing:
            raise ValueError(f"config is missing required fields: {', '.join(missing)}")
        return cls(**known)

    @classmethod
    def from_json(cls, path: str | Path) -> "ModelConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
