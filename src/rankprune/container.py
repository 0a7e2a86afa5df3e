"""Bit-exact tensor container I/O.

Layout (the de-facto single-file interchange format, so real checkpoints
load unmodified): an 8-byte little-endian unsigned header length, a JSON
header mapping tensor name -> {dtype, shape, data_offsets}, then the raw
payload.  Offsets are relative to the start of the payload, must ascend
in header order, and must tile the payload exactly.

Both directions stream tensor by tensor: the reader checks the whole
header against the file size, then reads each tensor straight into its
own array; the writer builds the header from shapes and byte counts,
then writes each array's buffer in turn.  Neither holds a second copy of
the payload, so reading or writing costs the tensors' own bytes plus at
most one tensor.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ContainerFormatError

# Weight tensors are stored as F32/F16; I32 carries a compressed output's
# kept-head and retained-channel index tensors, I64 is read as well.
_DTYPES = {
    "F32": np.dtype("<f4"),
    "F16": np.dtype("<f2"),
    "I32": np.dtype("<i4"),
    "I64": np.dtype("<i8"),
}
_DTYPE_NAMES = {v: k for k, v in _DTYPES.items()}

_MAX_HEADER = 1 << 28  # sanity cap; a corrupt length field fails fast


def dtype_name(arr: np.ndarray) -> str:
    key = arr.dtype.newbyteorder("<")
    if key not in _DTYPE_NAMES:
        raise ContainerFormatError(f"unsupported tensor dtype {arr.dtype}")
    return _DTYPE_NAMES[key]


def read_container(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a container file into {name: array} plus its free-form metadata.

    Arrays come back in their on-disk dtype; callers widen as needed.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < 8:
            raise ContainerFormatError(f"{path}: file too short to hold a header length")
        (header_len,) = struct.unpack("<Q", _read_exact(fh, 8, path, "the header length"))
        if header_len > _MAX_HEADER or 8 + header_len > size:
            raise ContainerFormatError(f"{path}: header length {header_len} exceeds file size")
        try:
            header = json.loads(_read_exact(fh, header_len, path, "the header").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ContainerFormatError(f"{path}: header is not valid JSON: {exc}") from exc
        if not isinstance(header, dict):
            raise ContainerFormatError(f"{path}: header must be a JSON object")
        metadata = header.pop("__metadata__", {})
        layout = _payload_layout(path, header, size - 8 - header_len)
        tensors: dict[str, np.ndarray] = {}
        for name, dt, shape in layout:
            arr = np.empty(shape, dtype=dt)
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
                raise ContainerFormatError(f"{path}: payload truncated at tensor {name!r}")
            tensors[name] = arr
    return tensors, metadata


def _read_exact(fh, n: int, path: str | Path, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ContainerFormatError(f"{path}: file truncated inside {what}")
    return data


def _payload_layout(path: str | Path, header: dict, payload_len: int) -> list[tuple[str, np.dtype, tuple[int, ...]]]:
    """(name, dtype, shape) of every tensor in payload order, after checking
    that the byte ranges ascend, tile a payload of payload_len bytes exactly
    and match their shapes."""
    layout = []
    cursor = 0
    for name, entry in header.items():
        try:
            dtype_key, shape, (start, end) = entry["dtype"], tuple(entry["shape"]), entry["data_offsets"]
            # A dtype is a string and every dimension and offset a JSON integer: 64.0, "64" or true is not one.
            if not isinstance(dtype_key, str) or not all(type(x) is int for x in (*shape, start, end)):
                raise TypeError(f"dtype {dtype_key!r}, shape {shape!r}, data_offsets {[start, end]!r}")
        except (TypeError, KeyError, ValueError) as exc:
            raise ContainerFormatError(f"{path}: malformed entry for {name!r}") from exc
        if dtype_key not in _DTYPES:
            raise ContainerFormatError(f"{path}: tensor {name!r} has unsupported dtype {dtype_key!r}")
        dt = _DTYPES[dtype_key]
        if start != cursor:
            kind = "overlapping" if start < cursor else "non-contiguous"
            raise ContainerFormatError(
                f"{path}: tensor {name!r} has {kind} byte range [{start}, {end})"
            )
        n_elems = 1
        for s in shape:
            if s < 0:
                raise ContainerFormatError(f"{path}: tensor {name!r} has negative dim in {shape}")
            n_elems *= s
        if end - start != n_elems * dt.itemsize:
            raise ContainerFormatError(
                f"{path}: tensor {name!r} byte range length {end - start} does not match "
                f"shape {shape} x {dt.itemsize} bytes"
            )
        if end > payload_len:
            raise ContainerFormatError(f"{path}: payload truncated at tensor {name!r}")
        layout.append((name, dt, shape))
        cursor = end
    if cursor != payload_len:
        raise ContainerFormatError(
            f"{path}: payload has {payload_len - cursor} trailing bytes not covered by any tensor"
        )
    return layout


def write_container(path: str | Path, tensors: dict[str, np.ndarray], metadata: dict | None = None) -> None:
    """Write tensors in sorted-name order with a canonical header.

    Identical inputs produce identical bytes, so compression runs can be
    checked for reproducibility by comparing files.  Only a tensor that is
    not already C-contiguous little-endian is copied, while it is written.
    """
    header: dict[str, object] = {}
    if metadata:
        header["__metadata__"] = {str(k): str(v) for k, v in sorted(metadata.items())}
    arrays = {name: np.atleast_1d(np.asarray(tensors[name])) for name in sorted(tensors)}
    cursor = 0
    for name, arr in arrays.items():
        header[name] = {
            "dtype": dtype_name(arr),
            "shape": list(arr.shape),
            "data_offsets": [cursor, cursor + arr.nbytes],
        }
        cursor += arr.nbytes
    body = json.dumps(header, separators=(",", ":"), sort_keys=False, ensure_ascii=False).encode("utf-8")
    if len(body) % 8:  # pad so the payload starts 8-aligned
        body += b" " * (8 - len(body) % 8)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(body)))
        fh.write(body)
        for arr in arrays.values():
            fh.write(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")))
