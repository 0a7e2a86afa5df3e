import io
import json
import os
import struct

import numpy as np
import pytest

from rankprune import container
from rankprune.container import read_container, write_container
from rankprune.errors import ContainerFormatError


def _roundtrip(tmp_path, tensors, metadata=None):
    path = tmp_path / "t.safetensors"
    write_container(path, tensors, metadata)
    return read_container(path)


def test_roundtrip_all_dtypes(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a": rng.normal(size=(3, 4)).astype(np.float32),
        "b": rng.normal(size=(2, 2)).astype(np.float16),
        "c": np.arange(5, dtype=np.int32),
        "d": np.arange(4, dtype=np.int64).reshape(2, 2),
    }
    loaded, meta = _roundtrip(tmp_path, tensors, {"origin": "test"})
    assert meta == {"origin": "test"}
    for name, arr in tensors.items():
        assert loaded[name].dtype == arr.dtype
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()


def test_roundtrip_many_random_shapes(tmp_path):
    rng = np.random.default_rng(1)
    for trial in range(10):
        tensors = {}
        for i in range(rng.integers(1, 8)):
            shape = tuple(int(s) for s in rng.integers(1, 9, size=rng.integers(1, 4)))
            tensors[f"t{trial}.{i}"] = rng.normal(size=shape).astype(np.float32)
        loaded, _ = _roundtrip(tmp_path, tensors)
        assert set(loaded) == set(tensors)
        for name in tensors:
            assert loaded[name].tobytes() == tensors[name].tobytes()


def test_write_is_byte_deterministic(tmp_path):
    rng = np.random.default_rng(2)
    tensors = {"x": rng.normal(size=(4, 4)).astype(np.float32), "y": np.arange(3, dtype=np.int32)}
    p1, p2 = tmp_path / "a.st", tmp_path / "b.st"
    write_container(p1, tensors)
    write_container(p2, dict(reversed(list(tensors.items()))))
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.st"
    path.write_bytes(b"")
    with pytest.raises(ContainerFormatError, match="too short"):
        read_container(path)


def test_header_length_beyond_file(tmp_path):
    path = tmp_path / "bad.st"
    path.write_bytes(struct.pack("<Q", 1000) + b"{}")
    with pytest.raises(ContainerFormatError, match="header length"):
        read_container(path)


def test_header_not_json(tmp_path):
    path = tmp_path / "bad.st"
    body = b"not json"
    path.write_bytes(struct.pack("<Q", len(body)) + body)
    with pytest.raises(ContainerFormatError, match="JSON"):
        read_container(path)


def _raw_container(header: dict, payload: bytes) -> bytes:
    body = json.dumps(header).encode()
    return struct.pack("<Q", len(body)) + body + payload


def test_truncated_payload(tmp_path):
    header = {"a": {"dtype": "F32", "shape": [4], "data_offsets": [0, 16]}}
    path = tmp_path / "bad.st"
    path.write_bytes(_raw_container(header, b"\x00" * 8))
    with pytest.raises(ContainerFormatError, match="truncated"):
        read_container(path)


def test_overlapping_ranges(tmp_path):
    header = {
        "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
        "b": {"dtype": "F32", "shape": [2], "data_offsets": [4, 12]},
    }
    path = tmp_path / "bad.st"
    path.write_bytes(_raw_container(header, b"\x00" * 12))
    with pytest.raises(ContainerFormatError, match="overlapping"):
        read_container(path)


def test_gap_between_ranges(tmp_path):
    header = {
        "a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},
        "b": {"dtype": "F32", "shape": [1], "data_offsets": [8, 12]},
    }
    path = tmp_path / "bad.st"
    path.write_bytes(_raw_container(header, b"\x00" * 12))
    with pytest.raises(ContainerFormatError, match="non-contiguous"):
        read_container(path)


def test_trailing_bytes_rejected(tmp_path):
    header = {"a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]}}
    path = tmp_path / "bad.st"
    path.write_bytes(_raw_container(header, b"\x00" * 8))
    with pytest.raises(ContainerFormatError, match="trailing"):
        read_container(path)


def test_shape_bytes_mismatch(tmp_path):
    header = {"a": {"dtype": "F32", "shape": [3], "data_offsets": [0, 8]}}
    path = tmp_path / "bad.st"
    path.write_bytes(_raw_container(header, b"\x00" * 8))
    with pytest.raises(ContainerFormatError, match="does not match"):
        read_container(path)


def test_unsupported_dtype(tmp_path):
    header = {"a": {"dtype": "BF16", "shape": [2], "data_offsets": [0, 4]}}
    path = tmp_path / "bad.st"
    path.write_bytes(_raw_container(header, b"\x00" * 4))
    with pytest.raises(ContainerFormatError, match="unsupported dtype"):
        read_container(path)


def test_foreign_insertion_order_header_loads(tmp_path):
    # exporters commonly write entries in insertion (non-alphabetical)
    # order with ascending offsets and a __metadata__ block
    arrs = {"zz.weight": np.ones((2, 2), dtype=np.float32), "aa.weight": np.arange(4, dtype=np.float32)}
    header, payload = {}, b""
    for name, arr in arrs.items():
        data = arr.tobytes()
        header[name] = {
            "dtype": "F32",
            "shape": list(arr.shape),
            "data_offsets": [len(payload), len(payload) + len(data)],
        }
        payload += data
    header["__metadata__"] = {"format": "pt"}
    path = tmp_path / "foreign.st"
    path.write_bytes(_raw_container(header, payload))
    tensors, meta = read_container(path)
    assert meta == {"format": "pt"}
    for name, arr in arrs.items():
        assert tensors[name].tobytes() == arr.tobytes()


def test_header_padding_keeps_payload_aligned(tmp_path):
    path = tmp_path / "t.st"
    write_container(path, {"a": np.zeros(1, dtype=np.float32)})
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<Q", raw[:8])
    assert (8 + header_len) % 8 == 0
    read_container(path)  # padded header still parses


# ---------------------------------------------------------------------------
# Streaming writer and reader


@pytest.mark.parametrize(
    "arr",
    [
        np.zeros((3, 0), dtype=np.float32),
        np.arange(6, dtype=">f4").reshape(2, 3),
        np.arange(24, dtype=np.int64).reshape(4, 6)[:, ::2],
        np.arange(12, dtype=np.float16).reshape(3, 4).T,
        np.float32(2.5),
    ],
    ids=["zero-element", "big-endian", "strided", "transposed", "scalar"],
)
def test_streaming_writer_writes_what_tobytes_gave(tmp_path, arr):
    # The payload is the little-endian C-order bytes a tobytes() copy held,
    # and the header records the shape of that copy (a scalar as [1]).
    path = tmp_path / "t.st"
    write_container(path, {"a": arr, "b": np.ones(2, dtype=np.float32)})
    want = np.ascontiguousarray(arr)
    want = want.astype(want.dtype.newbyteorder("<"))
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<Q", raw[:8])
    header = json.loads(raw[8 : 8 + header_len])
    assert header["a"]["shape"] == list(want.shape)
    assert raw[8 + header_len :] == want.tobytes() + np.ones(2, dtype="<f4").tobytes()
    loaded, _ = read_container(path)
    assert loaded["a"].shape == want.shape
    assert np.array_equal(loaded["a"], want)


def test_write_container_holds_at_most_one_tensor_copy(tmp_path, heap_peak):
    # 16 tensors of 64 KB: building every tensor's bytes before writing
    # would hold all 1 MB at once; streaming holds at most one tensor,
    # and only when that tensor needs a byte-order or layout copy.
    rng = np.random.default_rng(3)
    tensors = {f"t{i:02d}": rng.normal(size=(128, 128)).astype(np.float32) for i in range(15)}
    tensors["t15"] = tensors["t00"].astype(">f4")
    largest = max(arr.nbytes for arr in tensors.values())
    _, peak = heap_peak(write_container, tmp_path / "t.st", tensors)
    assert peak <= largest + 32 * 1024


class _ShortReader(io.BufferedReader):
    """A file whose readinto fills 4 bytes fewer than it is asked for."""

    def readinto(self, buf):
        view = memoryview(buf).cast("B")
        return super().readinto(view[: max(0, len(view) - 4)])


def test_short_readinto_is_truncation(tmp_path, monkeypatch):
    path = tmp_path / "t.st"
    write_container(path, {"a": np.arange(8, dtype=np.float32)})
    monkeypatch.setattr(container, "open", lambda p, mode: _ShortReader(io.FileIO(p, mode)), raising=False)
    with pytest.raises(ContainerFormatError, match="truncated at tensor 'a'"):
        read_container(path)


@pytest.mark.parametrize(
    "raw, lost, message",
    [
        # the header checks pass against the stated size; the tensor read comes up short
        (_raw_container({"a": {"dtype": "F32", "shape": [4], "data_offsets": [0, 16]}}, b"\x00" * 8),
         8, "truncated at tensor 'a'"),
        (struct.pack("<Q", 64) + b"{}", 62, "truncated inside the header"),
    ],
    ids=["in-tensor", "in-header"],
)
def test_file_shorter_than_fstat_said_is_truncation(tmp_path, monkeypatch, raw, lost, message):
    # The file loses `lost` bytes between fstat and the read.
    path = tmp_path / "t.st"
    path.write_bytes(raw)
    real_fstat = os.fstat

    def fstat_before_shrink(fd):
        st = real_fstat(fd)
        return os.stat_result((*st[:6], st.st_size + lost, *st[7:]))

    monkeypatch.setattr(container.os, "fstat", fstat_before_shrink)
    with pytest.raises(ContainerFormatError, match=message):
        read_container(path)


def test_read_container_holds_one_copy_of_the_payload(tmp_path, heap_peak):
    rng = np.random.default_rng(4)
    tensors = {f"t{i:02d}": rng.normal(size=(128, 128)).astype(np.float32) for i in range(16)}
    path = tmp_path / "t.st"
    write_container(path, tensors)
    payload = sum(arr.nbytes for arr in tensors.values())
    loaded, peak = heap_peak(read_container, path)
    assert peak <= payload + 32 * 1024
    assert all(np.array_equal(loaded[0][name], arr) for name, arr in tensors.items())
