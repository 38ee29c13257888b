import json
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from hoimix.checkpoint import (
    MAGIC,
    atomic_open,
    load_arrays,
    load_checkpoint,
    save_arrays,
    save_checkpoint,
)
from hoimix.model import ModelParams

PREAMBLE = len(MAGIC) + 8


def two_tensor_file(path):
    # "a" holds body bytes 0..24 and "b" bytes 24..40
    save_arrays(path, {"a": np.arange(3.0), "b": np.arange(2.0)}, {"k": 1})
    return path.read_bytes()


def checkpoint_file(path):
    # feature_dim 2, hidden_dim 1, 2 classes: "param/b_cls" holds body bytes
    # 0..16 and "param/w_sel" the last ones, 72..88
    save_checkpoint(path, ModelParams.init(2, 1, 2, seed=0))
    return path.read_bytes()


def with_header(data, edit, drop=0):
    """Rewrite the header with `edit`, and drop the first `drop` body bytes."""
    (header_len,) = struct.unpack_from("<Q", data, len(MAGIC))
    header = json.loads(data[PREAMBLE : PREAMBLE + header_len])
    edit(header)
    raw = json.dumps(header, sort_keys=True).encode()
    return MAGIC + struct.pack("<Q", len(raw)) + raw + data[PREAMBLE + header_len + drop :]


def shift_last(header):
    header["tensors"]["param/w_sel"]["offset"] = 80


def grow_first(header):
    header["tensors"]["param/b_cls"]["nbytes"] = 24


def one_class_b_cls(header):
    # a well-formed file whose b_cls holds 1 class while the heads hold 2
    for name, entry in header["tensors"].items():
        if name == "param/b_cls":
            entry.update(shape=[1], nbytes=8)
        else:
            entry["offset"] -= 8


def narrow_dtypes(data):
    """The same checkpoint rewritten with float32 parameters and an int8 b_cls."""
    (header_len,) = struct.unpack_from("<Q", data, len(MAGIC))
    header = json.loads(data[PREAMBLE : PREAMBLE + header_len])
    body = data[PREAMBLE + header_len :]
    arrays = {}
    for name, e in header["tensors"].items():
        values = np.frombuffer(body[e["offset"] : e["offset"] + e["nbytes"]]).reshape(e["shape"])
        arrays[name] = values.astype(np.int8 if name == "param/b_cls" else np.float32)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "narrow.ckpt")
        save_arrays(path, arrays, header["meta"])
        with open(path, "rb") as fh:
            return fh.read()


CORRUPTIONS = {
    "trailing_bytes": lambda data: data + b"\0",
    "truncated_body": lambda data: data[:-8],
    "cut_in_length_field": lambda data: data[: len(MAGIC) + 3],
    "cut_in_magic": lambda data: data[:4],
    "wrong_magic": lambda data: b"X" + data[1:],
    "cut_in_header": lambda data: data[: PREAMBLE + 5],
    "bad_json_header": lambda data: data[:PREAMBLE] + b"!" + data[PREAMBLE + 1 :],
    "nbytes_sum_differs_from_body": lambda data: with_header(data, grow_first),
    "tensor_outside_body": lambda data: with_header(data, shift_last),
    "header_without_tensors": lambda data: with_header(data, lambda h: h.pop("tensors")),
    "param_shapes_disagree": lambda data: with_header(data, one_class_b_cls, drop=8),
    "params_not_float64": narrow_dtypes,
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupt_file_rejected_naming_the_path(tmp_path, corruption):
    path = tmp_path / "c.ckpt"
    path.write_bytes(CORRUPTIONS[corruption](checkpoint_file(path)))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_shape_corruption_is_well_formed_otherwise(tmp_path):
    # the container loads; only the model's shape check rejects the file
    path = tmp_path / "c.ckpt"
    path.write_bytes(CORRUPTIONS["param_shapes_disagree"](checkpoint_file(path)))
    arrays, _ = load_arrays(path)
    assert arrays["param/b_cls"].shape == (1,)
    with pytest.raises(ValueError, match="b_cls has shape"):
        load_checkpoint(path)


def test_dtype_corruption_is_well_formed_otherwise(tmp_path):
    # the container loads; only the checkpoint's dtype check rejects the file
    path = tmp_path / "c.ckpt"
    path.write_bytes(CORRUPTIONS["params_not_float64"](checkpoint_file(path)))
    arrays, _ = load_arrays(path)
    assert arrays["param/b_cls"].dtype == np.int8
    assert arrays["param/w_enc"].dtype == np.float32
    with pytest.raises(ValueError, match="has dtype"):
        load_checkpoint(path)


def test_failed_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "c.ckpt"
    params = ModelParams.init(3, 2, 2, seed=0)
    save_checkpoint(path, params)
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="disk full"):
        with atomic_open(path, "wb") as fh:
            fh.write(before[: len(before) // 2])
            raise RuntimeError("disk full")
    assert path.read_bytes() == before
    loaded, _, _ = load_checkpoint(path)
    np.testing.assert_array_equal(loaded.flat, params.flat)
    assert os.listdir(tmp_path) == ["c.ckpt"]


def test_unedited_header_loads(tmp_path):
    # with_header itself keeps a valid file valid
    path = tmp_path / "c.ckpt"
    path.write_bytes(with_header(two_tensor_file(path), lambda h: None))
    arrays, meta = load_arrays(path)
    np.testing.assert_array_equal(arrays["b"], [0.0, 1.0])
    assert meta == {"k": 1}


def test_unserializable_meta_rejected_before_writing(tmp_path):
    path = tmp_path / "m.ckpt"
    with pytest.raises(ValueError, match="JSON-serializable"):
        save_checkpoint(path, ModelParams.init(3, 2, 2, seed=0), meta={"bad": object()})
    assert not path.exists()


TENSORS = st.dictionaries(
    keys=st.text(alphabet="abz/_0", min_size=1, max_size=6),
    values=arrays(
        dtype=st.sampled_from([np.float64, np.float32, np.int64, np.uint8]),
        shape=array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    ),
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(tensors=TENSORS, note=st.text(max_size=8))
def test_roundtrip_is_bit_exact_on_random_shapes(tensors, note):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.ckpt")
        save_arrays(path, tensors, {"note": note})
        loaded, meta = load_arrays(path)
    assert meta == {"note": note}
    assert sorted(loaded) == sorted(tensors)
    for name, arr in tensors.items():
        got = loaded[name]
        assert (got.dtype, got.shape) == (arr.dtype, arr.shape)
        assert got.tobytes() == arr.tobytes()
