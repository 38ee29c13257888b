"""Bit-exact checkpoint container for parameters and optimizer state.

Single-file format: magic, 8-byte little-endian header length, a JSON header
(sorted keys) describing each tensor's dtype/shape/offset plus free-form
metadata, then the raw tensor bytes. The file contents are a pure function
of the stored values, so identical runs produce identical files and reload
is bit-exact.

Every output (checkpoints, CSVs, logs, JSON reports, pseudo-label dumps and
`dataset.jsonl`) is written through `atomic_open`, so a crash mid-write
leaves the previous file whole.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager

import numpy as np

from .model import ModelParams
from .optimizer import MomentumPolicy, MomentumState, arrays_to_state, state_to_arrays

MAGIC = b"HOIMIXCKPT1\n"


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temp file beside `path` for writing; on a clean exit it
    replaces `path` (os.replace), and on an exception it is removed and
    `path` keeps its previous contents."""
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_arrays(path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    entries = {}
    blobs = []
    offset = 0
    for name in sorted(arrays):
        arr = np.asarray(arrays[name])  # tobytes() is C order; keeps 0-d shapes
        raw = arr.tobytes()
        entries[name] = {
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": len(raw),
        }
        blobs.append(raw)
        offset += len(raw)
    header = json.dumps({"meta": meta, "tensors": entries}, sort_keys=True).encode()
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for raw in blobs:
            fh.write(raw)


def load_arrays(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a file written by save_arrays.

    Raises ValueError naming the path when the file is cut short, carries
    trailing bytes, or has a header that does not describe its body.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    header_start = len(MAGIC) + 8
    if not data.startswith(MAGIC) or len(data) < header_start:
        raise ValueError(f"{path}: not a checkpoint file (bad or short preamble)")
    (header_len,) = struct.unpack_from("<Q", data, len(MAGIC))
    body = data[header_start + header_len :]
    try:
        header = json.loads(data[header_start : header_start + header_len])
        entries = [
            (name, int(e["offset"]), int(e["nbytes"]), np.dtype(e["dtype"]), e["shape"])
            for name, e in header["tensors"].items()
        ]
        meta = header["meta"]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: corrupt checkpoint header: {exc!r}") from exc
    listed = sum(nbytes for _, _, nbytes, _, _ in entries)
    if len(body) != listed:
        raise ValueError(f"{path}: body holds {len(body)} bytes, header lists {listed}")
    arrays = {}
    for name, offset, nbytes, dtype, shape in entries:
        if offset < 0 or nbytes < 0 or offset + nbytes > len(body):
            raise ValueError(f"{path}: tensor {name} extends outside the body")
        try:
            arrays[name] = np.frombuffer(body[offset : offset + nbytes], dtype=dtype).reshape(shape).copy()
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{path}: tensor {name}: {exc}") from exc
    return arrays, meta


def save_checkpoint(
    path,
    params: ModelParams,
    state: MomentumState | None = None,
    meta: dict | None = None,
) -> None:
    """Dump parameters (and momentum buffers plus iteration counter, when a
    state is given) together with the metadata that produced them."""
    arrays = {f"param/{name}": arr for name, arr in params.items()}
    meta = dict(meta or {})
    if state is not None:
        arrays.update(state_to_arrays(state))
        meta["optimizer_t"] = state.t
    try:
        json.dumps(meta, sort_keys=True)
    except TypeError as exc:
        raise ValueError(f"checkpoint metadata is not JSON-serializable: {exc}") from exc
    save_arrays(path, arrays, meta)


def load_checkpoint(path) -> tuple[ModelParams, MomentumState | None, dict]:
    """Read a file written by save_checkpoint.

    Raises ValueError naming the path when load_arrays does, when a tensor
    is missing or is not little-endian float64 (the only dtype saved), or
    when the tensor shapes disagree with each other.
    """
    arrays, meta = load_arrays(path)
    try:
        for name, arr in arrays.items():
            if arr.dtype.str != "<f8":
                raise ValueError(f"tensor {name} has dtype {arr.dtype.str}, not <f8")
        params = ModelParams(**{name: arrays[f"param/{name}"] for name in ModelParams.FIELDS})
        state = None
        if any(key.startswith("momentum/") for key in arrays):
            policy = MomentumPolicy(meta.get("policy", MomentumPolicy.INDEPENDENT.value))
            state = arrays_to_state(arrays, int(meta["optimizer_t"]), policy)
            if state.z_ws.dims != params.dims:
                raise ValueError(f"momentum dims {state.z_ws.dims} differ from parameter dims {params.dims}")
    except KeyError as exc:
        raise ValueError(f"{path}: missing entry {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return params, state, meta
