"""Self-describing checkpoints: named float64/int64 arrays plus a JSON metadata blob.

The container is a standard .npz (readable with np.load), but written by hand
so the bytes are deterministic: entries are sorted, stored uncompressed, and
carry a fixed zip timestamp instead of the wall clock. Each array is streamed
into its zip entry, so saving holds no second copy of it. Writes go to a temp
file in the same directory and are renamed into place, so a crash never
leaves a readable half-written checkpoint behind.
"""

from __future__ import annotations

import io
import json
import os
import zipfile
from typing import Any

import numpy as np
from numpy.lib import format as npformat

from ..errors import CheckpointError, checked

FORMAT_VERSION = 1

_META_KEY = "__meta__"
_ARRAY_PREFIX = "a::"
_EPOCH = (1980, 1, 1, 0, 0, 0)  # earliest zip timestamp; fixed for reproducible bytes


def save_arrays(path: str, arrays: dict[str, np.ndarray], meta: dict[str, Any] | None = None) -> None:
    header = json.dumps({"format_version": FORMAT_VERSION, "meta": meta or {}}, sort_keys=True)
    payload: dict[str, np.ndarray] = {_META_KEY: np.array(header)}
    for name, arr in arrays.items():
        if name == _META_KEY:
            raise CheckpointError(f"array name {name!r} is reserved")
        payload[_ARRAY_PREFIX + name] = np.asarray(arr)
    tmp = path + ".tmp"
    with zipfile.ZipFile(tmp, "w", compression=zipfile.ZIP_STORED, allowZip64=True) as zf:
        for name, arr in sorted(payload.items()):
            info = zipfile.ZipInfo(name + ".npy", date_time=_EPOCH)
            # The entry's size, from which open() makes writestr()'s zip64 choice.
            header = io.BytesIO()
            npformat.write_array_header_1_0(header, npformat.header_data_from_array_1_0(arr))
            info.file_size = header.tell() + arr.nbytes
            with zf.open(info, "w") as entry:
                npformat.write_array(entry, arr, allow_pickle=False)
    os.replace(tmp, path)


def _entry(z: np.lib.npyio.NpzFile, key: str, what: str, path: str) -> np.ndarray:
    """One entry read as an array; any failure to read it names the entry."""
    try:
        value = z[key]
    except Exception as err:  # e.g. an object array, or a header that does not parse
        raise CheckpointError(f"{path}: {what} is unreadable: "
                              f"{type(err).__name__}: {err}") from None
    if not isinstance(value, np.ndarray):  # np.load returns raw bytes without the magic
        raise CheckpointError(f"{path}: {what} is unreadable: not an .npy entry")
    return value


def load_arrays(path: str) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    try:
        z = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile) as err:
        raise CheckpointError(f"{path} is not an npz checkpoint: {err}") from None
    if not isinstance(z, np.lib.npyio.NpzFile):
        raise CheckpointError(f"{path} is not an npz checkpoint")
    with z:
        if _META_KEY not in z:
            raise CheckpointError(f"{path} is not a recognized checkpoint (missing metadata)")
        text = _entry(z, _META_KEY, "metadata", path)
        try:
            header = json.loads(str(text[()]))
        except ValueError as err:
            raise CheckpointError(f"{path} has unreadable metadata: {err}") from None
        header = checked(header, dict, f"{path} header", CheckpointError)
        version = header.get("format_version")
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint format version {version!r} (expected {FORMAT_VERSION})")
        arrays = {}
        for key in (k for k in z.files if k.startswith(_ARRAY_PREFIX)):
            name = key[len(_ARRAY_PREFIX):]
            arrays[name] = _entry(z, key, f"array {name!r}", path)
            if arrays[name].dtype not in (np.float64, np.int64):
                raise CheckpointError(f"{path}: array {name!r} has dtype "
                                      f"{arrays[name].dtype}, not float64 or int64")
    return arrays, checked(header.get("meta"), dict, f"{path} meta", CheckpointError)
