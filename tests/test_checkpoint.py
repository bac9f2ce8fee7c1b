"""Checkpoint container: bit-exact arrays, metadata, and format guards."""

import io
import json
import os
import tracemalloc
import zipfile

import numpy as np
import pytest
from numpy.lib import format as npformat

from flowcl.errors import CheckpointError
from flowcl.numgrad import load_arrays, save_arrays


class TestCheckpointRoundtrip:
    def test_arrays_survive_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        arrays = {
            "weights": rng.normal(size=(4, 3)),
            "tiny": np.array([np.pi, np.e, 1e-300, -0.0]),
            "counter": np.array(17, dtype=np.int64),
        }
        path = str(tmp_path / "ck.npz")
        save_arrays(path, arrays, meta={"kind": "test"})
        loaded, meta = load_arrays(path)
        assert set(loaded) == set(arrays)
        for name in arrays:
            np.testing.assert_array_equal(loaded[name], arrays[name])
            assert loaded[name].dtype == arrays[name].dtype
        assert meta == {"kind": "test"}

    def test_meta_defaults_to_empty_dict(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        save_arrays(path, {"a": np.zeros(2)})
        _, meta = load_arrays(path)
        assert meta == {}

    def test_nested_meta_preserved(self, tmp_path):
        meta = {"config": {"layers": [8, 16], "tau": 0.5}, "classes": ["a", "b"]}
        path = str(tmp_path / "ck.npz")
        save_arrays(path, {"a": np.ones(1)}, meta=meta)
        _, got = load_arrays(path)
        assert got == meta

    def test_no_temp_file_left_behind(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        save_arrays(path, {"a": np.ones(1)})
        assert os.listdir(tmp_path) == ["ck.npz"]

    def test_overwrite_replaces_content(self, tmp_path):
        path = str(tmp_path / "ck.npz")
        save_arrays(path, {"a": np.ones(3)})
        save_arrays(path, {"b": np.zeros(2)})
        loaded, _ = load_arrays(path)
        assert set(loaded) == {"b"}


def buffered_reference(path, arrays, meta):
    """The container written the plain way: each .npy built in memory, then writestr."""
    header = json.dumps({"format_version": 1, "meta": meta}, sort_keys=True)
    payload = {"__meta__": np.array(header), **{"a::" + k: v for k, v in arrays.items()}}
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED, allowZip64=True) as zf:
        for name in sorted(payload):
            buf = io.BytesIO()
            npformat.write_array(buf, payload[name], allow_pickle=False)
            zf.writestr(zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0)),
                        buf.getvalue())


class TestStreamedSave:
    def test_bytes_equal_the_buffered_container(self, tmp_path):
        rng = np.random.default_rng(5)
        arrays = {"x": rng.normal(size=(300, 7)), "labels": np.arange(300, dtype=np.int64),
                  "fortran": np.asfortranarray(rng.normal(size=(5, 9))),
                  "scalar": np.array(2.5), "empty": np.zeros((0, 4))}
        meta = {"kind": "test", "classes": ["a", "b"]}
        save_arrays(str(tmp_path / "streamed.npz"), arrays, meta=meta)
        buffered_reference(str(tmp_path / "buffered.npz"), arrays, meta)
        assert ((tmp_path / "streamed.npz").read_bytes()
                == (tmp_path / "buffered.npz").read_bytes())

    def test_saving_holds_no_copy_of_the_array(self, tmp_path):
        big = np.ones(8 << 20)  # 64 MiB, allocated before tracing starts
        tracemalloc.start()
        try:
            save_arrays(str(tmp_path / "big.npz"), {"x": big})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < big.nbytes / 2
        np.testing.assert_array_equal(load_arrays(str(tmp_path / "big.npz"))[0]["x"], big)


def rewrite_entry(path, entry, edit):
    """Rewrite one zip entry's bytes with `edit`, every other entry as it was.

    Editing the file's bytes in place would trip the zip CRC check instead.
    """
    with zipfile.ZipFile(path) as zf:
        entries = [(info, zf.read(info)) for info in zf.infolist()]
    with zipfile.ZipFile(path, "w") as zf:
        for info, data in entries:
            zf.writestr(info, edit(data) if info.filename == entry else data)


# Damage inside an .npy entry that the zip container cannot see.
DAMAGE = {
    "header": lambda data: data.replace(b"{'descr'", b"{('descr'", 1),
    "magic": lambda data: data.replace(b"\x93NUMPY", b"\x93NUMPX", 1),
}


class TestCheckpointGuards:
    def test_foreign_npz_rejected(self, tmp_path):
        path = str(tmp_path / "foreign.npz")
        np.savez(path, stuff=np.ones(3))
        with pytest.raises(CheckpointError):
            load_arrays(path)

    def test_wrong_format_version_rejected(self, tmp_path):
        path = str(tmp_path / "future.npz")
        header = json.dumps({"format_version": 99, "meta": {}})
        np.savez(path, __meta__=np.array(header))
        with pytest.raises(CheckpointError):
            load_arrays(path)

    @pytest.mark.parametrize("text", ["[1]", '{"format_version": 1, "meta": [1]}',
                                      '{"format_version": 1}', "{not json"],
                             ids=["list-header", "list-meta", "no-meta", "bad-json"])
    def test_malformed_header_rejected(self, tmp_path, text):
        path = str(tmp_path / "odd.npz")
        np.savez(path, __meta__=np.array(text))
        with pytest.raises(CheckpointError, match="must be an object|unreadable metadata"):
            load_arrays(path)

    @pytest.mark.parametrize("array", [np.array(["0.5"]), np.ones(2, dtype=bool),
                                       np.ones(2, dtype=np.int32), np.ones(2, dtype=np.float32)],
                             ids=["str", "bool", "int32", "float32"])
    def test_other_dtypes_rejected_by_name(self, tmp_path, array):
        path = str(tmp_path / "odd.npz")
        save_arrays(path, {"ok": np.ones(2), "odd": array})
        with pytest.raises(CheckpointError,
                           match=f"array 'odd' has dtype {array.dtype}, not float64 or int64"):
            load_arrays(path)

    def test_object_array_rejected_by_name(self, tmp_path):
        path = str(tmp_path / "pickled.npz")
        header = json.dumps({"format_version": 1, "meta": {}})
        np.savez(path, __meta__=np.array(header), **{"a::w": np.array([{}], dtype=object)})
        with pytest.raises(CheckpointError, match="array 'w' is unreadable"):
            load_arrays(path)

    @pytest.mark.parametrize("entry", ["a::w.npy", "__meta__.npy"], ids=["array", "meta"])
    @pytest.mark.parametrize("damage", sorted(DAMAGE), ids=sorted(DAMAGE))
    def test_damaged_entry_rejected_by_name(self, tmp_path, entry, damage):
        """A header that does not tokenize, or a lost magic, fails as a CheckpointError.

        numpy raises TokenError for the first; for the second np.load hands
        back raw bytes, which the array checks and the metadata read trip over.
        """
        path = str(tmp_path / "damaged.npz")
        save_arrays(path, {"w": np.ones(3)}, meta={"kind": "test"})
        rewrite_entry(path, entry, DAMAGE[damage])
        what = "array 'w'" if entry.startswith("a::") else "metadata"
        with pytest.raises(CheckpointError, match=f"{what} is unreadable"):
            load_arrays(path)

    def test_reserved_name_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            save_arrays(str(tmp_path / "x.npz"), {"__meta__": np.ones(1)})
