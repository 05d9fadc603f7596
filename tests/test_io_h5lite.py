"""Unit tests for the h5lite container format."""

import os

import numpy as np
import pytest

import repro
from repro.io.h5lite import H5LiteError, H5LiteFile, header_digest


class TestWriteRead:
    def test_dataset_roundtrip(self, tmp_path):
        path = tmp_path / "a.h5lite"
        data = np.random.default_rng(0).random((5, 4, 3))
        with H5LiteFile(path, "w") as fh:
            fh.create_dataset("cube", data)
        with H5LiteFile(path, "r") as fh:
            np.testing.assert_array_equal(fh["cube"][...], data)

    def test_multiple_dtypes(self, tmp_path):
        path = tmp_path / "dtypes.h5lite"
        arrays = {
            "f64": np.arange(6, dtype=np.float64).reshape(2, 3),
            "f32": np.arange(6, dtype=np.float32),
            "i64": np.arange(6, dtype=np.int64),
            "u8": np.arange(6, dtype=np.uint8),
            "bool": np.array([True, False, True]),
        }
        with H5LiteFile(path, "w") as fh:
            for name, arr in arrays.items():
                fh.create_dataset(name, arr)
        with H5LiteFile(path, "r") as fh:
            for name, arr in arrays.items():
                out = fh[name][...]
                assert out.dtype == arr.dtype
                np.testing.assert_array_equal(out, arr)

    def test_groups_and_nested_paths(self, tmp_path):
        path = tmp_path / "groups.h5lite"
        with H5LiteFile(path, "w") as fh:
            grp = fh.create_group("entry/data")
            grp.create_dataset("images", np.ones((2, 2)))
            fh.create_dataset("entry/extra/values", np.arange(3))
        with H5LiteFile(path, "r") as fh:
            assert "entry" in fh
            assert "entry/data/images" in fh
            np.testing.assert_array_equal(fh["entry/data/images"][...], np.ones((2, 2)))
            np.testing.assert_array_equal(fh["entry"]["extra/values"][...], np.arange(3))

    def test_attributes_roundtrip(self, tmp_path):
        path = tmp_path / "attrs.h5lite"
        with H5LiteFile(path, "w") as fh:
            fh.attrs["title"] = "test"
            grp = fh.create_group("g")
            grp.attrs["count"] = 3
            grp.attrs["values"] = [1.5, 2.5]
            ds = grp.create_dataset("d", np.zeros(2), attrs={"unit": "um"})
            assert ds.attrs["unit"] == "um"
        with H5LiteFile(path, "r") as fh:
            assert fh.attrs["title"] == "test"
            assert fh["g"].attrs["count"] == 3
            assert fh["g"].attrs["values"] == [1.5, 2.5]
            assert fh["g/d"].attrs["unit"] == "um"

    def test_numpy_scalar_attributes_serialised(self, tmp_path):
        path = tmp_path / "npattrs.h5lite"
        with H5LiteFile(path, "w") as fh:
            fh.attrs["n"] = np.int64(5)
            fh.attrs["x"] = np.float64(2.5)
            fh.create_dataset("d", np.zeros(1))
        with H5LiteFile(path, "r") as fh:
            assert fh.attrs["n"] == 5
            assert fh.attrs["x"] == 2.5

    def test_scalar_dataset(self, tmp_path):
        path = tmp_path / "scalar.h5lite"
        with H5LiteFile(path, "w") as fh:
            fh.create_dataset("value", np.float64(3.25))
        with H5LiteFile(path, "r") as fh:
            assert float(fh["value"][...]) == 3.25


class TestChunkedAccess:
    def test_partial_reads_match_full(self, tmp_path):
        path = tmp_path / "chunked.h5lite"
        data = np.random.default_rng(1).random((11, 3, 4))
        with H5LiteFile(path, "w") as fh:
            fh.create_dataset("cube", data, chunk_rows=4)
        with H5LiteFile(path, "r") as fh:
            ds = fh["cube"]
            np.testing.assert_array_equal(ds[...], data)
            np.testing.assert_array_equal(ds[2:7], data[2:7])
            np.testing.assert_array_equal(ds[8:], data[8:])
            np.testing.assert_array_equal(ds[3], data[3])

    def test_partial_read_unchunked(self, tmp_path):
        path = tmp_path / "contig.h5lite"
        data = np.arange(24, dtype=np.float64).reshape(6, 4)
        with H5LiteFile(path, "w") as fh:
            fh.create_dataset("d", data)
        with H5LiteFile(path, "r") as fh:
            np.testing.assert_array_equal(fh["d"][1:3], data[1:3])

    def test_empty_slice(self, tmp_path):
        path = tmp_path / "empty.h5lite"
        with H5LiteFile(path, "w") as fh:
            fh.create_dataset("d", np.arange(10.0), chunk_rows=3)
        with H5LiteFile(path, "r") as fh:
            assert fh["d"][5:5].shape == (0,)

    def test_strided_slice_rejected(self, tmp_path):
        path = tmp_path / "stride.h5lite"
        with H5LiteFile(path, "w") as fh:
            fh.create_dataset("d", np.arange(10.0))
        with H5LiteFile(path, "r") as fh:
            with pytest.raises(H5LiteError):
                fh["d"][::2]

    def test_dataset_metadata(self, tmp_path):
        path = tmp_path / "meta.h5lite"
        data = np.zeros((7, 2))
        with H5LiteFile(path, "w") as fh:
            fh.create_dataset("d", data, chunk_rows=2)
        with H5LiteFile(path, "r") as fh:
            ds = fh["d"]
            assert ds.shape == (7, 2)
            assert ds.ndim == 2
            assert ds.size == 14
            assert ds.nbytes == 14 * 8
            assert ds.chunk_rows == 2


class TestErrors:
    def test_bad_mode(self, tmp_path):
        with pytest.raises(H5LiteError):
            H5LiteFile(tmp_path / "x.h5lite", "a")

    def test_missing_file(self, tmp_path):
        with pytest.raises(H5LiteError):
            H5LiteFile(tmp_path / "missing.h5lite", "r")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.h5lite"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 16)
        with pytest.raises(H5LiteError):
            H5LiteFile(path, "r")

    def test_write_to_readonly(self, tmp_path):
        path = tmp_path / "ro.h5lite"
        with H5LiteFile(path, "w") as fh:
            fh.create_dataset("d", np.zeros(1))
        with H5LiteFile(path, "r") as fh:
            with pytest.raises(H5LiteError):
                fh.create_dataset("e", np.zeros(1))

    def test_duplicate_dataset_rejected(self, tmp_path):
        with H5LiteFile(tmp_path / "dup.h5lite", "w") as fh:
            fh.create_dataset("d", np.zeros(1))
            with pytest.raises(H5LiteError):
                fh.create_dataset("d", np.zeros(1))

    def test_missing_key(self, tmp_path):
        path = tmp_path / "k.h5lite"
        with H5LiteFile(path, "w") as fh:
            fh.create_dataset("d", np.zeros(1))
        with H5LiteFile(path, "r") as fh:
            with pytest.raises(KeyError):
                fh["nope"]

    def test_dataset_used_as_group_rejected(self, tmp_path):
        path = tmp_path / "ds.h5lite"
        with H5LiteFile(path, "w") as fh:
            fh.create_dataset("d", np.zeros(1))
        with H5LiteFile(path, "r") as fh:
            with pytest.raises(H5LiteError):
                fh["d/sub"]

    def test_invalid_path_component(self, tmp_path):
        with H5LiteFile(tmp_path / "p.h5lite", "w") as fh:
            with pytest.raises(H5LiteError):
                fh.create_dataset("../evil", np.zeros(1))

    def test_group_keys_and_visit(self, tmp_path):
        path = tmp_path / "tree.h5lite"
        with H5LiteFile(path, "w") as fh:
            fh.create_dataset("a/x", np.zeros(1))
            fh.create_dataset("a/y", np.zeros(1))
            fh.create_dataset("b", np.zeros(1))
        with H5LiteFile(path, "r") as fh:
            assert set(fh.root.keys()) == {"a", "b"}
            names = [obj.name for obj in fh.root.visit()]
            assert "/a/x" in names and "/a/y" in names and "/b" in names
            assert set(fh["a"].keys()) == {"x", "y"}


class TestWindowedReads:
    """Sub-axis window reads: the out-of-core streaming primitive."""

    @pytest.fixture()
    def cube_file(self, tmp_path):
        rng = np.random.default_rng(42)
        cube = rng.random((9, 12, 5))
        path = tmp_path / "cube.h5lite"
        with H5LiteFile(path, "w") as fh:
            fh.create_dataset("chunked", cube, chunk_rows=4)
            fh.create_dataset("contiguous", cube)
            fh.create_dataset("matrix", cube[0])
        return path, cube

    def test_read_window_matches_slicing(self, cube_file):
        path, cube = cube_file
        with H5LiteFile(path, "r") as fh:
            for name in ("chunked", "contiguous"):
                ds = fh[name]
                for (i, j, k, l) in [(0, 9, 0, 12), (2, 7, 3, 9), (0, 1, 11, 12), (8, 9, 0, 1)]:
                    np.testing.assert_array_equal(
                        ds.read_window(i, j, k, l), cube[i:j, k:l]
                    )

    def test_two_axis_getitem(self, cube_file):
        path, cube = cube_file
        with H5LiteFile(path, "r") as fh:
            np.testing.assert_array_equal(fh["chunked"][1:6, 2:9], cube[1:6, 2:9])
            np.testing.assert_array_equal(fh["chunked"][:, 2:9], cube[:, 2:9])
            np.testing.assert_array_equal(fh["matrix"][3:7, 1:4], cube[0][3:7, 1:4])

    def test_window_defaults_cover_full_axes(self, cube_file):
        path, cube = cube_file
        with H5LiteFile(path, "r") as fh:
            np.testing.assert_array_equal(fh["chunked"].read_window(), cube)

    def test_empty_window(self, cube_file):
        path, cube = cube_file
        with H5LiteFile(path, "r") as fh:
            out = fh["chunked"].read_window(2, 5, 4, 4)
            assert out.shape == (3, 0, 5)

    def test_window_clamps_overruns(self, cube_file):
        path, cube = cube_file
        with H5LiteFile(path, "r") as fh:
            np.testing.assert_array_equal(
                fh["chunked"].read_window(5, 99, 10, 99), cube[5:, 10:]
            )

    def test_window_requires_two_dims(self, tmp_path):
        path = tmp_path / "vec.h5lite"
        with H5LiteFile(path, "w") as fh:
            fh.create_dataset("v", np.arange(6.0))
        with H5LiteFile(path, "r") as fh:
            with pytest.raises(H5LiteError):
                fh["v"].read_window(0, 3, 0, 1)

    def test_window_rejects_strided_slices(self, cube_file):
        path, _cube = cube_file
        with H5LiteFile(path, "r") as fh:
            with pytest.raises(H5LiteError):
                fh["chunked"][0:5:2, 0:3]
            with pytest.raises(H5LiteError):
                fh["chunked"][0:5, 0:3, 0:1]

    def test_window_read_while_writing(self, tmp_path):
        cube = np.arange(24.0).reshape(2, 4, 3)
        with H5LiteFile(tmp_path / "w.h5lite", "w") as fh:
            ds = fh.create_dataset("c", cube, chunk_rows=1)
            np.testing.assert_array_equal(ds.read_window(0, 2, 1, 3), cube[:, 1:3])


class TestJsonAttrs:
    """The eagerly-validated JSON-attrs block (run-provenance storage)."""

    def test_nested_document_round_trip(self, tmp_path):
        path = tmp_path / "attrs.h5lite"
        record = {"config": {"grid": {"start": 0.0, "n_bins": 25}}, "notes": ["a", "b"],
                  "timings": {"wall": 1.25}, "nothing": None, "flag": True}
        with H5LiteFile(path, "w") as fh:
            grp = fh.create_group("entry")
            grp.set_json_attr("run_record", record)
        with H5LiteFile(path, "r") as fh:
            assert fh["entry"].get_json_attr("run_record") == record

    def test_normalized_at_set_time(self, tmp_path):
        with H5LiteFile(tmp_path / "n.h5lite", "w") as fh:
            grp = fh.create_group("g")
            grp.set_json_attr("v", {"t": (1, 2), "np": np.float64(2.5), "arr": np.arange(3)})
            # what was stored is already the post-round-trip form
            assert grp.attrs["v"] == {"t": [1, 2], "np": 2.5, "arr": [0, 1, 2]}

    def test_unserialisable_fails_at_set_not_close(self, tmp_path):
        with H5LiteFile(tmp_path / "bad.h5lite", "w") as fh:
            grp = fh.create_group("g")
            with pytest.raises(H5LiteError, match="not JSON-serialisable"):
                grp.set_json_attr("v", object())
            with pytest.raises(H5LiteError, match="not JSON-serialisable"):
                grp.set_json_attr("nan", float("nan"))

    def test_get_returns_copies_and_default(self, tmp_path):
        with H5LiteFile(tmp_path / "c.h5lite", "w") as fh:
            grp = fh.create_group("g")
            grp.set_json_attr("v", {"inner": [1]})
            grp.get_json_attr("v")["inner"].append(2)
            assert grp.get_json_attr("v") == {"inner": [1]}
            assert grp.get_json_attr("missing", default=7) == 7

    def test_dataset_and_root_json_attrs(self, tmp_path):
        path = tmp_path / "d.h5lite"
        with H5LiteFile(path, "w") as fh:
            fh.set_json_attr("root_doc", {"k": 1})
            ds = fh.create_dataset("v", np.arange(3.0))
            ds.set_json_attr("doc", {"units": "um"})
        with H5LiteFile(path, "r") as fh:
            assert fh.get_json_attr("root_doc") == {"k": 1}
            assert fh["v"].get_json_attr("doc") == {"units": "um"}


class TestCorruptHeaders:
    """Malformed files with a valid magic must raise H5LiteError, not leak
    ValueError/JSONDecodeError to callers (batch reloads rely on this)."""

    def test_truncated_after_magic(self, tmp_path):
        path = tmp_path / "trunc.h5lite"
        path.write_bytes(b"H5LITE01" + b"\x01\x02\x03")  # not even a header length
        with pytest.raises(H5LiteError):
            H5LiteFile(path, "r")

    def test_garbage_header_of_advertised_length(self, tmp_path):
        path = tmp_path / "garbage.h5lite"
        body = b"{not json"
        path.write_bytes(b"H5LITE01" + np.uint64(len(body)).tobytes() + body)
        with pytest.raises(H5LiteError, match="corrupt h5lite header"):
            H5LiteFile(path, "r")

    def test_header_missing_tree(self, tmp_path):
        path = tmp_path / "notree.h5lite"
        body = b'{"attrs": {}}'
        path.write_bytes(b"H5LITE01" + np.uint64(len(body)).tobytes() + body)
        with pytest.raises(H5LiteError, match="no tree"):
            H5LiteFile(path, "r")

    def test_malformed_dataset_node(self, tmp_path):
        path = tmp_path / "badnode.h5lite"
        body = b'{"tree": {"type": "group", "children": {"d": {"type": "dataset"}}}}'
        path.write_bytes(b"H5LITE01" + np.uint64(len(body)).tobytes() + body)
        with pytest.raises(H5LiteError, match="bad dataset"):
            H5LiteFile(path, "r")

    def test_valid_json_non_object_header(self, tmp_path):
        path = tmp_path / "list.h5lite"
        body = b"[1, 2, 3]"
        path.write_bytes(b"H5LITE01" + np.uint64(len(body)).tobytes() + body)
        with pytest.raises(H5LiteError, match="not a JSON object"):
            H5LiteFile(path, "r")

    def test_malformed_attrs_block(self, tmp_path):
        path = tmp_path / "badattrs.h5lite"
        body = b'{"attrs": [1], "tree": {"type": "group", "children": {}}}'
        path.write_bytes(b"H5LITE01" + np.uint64(len(body)).tobytes() + body)
        with pytest.raises(H5LiteError, match="malformed attrs"):
            H5LiteFile(path, "r")

    @pytest.mark.parametrize("header_len", [2**40, 2**63 + 5], ids=["2^40", "2^63+5"])
    @pytest.mark.parametrize(
        "read", [H5LiteFile, header_digest, repro.load], ids=["open", "header_digest", "load"]
    )
    def test_bogus_header_length(self, tmp_path, header_len, read):
        """A declared header length past the end of the file is checked
        before the read is sized: no MemoryError or OverflowError."""
        path = tmp_path / "bogus.h5lite"
        path.write_bytes(b"H5LITE01" + np.uint64(header_len).tobytes() + b'{"tree": {}}')
        with pytest.raises(
            H5LiteError,
            match=rf"^truncated h5lite header in .*bogus\.h5lite: declares {header_len} bytes",
        ):
            read(path)

    def test_file_cut_inside_its_header_names_the_path(self, tmp_path):
        path = tmp_path / "cut.h5lite"
        with H5LiteFile(path, "w") as fh:
            fh.create_dataset("d", np.arange(4.0))
        header_len = int(np.frombuffer(path.read_bytes()[8:16], dtype=np.uint64)[0])
        os.truncate(path, 16 + header_len // 2)
        with pytest.raises(H5LiteError, match=r"^truncated h5lite header in .*cut\.h5lite"):
            H5LiteFile(path, "r")

    def test_header_digest_raises_its_own_error_unwrapped(self, tmp_path):
        path = tmp_path / "magic.h5lite"
        path.write_bytes(b"NOTH5LITE" * 4)
        with pytest.raises(H5LiteError, match=r"^\S*magic\.h5lite is not an h5lite file"):
            header_digest(path)
        with pytest.raises(H5LiteError, match=r"^cannot read .*missing\.h5lite"):
            header_digest(tmp_path / "missing.h5lite")


def _cut(path, n_bytes):
    """Drop the last *n_bytes* of the file at *path*."""
    os.truncate(path, os.path.getsize(path) - n_bytes)


class TestTruncatedData:
    """A file that ends inside a dataset's data raises H5LiteError from every
    read path, never a reshape ValueError or an array of bytes the file
    never held."""

    @pytest.mark.parametrize(
        "chunk_rows, read",
        [
            (None, lambda ds: ds[...]),
            (4, lambda ds: ds[...]),
            (None, lambda ds: ds[6:9]),
            (4, lambda ds: ds[6:9]),
            (None, lambda ds: ds[6:9, 2:4]),
            (4, lambda ds: ds[6:9, 2:4]),
        ],
        ids=["all-unchunked", "all-chunked", "rows-unchunked", "rows-chunked",
             "window-unchunked", "window-chunked"],
    )
    def test_short_dataset_read_raises(self, tmp_path, chunk_rows, read):
        path = tmp_path / "cut.h5lite"
        with H5LiteFile(path, "w") as fh:
            fh.create_dataset("d", np.arange(108.0).reshape(9, 4, 3), chunk_rows=chunk_rows)
        _cut(path, 8)  # the last element of the last row
        with H5LiteFile(path, "r") as fh:
            ds = fh["d"]
            np.testing.assert_array_equal(ds[0:6], np.arange(72.0).reshape(6, 4, 3))
            with pytest.raises(H5LiteError, match=r"truncated h5lite file .*cut\.h5lite"):
                read(ds)

    def test_short_scalar_read_raises(self, tmp_path):
        path = tmp_path / "scalar.h5lite"
        with H5LiteFile(path, "w") as fh:
            fh.create_dataset("value", np.float64(3.25))
        _cut(path, 3)
        with H5LiteFile(path, "r") as fh:
            with pytest.raises(H5LiteError, match="expected 8 bytes .* got 5"):
                fh["value"][...]

    def test_error_names_offset_and_byte_counts(self, tmp_path):
        path = tmp_path / "counts.h5lite"
        with H5LiteFile(path, "w") as fh:
            fh.create_dataset("d", np.zeros((2, 5)))
        _cut(path, 16)
        with H5LiteFile(path, "r") as fh:
            with pytest.raises(H5LiteError) as info:
                fh["d"][1:2]
            offset = fh._data_start + 40
        assert str(info.value) == (
            f"truncated h5lite file {path}: expected 40 bytes at offset {offset}, got 24"
        )


    def test_partial_reads_are_resumed(self, tmp_path, monkeypatch):
        """A raw read may return fewer bytes than asked before the end of
        the file (Linux caps one read() near 2 GiB): the reader continues
        where it stopped instead of calling the file short."""
        import io

        from repro.io import h5lite

        class CappedFile(io.FileIO):
            def readinto(self, buffer):
                return super().readinto(memoryview(buffer)[:7])

        data = np.random.default_rng(5).random((9, 12, 5))
        path = tmp_path / "capped.h5lite"
        with H5LiteFile(path, "w") as fh:
            fh.create_dataset("chunked", data, chunk_rows=4)
            fh.create_dataset("contiguous", data)
            fh.create_dataset("scalar", np.float64(2.5))
        with H5LiteFile(path, "r") as fh:
            monkeypatch.setattr(
                h5lite, "open", lambda name, mode, buffering: CappedFile(name, "r"),
                raising=False,
            )
            for name in ("chunked", "contiguous"):
                np.testing.assert_array_equal(fh[name][...], data)
                np.testing.assert_array_equal(fh[name][2:7], data[2:7])
                np.testing.assert_array_equal(fh[name][1:6, 2:9], data[1:6, 2:9])
            assert fh["scalar"][...] == 2.5


class TestZeroSizeDatasets:
    """Zero-byte reads are skipped: a dataset with a zero-length axis reads
    back as an empty array through every read path."""

    @pytest.mark.parametrize("shape", [(4, 3, 0), (4, 0)])
    @pytest.mark.parametrize("chunk_rows", [None, 2])
    def test_empty_dataset_reads_empty(self, tmp_path, shape, chunk_rows):
        path = tmp_path / "zero.h5lite"
        with H5LiteFile(path, "w") as fh:
            fh.create_dataset("d", np.zeros(shape), chunk_rows=chunk_rows)
        with H5LiteFile(path, "r") as fh:
            ds = fh["d"]
            assert ds[...].shape == shape
            assert ds[1:3].shape == (2,) + shape[1:]
            window = ds[1:3, 0:2]
            assert window.shape == (2, min(2, shape[1])) + shape[2:]
            assert window.dtype == np.float64
