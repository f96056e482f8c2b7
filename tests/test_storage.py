"""Binary container format tests: layout bytes, round trips, errors."""

import re
import struct

import numpy as np
import pytest

from subspectral.features import BinNormalizer
from subspectral.models import build_model, load_model, model_description
from subspectral.storage import (
    ContainerError,
    read_checkpoint,
    read_class_names,
    read_features,
    read_normalizer,
    table_text,
    write_checkpoint,
    write_class_names,
    write_features,
    write_normalizer,
    write_table,
)


class TestFeatureContainer:
    def test_header_layout(self, tmp_path, rng):
        x = rng.standard_normal((3, 2, 4, 5)).astype(np.float32)
        labels = np.array([7, 1, 2], dtype=np.uint32)
        path = tmp_path / "f.ssnf"
        write_features(path, x, labels)
        blob = path.read_bytes()
        assert blob[:4] == b"SSNF"
        version, n, c, f, t = struct.unpack("<5I", blob[4:24])
        assert (version, n, c, f, t) == (1, 3, 2, 4, 5)
        assert len(blob) == 24 + 3 * (4 + 2 * 4 * 5 * 4)
        # first sample: label then row-major float32 data
        assert struct.unpack("<I", blob[24:28])[0] == 7
        first = np.frombuffer(blob, dtype="<f4", count=40, offset=28).reshape(2, 4, 5)
        np.testing.assert_array_equal(first, x[0])

    def test_roundtrip(self, tmp_path, rng):
        x = rng.standard_normal((6, 1, 3, 7)).astype(np.float32)
        labels = rng.integers(0, 10, 6).astype(np.uint32)
        path = tmp_path / "f.ssnf"
        write_features(path, x, labels)
        x2, labels2 = read_features(path)
        np.testing.assert_array_equal(x, x2)
        np.testing.assert_array_equal(labels, labels2)

    def test_read_gives_contiguous_float32_and_uint32(self, tmp_path, rng):
        path = tmp_path / "f.ssnf"
        write_features(path, rng.standard_normal((3, 2, 4, 5)), np.array([1, 2, 3]))
        x, labels = read_features(path)
        assert x.dtype == np.float32 and x.flags.c_contiguous and x.flags.writeable
        assert labels.dtype == np.uint32 and labels.flags.writeable

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ssnf"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ContainerError, match="magic"):
            read_features(path)

    def test_size_mismatch(self, tmp_path, rng):
        x = rng.standard_normal((2, 1, 2, 2)).astype(np.float32)
        path = tmp_path / "f.ssnf"
        write_features(path, x, np.zeros(2, dtype=np.uint32))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ContainerError, match="size"):
            read_features(path)

    def test_cut_header_raises_container_error(self, tmp_path, rng):
        path = tmp_path / "f.ssnf"
        write_features(path, rng.standard_normal((2, 1, 2, 3)), np.array([0, 1]))
        blob = path.read_bytes()
        for size in range(24):
            path.write_bytes(blob[:size])
            with pytest.raises(ContainerError, match=re.escape(str(path))):
                read_features(path)

    @pytest.mark.parametrize("n, c, f, t", [(1, 2**16, 2**16, 2**16), (1, 2**31, 2**31, 2**31), (0, 2**16, 2**16, 2**16)])
    def test_inflated_header_raises_container_error(self, tmp_path, rng, n, c, f, t):
        # header sizes that numpy cannot lay out as one record
        path = tmp_path / "f.ssnf"
        write_features(path, rng.standard_normal((n, 1, 2, 3)), np.zeros(n))
        blob = path.read_bytes()
        path.write_bytes(blob[:8] + struct.pack("<4I", n, c, f, t) + blob[24:])
        with pytest.raises(ContainerError, match=re.escape(str(path))):
            read_features(path)

    @pytest.mark.parametrize("n", [0, 2])
    @pytest.mark.parametrize("c, f, t", [(0, 2, 3), (1, 0, 3), (1, 2, 0)])
    def test_sample_without_values_raises_container_error(self, tmp_path, n, c, f, t):
        # written by hand: write_features refuses such a shape
        path = tmp_path / "f.ssnf"
        path.write_bytes(b"SSNF" + struct.pack("<5I", 1, n, c, f, t) + b"\x00" * 4 * n)
        with pytest.raises(ContainerError, match=re.escape(f"{path}: a {c}x{f}x{t} sample holds no values")):
            read_features(path)

    @pytest.mark.parametrize("n", [0, 2])
    @pytest.mark.parametrize("c, f, t", [(0, 2, 3), (1, 0, 3), (1, 2, 0)])
    def test_write_refuses_sample_without_values(self, tmp_path, n, c, f, t):
        path = tmp_path / "f.ssnf"
        with pytest.raises(ValueError, match=re.escape(f"a {c}x{f}x{t} sample holds no values")):
            write_features(path, np.zeros((n, c, f, t)), np.zeros(n))
        assert not path.exists()

    def test_label_count_mismatch(self, tmp_path, rng):
        with pytest.raises(ValueError, match="labels"):
            write_features(tmp_path / "f.ssnf", rng.standard_normal((2, 1, 2, 2)), np.zeros(3))


class TestNormalizerSidecar:
    def test_layout_and_roundtrip(self, tmp_path, rng):
        norm = BinNormalizer(mean=rng.standard_normal((2, 5)), std=rng.uniform(0.5, 2, (2, 5)))
        path = tmp_path / "norm.bin"
        write_normalizer(path, norm)
        blob = path.read_bytes()
        assert struct.unpack("<2I", blob[:8]) == (2, 5)
        assert len(blob) == 8 + 2 * 2 * 5 * 8
        back = read_normalizer(path)
        np.testing.assert_array_equal(back.mean, norm.mean)
        np.testing.assert_array_equal(back.std, norm.std)

    def test_truncated(self, tmp_path):
        path = tmp_path / "norm.bin"
        path.write_bytes(struct.pack("<2I", 2, 5) + b"\x00" * 10)
        with pytest.raises(ContainerError):
            read_normalizer(path)

    def test_cut_header_raises_container_error(self, tmp_path):
        path = tmp_path / "norm.bin"
        write_normalizer(path, BinNormalizer(mean=np.zeros((1, 2)), std=np.ones((1, 2))))
        blob = path.read_bytes()
        for size in range(8):
            path.write_bytes(blob[:size])
            with pytest.raises(ContainerError, match=re.escape(str(path))):
                read_normalizer(path)


    @pytest.mark.parametrize(
        "offset, value",
        [(-8, 0.0), (-8, -1.0), (-8, float("nan")), (-8, float("inf")), (8, float("nan"))],
        ids=["0.0", "-1.0", "nan", "inf", "mean-nan"],
    )
    def test_non_positive_std_raises_container_error(self, tmp_path, offset, value):
        path = tmp_path / "norm.bin"
        write_normalizer(path, BinNormalizer(mean=np.zeros((1, 2)), std=np.ones((1, 2))))
        blob = bytearray(path.read_bytes())
        blob[offset : offset + 8 or None] = struct.pack("<d", value)  # the last std entry, or the first mean entry
        path.write_bytes(bytes(blob))
        with pytest.raises(ContainerError, match=re.escape(str(path))):
            read_normalizer(path)


class TestClassNames:
    def test_roundtrip(self, tmp_path):
        names = ["airport", "bus", "metro"]
        path = tmp_path / "labels.tsv"
        write_class_names(path, names)
        assert read_class_names(path) == names

    def test_non_contiguous_ids(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("0\ta\n2\tb\n")
        with pytest.raises(ContainerError, match="contiguous"):
            read_class_names(path)

    @pytest.mark.parametrize("text", ["0\n", "0 airport\n", "0\tairport\n1", "x\tairport\n", "0\ta\tb\n"])
    def test_malformed_line_raises_container_error(self, tmp_path, text):
        path = tmp_path / "labels.tsv"
        path.write_text(text)
        with pytest.raises(ContainerError, match=re.escape(str(path))):
            read_class_names(path)


    @pytest.mark.parametrize("name", ["", "metro/station"])
    def test_name_that_cannot_name_a_file_raises_container_error(self, tmp_path, name):
        path = tmp_path / "labels.tsv"
        path.write_text(f"0\tbus\n1\t{name}\n")
        with pytest.raises(ContainerError, match=re.escape(f"{path}: line 2: class name {name!r}")):
            read_class_names(path)


class TestTable:
    def test_floats_take_six_significant_digits(self):
        values = [1 / 3, 2.5e-7, 123456789.0, 0.0, float("nan"), float("inf")]
        for v in values + [np.float64(v) for v in values] + [np.float32(v) for v in values]:
            assert table_text([[v]]) == f"{v:.6g}\n", repr(v)
        cells = np.array([[0.1, 2 / 3]], dtype=np.float32)
        assert table_text(cells) == f"{cells[0, 0]:.6g}\t{cells[0, 1]:.6g}\n" == "0.1\t0.666667\n"

    def test_other_cells_are_written_with_str(self):
        counts = np.array([[0, 1234567], [2**40, 3]], dtype=np.int64)
        assert table_text(counts) == "0\t1234567\n1099511627776\t3\n"
        assert table_text([[np.uint32(7), 8, "a b", None, True]]) == "7\t8\ta b\tNone\tTrue\n"

    def test_header_comes_first_and_rows_may_be_any_iterable(self):
        rows = ([i, i / 4] for i in range(2))
        assert table_text(rows, ["n", "quarter"]) == "n\tquarter\n0\t0\n1\t0.25\n"

    def test_empty_rows(self, tmp_path):
        assert table_text([]) == ""
        assert table_text([], ["a", "b"]) == "a\tb\n"
        path = tmp_path / "t.tsv"
        write_table(path, [], ["a", "b"])
        assert path.read_text() == "a\tb\n"


class TestCheckpoint:
    def test_layout_and_roundtrip(self, tmp_path, rng):
        tensors = [
            ("layer.weight", "param", rng.standard_normal((3, 4)).astype(np.float32)),
            ("layer.bias", "param", rng.standard_normal(4).astype(np.float32)),
            ("bn.running_mean", "buffer", rng.standard_normal(4).astype(np.float32)),
        ]
        desc = {"kind": "baseline", "n_classes": 10}
        path = tmp_path / "m.ssnw"
        write_checkpoint(path, desc, tensors, meta={"accuracy": 0.5})
        blob = path.read_bytes()
        assert blob[:4] == b"SSNW"
        header_len = struct.unpack("<I", blob[4:8])[0]
        import json

        header = json.loads(blob[8 : 8 + header_len])
        assert header["model"] == desc
        assert [t["name"] for t in header["tensors"]] == ["layer.weight", "layer.bias", "bn.running_mean"]
        assert all(t["dtype"] == "float32" for t in header["tensors"])
        got_desc, got_tensors, meta = read_checkpoint(path)
        assert got_desc == desc
        assert meta == {"accuracy": 0.5}
        for name, _, arr in tensors:
            np.testing.assert_array_equal(got_tensors[name], arr)

    def test_trailing_bytes_detected(self, tmp_path, rng):
        path = tmp_path / "m.ssnw"
        write_checkpoint(path, {}, [("w", "param", rng.standard_normal(3).astype(np.float32))])
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(ContainerError, match="trailing"):
            read_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ssnw"
        path.write_bytes(b"XXXX" + b"\x00" * 10)
        with pytest.raises(ContainerError, match="magic"):
            read_checkpoint(path)

    @pytest.mark.parametrize(
        "damage",
        [
            "truncated_tensor_data",
            "header_len_past_end",
            "bit_flipped_header",
            "header_cut_short",
            "renamed_tensors_key",
            "renamed_model_key",
            "renamed_shape_key",
            "renamed_kind_key",
            "mel_bins_as_string",
            "shape_count_wraps_int64",
        ],
    )
    def test_malformed_file_raises_container_error(self, tmp_path, rng, damage):
        path = tmp_path / "m.ssnw"
        write_checkpoint(path, {"kind": "baseline"}, [("w", "param", rng.standard_normal((3, 4)).astype(np.float32))])
        blob = bytearray(path.read_bytes())
        header_len = struct.unpack("<I", blob[4:8])[0]
        if damage == "truncated_tensor_data":
            blob = blob[:-5]
        elif damage == "header_len_past_end":
            blob[4:8] = struct.pack("<I", len(blob))
        elif damage == "bit_flipped_header":
            blob[8] ^= 0x80  # '{' becomes a byte that is not valid utf-8
        elif damage == "header_cut_short":
            blob[4:8] = struct.pack("<I", header_len - 7)
        elif damage == "mel_bins_as_string":
            desc = dict(build_model(model_description("baseline", 40, 50, 2)).describe(), mel_bins="40")
            write_checkpoint(path, desc, [])
            blob = path.read_bytes()
        elif damage == "shape_count_wraps_int64":
            # 2**32 * 2**32 elements is 0 in int64 arithmetic
            header = blob[8 : 8 + header_len].replace(b"[3, 4]", b"[4294967296, 4294967296]")
            blob = blob[:4] + struct.pack("<I", len(header)) + header + blob[8 + header_len :]
        else:  # a one-letter change that leaves the header valid JSON
            key = damage.split("_")[1].encode()
            blob = blob.replace(b'"%s"' % key, b'"%s"' % (key[:-1] + b"_"), 1)
        path.write_bytes(bytes(blob))
        # the model description is only read when the graph is rebuilt
        reader = load_model if damage in ("renamed_kind_key", "mel_bins_as_string") else read_checkpoint
        with pytest.raises(ContainerError, match=re.escape(str(path))):
            reader(path)
