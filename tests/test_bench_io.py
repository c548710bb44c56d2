"""Round-trip and malformed-input tests for dataset file I/O.

The binary layout oracle is built byte-by-byte with struct in the tests,
independent of the writer, so both sides of the format are pinned.
"""

import struct

import numpy as np
import pytest

from coralign.bench.cli import main
from coralign.bench.data import Dataset
from coralign.bench.io import load_bin, load_csv, save_bin, save_csv, save_dataset
from coralign.errors import FormatError, InvalidInputError


def random_dataset(seed, n=7, d=3, labeled=True, K=3):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 8, size=(n, d))
    labels = rng.integers(0, K, size=n) if labeled else None
    if labeled:
        labels[:K] = np.arange(K)  # keep indices contiguous
    return Dataset(features=feats, labels=labels)


class TestCsvRoundTrip:
    def test_two_by_two_with_labels(self, tmp_path):
        ds = Dataset(
            features=np.array([[1.5, -2.25], [0.125, 3.0]]),
            labels=np.array([0, 1]),
        )
        p = tmp_path / "tiny.csv"
        save_csv(ds, p)
        back = load_csv(p, has_labels=True)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_seventeen_digits_reproduce_doubles_exactly(self, tmp_path):
        # 17 significant digits uniquely identify a binary64 value
        feats = np.array(
            [
                [1.0 / 3.0, np.pi, -1e-300],
                [1.7976931348623157e308, 2.2250738585072014e-308, -0.0],
            ]
        )
        ds = Dataset(features=feats, labels=None)
        p = tmp_path / "x.csv"
        save_csv(ds, p)
        back = load_csv(p)
        np.testing.assert_array_equal(back.features, feats)

    def test_random_values_round_trip(self, tmp_path):
        ds = random_dataset(0)
        p = tmp_path / "r.csv"
        save_csv(ds, p)
        back = load_csv(p, has_labels=True)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_header_flag_skips_header(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("a,b,label\n1.0,2.0,0\n3.0,4.0,1\n")
        back = load_csv(p, has_header=True, has_labels=True)
        np.testing.assert_array_equal(back.features, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(back.labels, [0, 1])

    def test_save_with_header_round_trips(self, tmp_path):
        ds = random_dataset(1)
        p = tmp_path / "h2.csv"
        save_csv(ds, p, header=True)
        back = load_csv(p, has_header=True, has_labels=True)
        np.testing.assert_array_equal(back.features, ds.features)


class TestCsvErrors:
    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0\n3.0,4.0\n5.0\n6.0,7.0\n")
        with pytest.raises(FormatError, match="line 3"):
            load_csv(p)

    def test_non_numeric_cell_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(FormatError, match="line 2"):
            load_csv(p)

    def test_header_line_counts_toward_line_numbers(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1.0,2.0\nx,3.0\n")
        with pytest.raises(FormatError, match="line 3"):
            load_csv(p, has_header=True)

    def test_labels_requested_but_single_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0\n2.0\n")
        with pytest.raises(FormatError, match="label"):
            load_csv(p, has_labels=True)

    def test_non_integer_label(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,0\n2.0,1.5\n")
        with pytest.raises(FormatError, match="line 2"):
            load_csv(p, has_labels=True)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(FormatError):
            load_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInputError):
            load_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize("label", ["99999999999999999999", "-99999999999999999999",
                                       "9223372036854775808"])
    def test_label_beyond_int64_exits_1(self, tmp_path, capsys, label):
        p = tmp_path / "big.csv"
        p.write_text(f"1.0,0\n2.0,{label}\n")
        assert main(["convert", str(p), str(tmp_path / "out.bin"), "--csv-has-labels"]) == 1
        assert capsys.readouterr().err == "error: labels must be integers\n"


def test_csv_lines_split_as_str_splitlines_splits(tmp_path):
    # a form feed, a record separator, \r\n and a lone \r each end a line
    p = tmp_path / "lines.csv"
    p.write_text("1,2\x0c3,4\x1e5,6\r\n7,8\r9,10\n")
    np.testing.assert_array_equal(load_csv(p).features, [[1, 2], [3, 4], [5, 6], [7, 8], [9, 10]])


class TestBinaryRoundTrip:
    def test_random_dataset_bit_identical(self, tmp_path):
        ds = random_dataset(3)
        p = tmp_path / "r.bin"
        save_bin(ds, p)
        back = load_bin(p)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_unlabeled_round_trip(self, tmp_path):
        ds = random_dataset(4, labeled=False)
        p = tmp_path / "u.bin"
        save_bin(ds, p)
        back = load_bin(p)
        np.testing.assert_array_equal(back.features, ds.features)
        assert back.labels is None

    def test_exact_byte_layout_written(self, tmp_path):
        feats = np.array([[1.5, -2.0], [0.25, 3.0]])
        ds = Dataset(features=feats, labels=np.array([0, 1]))
        p = tmp_path / "layout.bin"
        save_bin(ds, p)
        want = (
            b"CORF"
            + struct.pack("<I", 1)          # version
            + struct.pack("<I", 2)          # rows
            + struct.pack("<I", 2)          # cols
            + bytes([1, 0, 0, 0])           # has_labels + padding
            + struct.pack("<4d", 1.5, -2.0, 0.25, 3.0)
            + struct.pack("<2I", 0, 1)
        )
        assert p.read_bytes() == want

    def test_hand_crafted_bytes_load(self, tmp_path):
        raw = (
            b"CORF"
            + struct.pack("<I", 1)
            + struct.pack("<I", 1)
            + struct.pack("<I", 3)
            + bytes([0, 0, 0, 0])
            + struct.pack("<3d", 0.5, -0.5, 42.0)
        )
        p = tmp_path / "crafted.bin"
        p.write_bytes(raw)
        back = load_bin(p)
        np.testing.assert_array_equal(back.features, [[0.5, -0.5, 42.0]])
        assert back.labels is None


class TestBinaryArrays:
    @pytest.mark.parametrize("labeled", [True, False])
    def test_save_writes_the_header_then_the_arrays_bytes(self, tmp_path, labeled):
        ds = random_dataset(12, n=9, d=4, labeled=labeled)
        p = tmp_path / "a.bin"
        save_bin(ds, p)
        want = struct.pack("<4sIIIB3x", b"CORF", 1, 9, 4, int(labeled))
        want += ds.features.astype("<f8").tobytes()
        if labeled:
            want += ds.labels.astype("<u4").tobytes()
        assert p.read_bytes() == want

    @pytest.mark.parametrize("labeled", [True, False])
    def test_load_returns_writable_c_contiguous_arrays(self, tmp_path, labeled):
        p = tmp_path / "a.bin"
        save_bin(random_dataset(13, labeled=labeled), p)
        back = load_bin(p)
        arrays = [back.features] + ([back.labels] if labeled else [])
        assert [a.dtype for a in arrays] == [np.dtype(float), np.dtype(int)][:len(arrays)]
        assert all(a.flags.writeable and a.flags.c_contiguous for a in arrays)


class TestOnePass:
    """Each reader and writer passes its payload once: its traced peak in
    units of the feature bytes, at 2000 x 128 with labels, is 0.006, 1.13,
    0.017 and 1.15, the loaders holding the features and Dataset's
    isfinite mask.  Through byte copies, a list of lines and a list of
    rows the four took 2.0, 4.0, 8.0 and 10.6."""

    RUNS = {
        "save_bin": lambda ds, p: save_bin(ds, p),
        "load_bin": lambda ds, p: load_bin(p),
        "save_csv": lambda ds, p: save_csv(ds, p),
        "load_csv": lambda ds, p: load_csv(p, has_labels=True),
    }

    @pytest.mark.parametrize("name, bound", [("save_bin", 0.25), ("load_bin", 1.25),
                                             ("save_csv", 0.25), ("load_csv", 1.25)])
    def test_traced_peak(self, tmp_path, traced_peak, name, bound):
        run = self.RUNS[name]
        big, small = random_dataset(10, n=2000, d=128), random_dataset(11)
        pb, ps = tmp_path / f"big.{name[-3:]}", tmp_path / f"small.{name[-3:]}"
        save_dataset(big, pb)
        save_dataset(small, ps)
        assert traced_peak(lambda: run(big, pb), lambda: run(small, ps),
                           big.features.nbytes) <= bound


class TestBinaryErrors:
    def test_wrong_magic(self, tmp_path):
        ds = random_dataset(5, n=4, d=2)
        p = tmp_path / "m.bin"
        save_bin(ds, p)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"XXXX"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load_bin(p)

    def test_unsupported_version(self, tmp_path):
        ds = random_dataset(6, n=4, d=2)
        p = tmp_path / "v.bin"
        save_bin(ds, p)
        raw = bytearray(p.read_bytes())
        raw[4:8] = struct.pack("<I", 9)
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_bin(p)

    def test_truncated_payload(self, tmp_path):
        ds = random_dataset(7, n=4, d=2)
        p = tmp_path / "t.bin"
        save_bin(ds, p)
        raw = p.read_bytes()
        p.write_bytes(raw[:-5])
        with pytest.raises(FormatError, match="truncat|payload"):
            load_bin(p)

    def test_declared_rows_exceed_payload(self, tmp_path):
        ds = random_dataset(8, n=4, d=2, labeled=False)
        p = tmp_path / "d.bin"
        save_bin(ds, p)
        raw = bytearray(p.read_bytes())
        raw[8:12] = struct.pack("<I", 400)  # claim 400 rows
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_bin(p)

    def test_header_shorter_than_minimum(self, tmp_path):
        p = tmp_path / "s.bin"
        p.write_bytes(b"COR")
        with pytest.raises(FormatError):
            load_bin(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInputError):
            load_bin(tmp_path / "nope.bin")


class TestCrossFormatAgreement:
    def test_csv_and_binary_loaders_agree(self, tmp_path):
        ds = random_dataset(9)
        pc = tmp_path / "a.csv"
        pb = tmp_path / "a.bin"
        save_csv(ds, pc)
        save_bin(ds, pb)
        from_csv = load_csv(pc, has_labels=True)
        from_bin = load_bin(pb)
        np.testing.assert_array_equal(from_csv.features, from_bin.features)
        np.testing.assert_array_equal(from_csv.labels, from_bin.labels)
