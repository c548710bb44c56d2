"""Dataset file formats.

CSV: comma-separated decimal floats printed with 17 significant digits
(enough to reproduce any binary64 exactly), optional header line,
optional trailing integer label column.

Binary ("CORF"): a fixed little-endian layout —
magic "CORF" | version u32 = 1 | rows u32 | cols u32 | has_labels u8 |
3 zero pad bytes | rows*cols float64 row-major | rows u32 labels if
has_labels.  The round trip is bit-exact.

Each function passes its payload once, through the open file, and holds
neither the file's whole bytes or text nor a second copy of the arrays:
the CSV reader counts the rows first, then parses each line into its row
of one preallocated array.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from ..errors import FormatError, InvalidInputError
from .data import Dataset

BIN_MAGIC = b"CORF"
BIN_VERSION = 1
_BIN_HEADER = struct.Struct("<4sIIIB3x")  # magic, version, rows, cols, labels


def _open(path: Path, mode: str):
    """The file at path opened for reading; InvalidInputError if it cannot be."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc


def save_csv(dataset: Dataset, path, header: bool = False) -> None:
    feats = dataset.features
    labels = dataset.labels
    with open(Path(path), "w") as f:
        if header:
            names = [f"f{j}" for j in range(feats.shape[1])]
            if labels is not None:
                names.append("label")
            f.write(",".join(names) + "\n")
        for i in range(feats.shape[0]):
            cells = [format(v, ".17g") for v in feats[i]]
            if labels is not None:
                cells.append(str(int(labels[i])))
            f.write(",".join(cells) + "\n")


def _lines(f):
    """The lines of text file f as str.splitlines splits its whole text."""
    return (part for line in f for part in line.splitlines())


def load_csv(path, has_header: bool = False, has_labels: bool = False) -> Dataset:
    """A CSV file as a Dataset: the header line skipped when has_header,
    the last column taken as integer labels when has_labels."""
    path, start = Path(path), 1 if has_header else 0
    with _open(path, "r") as f:
        rows = sum(1 for _ in _lines(f)) - start
        if rows < 1:
            raise FormatError(f"{path}: no data rows")
        f.seek(0)
        lines = _lines(f)
        for _ in range(start):
            next(lines)
        labels = [] if has_labels else None
        for i, line in enumerate(lines):
            lineno = start + i + 1
            cells = line.split(",")
            if i == 0:
                width = len(cells)
                if has_labels and width < 2:
                    raise FormatError(f"{path}: line {lineno}: label column requested "
                                      f"but only {width} column present")
                feats = np.empty((rows, width - has_labels))
            elif len(cells) != width:
                raise FormatError(f"{path}: line {lineno}: expected {width} columns, "
                                  f"got {len(cells)}")
            if has_labels:
                label_cell = cells.pop()
                try:
                    labels.append(int(label_cell))
                except ValueError:
                    raise FormatError(f"{path}: line {lineno}: label {label_cell!r} "
                                      "is not an integer") from None
            try:
                feats[i] = [float(c) for c in cells]
            except ValueError:
                bad = next(c for c in cells if not _is_float(c))
                raise FormatError(f"{path}: line {lineno}: non-numeric cell {bad!r}") from None
    return Dataset(features=feats,
                   labels=np.array(labels) if has_labels else None)


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def save_bin(dataset: Dataset, path) -> None:
    feats = np.ascontiguousarray(dataset.features, dtype="<f8")
    rows, cols = feats.shape
    has_labels = dataset.labels is not None
    with open(Path(path), "wb") as f:
        f.write(_BIN_HEADER.pack(BIN_MAGIC, BIN_VERSION, rows, cols, int(has_labels)))
        feats.tofile(f)
        if has_labels:
            np.asarray(dataset.labels, dtype="<u4").tofile(f)


def load_bin(path) -> Dataset:
    """A CORF file as a Dataset, labels present when its header says so."""
    path = Path(path)
    with _open(path, "rb") as f:
        head = f.read(_BIN_HEADER.size)
        if len(head) < _BIN_HEADER.size:
            raise FormatError(f"{path}: file shorter than the fixed header")
        magic, version, rows, cols, has_labels = _BIN_HEADER.unpack(head)
        if magic != BIN_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != BIN_VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        if has_labels not in (0, 1):
            raise FormatError(f"{path}: has_labels flag must be 0/1, got {has_labels}")

        need = rows * cols * 8 + (rows * 4 if has_labels else 0)
        found = os.fstat(f.fileno()).st_size - _BIN_HEADER.size
        if found < need:
            raise FormatError(f"{path}: truncated payload: header declares {need} bytes, "
                              f"found {found}")
        if found > need:
            raise FormatError(f"{path}: {found - need} trailing bytes")

        feats = np.fromfile(f, dtype="<f8", count=rows * cols).reshape(rows, cols)
        labels = np.fromfile(f, dtype="<u4", count=rows).astype(int) if has_labels else None
    return Dataset(features=feats, labels=labels)


def load_dataset(path, has_header: bool = False, has_labels: bool = False) -> Dataset:
    """Load a ``.bin`` file as CORF and any other path as CSV.

    The CSV flags are ignored for CORF, whose header records the labels.
    """
    if str(path).endswith(".bin"):
        return load_bin(path)
    return load_csv(path, has_header=has_header, has_labels=has_labels)


def save_dataset(dataset: Dataset, path, header: bool = False) -> None:
    """Save to a ``.bin`` path as CORF and to any other path as CSV."""
    if str(path).endswith(".bin"):
        save_bin(dataset, path)
    else:
        save_csv(dataset, path, header=header)
