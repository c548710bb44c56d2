"""Dataset file formats.

CSV: comma-separated decimal floats printed with 17 significant digits
(enough to reproduce any binary64 exactly), optional header line,
optional trailing integer label column.

Binary ("CORF"): a fixed little-endian layout —
magic "CORF" | version u32 = 1 | rows u32 | cols u32 | has_labels u8 |
3 zero pad bytes | rows*cols float64 row-major | rows u32 labels if
has_labels.  The round trip is bit-exact.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..errors import FormatError, InvalidInputError
from .data import Dataset

BIN_MAGIC = b"CORF"
BIN_VERSION = 1
_BIN_HEADER = struct.Struct("<4sIIIB3x")  # magic, version, rows, cols, labels


def save_csv(dataset: Dataset, path, header: bool = False) -> None:
    feats = dataset.features
    labels = dataset.labels
    lines = []
    if header:
        names = [f"f{j}" for j in range(feats.shape[1])]
        if labels is not None:
            names.append("label")
        lines.append(",".join(names))
    for i in range(feats.shape[0]):
        cells = [format(v, ".17g") for v in feats[i]]
        if labels is not None:
            cells.append(str(int(labels[i])))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def load_csv(path, has_header: bool = False, has_labels: bool = False) -> Dataset:
    """A CSV file as a Dataset: the header line skipped when has_header,
    the last column taken as integer labels when has_labels."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    start = 1 if has_header else 0
    data_lines = [(i + 1, line) for i, line in enumerate(lines) if i >= start]
    if not data_lines:
        raise FormatError(f"{path}: no data rows")

    width = None
    rows = []
    labels = [] if has_labels else None
    for lineno, line in data_lines:
        cells = line.split(",")
        if width is None:
            width = len(cells)
            if has_labels and width < 2:
                raise FormatError(
                    f"{path}: line {lineno}: label column requested but "
                    f"only {width} column present"
                )
        elif len(cells) != width:
            raise FormatError(
                f"{path}: line {lineno}: expected {width} columns, "
                f"got {len(cells)}"
            )
        if has_labels:
            feat_cells, label_cell = cells[:-1], cells[-1]
            try:
                labels.append(int(label_cell))
            except ValueError:
                raise FormatError(
                    f"{path}: line {lineno}: label {label_cell!r} is not "
                    "an integer"
                ) from None
        else:
            feat_cells = cells
        try:
            rows.append([float(c) for c in feat_cells])
        except ValueError:
            bad = next(c for c in feat_cells if not _is_float(c))
            raise FormatError(
                f"{path}: line {lineno}: non-numeric cell {bad!r}"
            ) from None

    return Dataset(features=np.array(rows, dtype=float),
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
    blob = _BIN_HEADER.pack(BIN_MAGIC, BIN_VERSION, rows, cols, int(has_labels))
    blob += feats.tobytes(order="C")
    if has_labels:
        blob += np.asarray(dataset.labels, dtype="<u4").tobytes()
    Path(path).write_bytes(blob)


def load_bin(path) -> Dataset:
    """A CORF file as a Dataset, labels present when its header says so."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    if len(raw) < _BIN_HEADER.size:
        raise FormatError(f"{path}: file shorter than the fixed header")
    magic, version, rows, cols, has_labels = _BIN_HEADER.unpack_from(raw)
    if magic != BIN_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != BIN_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    if has_labels not in (0, 1):
        raise FormatError(f"{path}: has_labels flag must be 0/1, got {has_labels}")

    need = rows * cols * 8 + (rows * 4 if has_labels else 0)
    payload = raw[_BIN_HEADER.size:]
    if len(payload) < need:
        raise FormatError(
            f"{path}: truncated payload: header declares {need} bytes, "
            f"found {len(payload)}"
        )
    if len(payload) > need:
        raise FormatError(f"{path}: {len(payload) - need} trailing bytes")

    feats = np.frombuffer(payload[: rows * cols * 8], dtype="<f8")
    feats = feats.reshape(rows, cols).astype(float)
    labels = None
    if has_labels:
        labels = np.frombuffer(payload[rows * cols * 8:], dtype="<u4").astype(int)
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
