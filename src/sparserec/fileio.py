"""File formats: the binary feature container, model serialization, CSV
inputs and outputs, and report rendering.

Binary layout (all integers and floats little-endian):

  feature file   magic 'CSRC' | u32 version=1 | u8 flag (0 flat, 1 tensor)
                 flat:   u32 D | u32 M
                 tensor: u32 n1 | u32 n2 | u32 n | u32 M
                 M records of float64 (D values, or n*n1*n2 values stored
                 map-major then row-major) | M u32 class labels |
                 M ids, each u32 byte length + UTF-8 bytes
  pca model      magic 'CPCM' | u32 version=1 | u32 D | u32 K |
                 mean (D f64) | eigenvalues (K f64) | projection (D*K f64,
                 row-major)
  dictionary     magic 'CDIC' | u32 version=1 | u32 K | u32 N | u32 c |
                 Phi (K*N f64, row-major: one atom per column, the
                 transpose of the N x K `Dictionary.atoms` in memory) |
                 column labels (N u32) class-major (non-decreasing), every
                 class in [0, c) present; written for a fit bundle but never
                 read: a gallery is built from the bundle's enrolment file

Declared sizes must match the payload exactly; short files raise
TruncatedFile with the failing byte offset, extra bytes raise TrailingData.
A file is mapped read-only once and read front to back: each declared size
is checked against the mapped length before it is read, and float payloads
are read-only views of the mapping, so loading a file copies no payload.
A feature payload starts at byte 17 (flat) or 25 (tensor), so its view is
not 8-byte aligned; code that multiplies loaded arrays hands BLAS aligned
copies, chunk by chunk.  The layout is a header detail: either layout loads as
one flat row per sample (a tensor sample's maps, row-major in channel order,
are a view of its payload), every command reads both, and one writer writes
both, so the two files of a Dataset differ only in their headers.
A payload or pca.bin field holding a NaN or infinity, or values whose sum of
squares exceeds float64's maximum / 4 (`core._MAX_SUM_SQ`; for the
eigenvalues, which are sums of squares, their sum), raises NonFiniteValue
naming the file.

The CSV outputs, scores and ROC, are formatted and written in blocks of
`_WRITE_CELLS` cells, so writing one holds one block's Python objects,
however many rows the file has.  CSV inputs are features, read wherever an
input path ends in `.csv`, and pairs lists.

A binary output is written as a fresh file: an existing file at its path is
unlinked first, never truncated, because a live mapping may still read it
(the output may even be written from that mapping).
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import mmap
import os
import struct
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import _CHUNK_VALUES, Dataset, Dictionary, _frozen, _in_range, dataset_from_arrays
from .errors import (
    BadEncoding,
    BadMagic,
    DegenerateData,
    InvalidParameters,
    MalformedLine,
    NonFiniteValue,
    SparserecError,
    TrailingData,
    TruncatedFile,
    VersionMismatch,
)
from .evaluation import EvalReport, ScoreSet, _sorted_unique
from .pca import PcaModel

FEATURE_MAGIC = b"CSRC"
PCA_MAGIC = b"CPCM"
DICT_MAGIC = b"CDIC"
FORMAT_VERSION = 1
FLAG_FLAT = 0
FLAG_TENSOR = 1
SCORES_HEADER = ["probe_id", "claimed_class", "score", "is_genuine"]

# Cells per block when writing a CSV (about 2 MB of Python objects): a score
# set or ROC table costs one block's memory, not the file's.
_WRITE_CELLS = 1 << 15


class _ByteReader:
    """Reads a file front to back through one read-only mapping of it.

    Every declared size is checked against the mapped length before it is
    read, so a damaged count cannot ask for gigabytes and a short file raises
    TruncatedFile; arrays are read-only views of the mapping.
    """

    def __init__(self, path: str):
        self._path = path
        with open(path, "rb") as fh:
            try:
                self._data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError:  # an empty file cannot be mapped
                self._data = b""
        self.offset = 0

    def _check(self, count: int, what: str) -> None:
        left = len(self._data) - self.offset
        if count > left:
            raise TruncatedFile(
                f"{self._path}: truncated while reading {what} at byte offset {self.offset}"
                f" (need {count} bytes, {left} left)"
            )

    def take(self, count: int, what: str) -> bytes:
        self._check(count, what)
        self.offset += count
        return self._data[self.offset - count : self.offset]

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def _view(self, dtype: str, count: int, what: str) -> np.ndarray:
        itemsize = np.dtype(dtype).itemsize
        self._check(itemsize * count, what)
        values = np.frombuffer(self._data, dtype=dtype, count=count, offset=self.offset)
        self.offset += itemsize * count
        return values

    def f64_array(self, count: int, what: str) -> np.ndarray:
        # A view of the mapping, not a copy.  At a header's odd offset it is
        # not 8-byte aligned, and numpy multiplies such an operand in a slow
        # loop instead of BLAS, which rounds differently, so every product
        # of a loaded array takes an aligned copy first: PCA's centred
        # chunks, the dictionary's gathered rows, knn1's probe blocks.
        return self._view("<f8", count, what).astype(np.float64, copy=False)

    def u32_array(self, count: int, what: str) -> np.ndarray:
        return self._view("<u4", count, what).astype(np.int64)

    def utf8(self, what: str) -> str:
        length = self.u32(f"{what} length")
        start = self.offset
        try:
            return self.take(length, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BadEncoding(
                f"{self._path}: {what} is not valid UTF-8 (byte offset {start + exc.start})"
            ) from None

    def finish(self) -> None:
        if self.offset != len(self._data):
            raise TrailingData(
                f"{self._path}: {len(self._data) - self.offset} unexpected bytes"
                f" after declared payload (offset {self.offset})"
            )


def _check_header(reader: _ByteReader, magic: bytes, path: str) -> None:
    got = reader.take(4, "magic")
    if got != magic:
        raise BadMagic(f"{path}: bad magic {got!r}, expected {magic!r}")
    version = reader.u32("format version")
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"{path}: unsupported format version {version}, expected {FORMAT_VERSION}")


def _finite(values: np.ndarray, path: str, what: str) -> np.ndarray:
    """`values`, or NonFiniteValue naming the file and the field when they
    fail `core._in_range`."""
    if not _in_range(values):
        raise NonFiniteValue(f"{path}: {what} contains a NaN or infinity, or values too large for float64")
    return values


def _named_dataset(path, values, labels, ids) -> Dataset:
    """`dataset_from_arrays`, with `path` before any error it raises."""
    try:
        return dataset_from_arrays(values, labels, ids)
    except SparserecError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _f64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype="<f8")


def _u32(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype="<u4")


def _write_parts(path: str | Path, parts: Iterable) -> None:
    """Write each bytes-like part in turn: arrays go to the file from their own
    buffers instead of through one joined copy of the whole file.

    An existing file is unlinked and a new one created, not truncated in
    place: a mapping of the old file, perhaps the source of `parts`, would
    read past its end and the process would die with SIGBUS."""
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    with open(path, "wb") as fh:
        fh.writelines(parts)


def _id_block(ids: Sequence[str]) -> bytes:
    parts = []
    for s in ids:
        encoded = s.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
    return b"".join(parts)


# ---------------------------------------------------------------------------
# feature files


def write_flat_features(path: str | Path, dataset: Dataset, shape: tuple[int, int, int] | None = None) -> None:
    """Write `dataset` as a flat feature file or, given the map shape
    `(n1, n2, n)` of its rows, as a tensor file: only the header differs."""
    flag, dims = (FLAG_FLAT, (dataset.dim,)) if shape is None else (FLAG_TENSOR, tuple(shape))
    if math.prod(dims) != dataset.dim:
        raise InvalidParameters(f"map shape {shape} holds {math.prod(dims)} values per sample, dim is {dataset.dim}")
    header = FEATURE_MAGIC + struct.pack(f"<IB{len(dims) + 1}I", FORMAT_VERSION, flag, *dims, dataset.num_samples)
    _write_parts(path, (header, _f64(dataset.features), _u32(dataset.labels), _id_block(dataset.ids)))


def read_feature_file(path: str | Path) -> Dataset:
    """Read a binary feature file, of either layout, as one row per sample;
    the flag byte says which header to read."""
    path = str(path)
    reader = _ByteReader(path)
    _check_header(reader, FEATURE_MAGIC, path)
    flag = reader.u8("layout flag")
    if flag == FLAG_FLAT:
        dim = reader.u32("feature dimension")
        what = "feature payload"
    elif flag == FLAG_TENSOR:
        dim = math.prod(reader.u32(field) for field in ("map rows", "map cols", "map count"))
        what = "tensor payload"
    else:
        raise InvalidParameters(f"{path}: unknown layout flag {flag}")
    m = reader.u32("sample count")
    values = reader.f64_array(m * dim, what).reshape(m, dim)
    labels = reader.u32_array(m, "class labels")
    ids = tuple(reader.utf8(f"id {i}") for i in range(m))
    reader.finish()
    return _named_dataset(path, values, labels, ids)


def load_flat_dataset(path: str | Path) -> Dataset:
    """Load a feature file of either layout, or a CSV by extension, as a
    Dataset of flat rows."""
    if str(path).endswith(".csv"):
        return read_features_csv(path)
    return read_feature_file(path)


# ---------------------------------------------------------------------------
# CSV (feature inputs for small hand-written fixtures; writing shared by the outputs)


def _csv_field(text: str) -> str:
    """`text` escaped the way csv.writer writes it inside a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]


def _write_rows(path: str | Path, header: str, template: str, rows: int, block) -> None:
    """Write a header line, then one `template` line per row.  `block(lo, hi)`
    returns rows lo:hi as a list of columns, each a list of cells; rows are
    formatted and written `_WRITE_CELLS` cells at a time, so only one block's
    cells are ever Python objects."""
    width = template.count("%")
    step = max(1, _WRITE_CELLS // width)
    with open(path, "w", newline="") as fh:
        fh.write(header)
        for lo in range(0, rows, step):
            columns = block(lo, min(rows, lo + step))
            cells: list = [None] * (width * len(columns[0]))
            for k, column in enumerate(columns):
                cells[k::width] = column
            fh.write((template * len(columns[0])) % tuple(cells))


def _read_csv(path: str | Path, header_ok, header_text: str, convert, row_text: str) -> list:
    """Data rows of a CSV file, each passed through `convert`.  A row of another
    width than the header, or one `convert` or the csv module rejects, raises
    MalformedLine naming path:line; undecodable bytes raise BadEncoding."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = []
        try:
            header = next(reader, [])
            if not header_ok(header):
                raise InvalidParameters(f"{path}: expected header {header_text}")
            for row in reader:
                try:
                    if len(row) != len(header):
                        raise ValueError
                    rows.append(convert(row))
                except ValueError:
                    raise MalformedLine(f"{path}:{reader.line_num}: expected {row_text}, got {row!r}") from None
        except csv.Error as exc:
            raise MalformedLine(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError:
            raise BadEncoding(f"{path}: not valid text in the file encoding") from None
    return rows


def _class_index(text: str) -> int:
    """A class label or claim: an integer in the u32 range the binary files store."""
    value = int(text)
    if not 0 <= value < 2**32:
        raise ValueError(text)
    return value


def _finite_number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def read_features_csv(path: str | Path) -> Dataset:
    rows = _read_csv(
        path, lambda h: len(h) >= 3 and h[:2] == ["id", "class_label"], "id,class_label,v0,...",
        lambda r: (r[0], _class_index(r[1]), [_finite_number(v) for v in r[2:]]),
        "an id, a class label from 0 and one finite number per value column",
    )
    ids, labels, values = zip(*rows) if rows else ((),) * 3
    return _named_dataset(path, np.asarray(values, dtype=np.float64), labels, ids)


# ---------------------------------------------------------------------------
# model files


def write_pca_model(path: str | Path, model: PcaModel) -> None:
    header = PCA_MAGIC + struct.pack("<III", FORMAT_VERSION, model.dim_in, model.num_components)
    _write_parts(path, (header, _f64(model.mean), _f64(model.eigenvalues), _f64(model.projection)))


def read_pca_model(path: str | Path) -> PcaModel:
    """Read a serialized projection.

    Cumulative variance fractions are a fit-time diagnostic; on load they are
    recomputed relative to the stored (possibly truncated) spectrum.
    """
    path = str(path)
    reader = _ByteReader(path)
    _check_header(reader, PCA_MAGIC, path)
    d = reader.u32("input dimension")
    k = reader.u32("component count")
    mean = _finite(reader.f64_array(d, "mean vector"), path, "mean vector")
    eigenvalues = reader.f64_array(k, "eigenvalues")
    _finite(np.sqrt(np.abs(eigenvalues)), path, "eigenvalues")  # sums of squares: bound their sum
    projection = reader.f64_array(d * k, "projection matrix").reshape(d, k)
    _finite(projection, path, "projection matrix")
    reader.finish()
    if not np.all(eigenvalues > 0.0):
        j = int(np.argmax(eigenvalues <= 0.0))
        raise DegenerateData(
            f"{path}: eigenvalue {j} is {eigenvalues[j]:g}; a stored component needs positive variance"
        )
    fractions = np.cumsum(eigenvalues) / eigenvalues.sum()
    return PcaModel(_frozen(mean), _frozen(projection), _frozen(eigenvalues), _frozen(fractions))


def write_dictionary(path: str | Path, dictionary: Dictionary) -> None:
    header = DICT_MAGIC + struct.pack(
        "<IIII", FORMAT_VERSION, dictionary.dim, dictionary.num_atoms, dictionary.num_classes
    )
    # Phi, the transpose of the atoms, is copied out a chunk of its rows at a time
    atoms, step = dictionary.atoms, max(1, _CHUNK_VALUES // dictionary.num_atoms)
    phi = (_f64(atoms[:, lo : lo + step].T) for lo in range(0, dictionary.dim, step))
    _write_parts(path, itertools.chain([header], phi, [_u32(dictionary.column_labels)]))


# ---------------------------------------------------------------------------
# score sets, ROC tables, pair lists


def write_scores_csv(path: str | Path, scoreset: ScoreSet) -> None:
    # 17 significant digits keep the float64 scores lossless across the round trip.
    ids = np.array([_csv_field(pid) for pid in scoreset.ids], dtype=object)
    columns = (scoreset.claim, scoreset.score, scoreset.is_genuine.view(np.int8))  # %d of an int, not a bool
    _write_rows(
        path, ",".join(SCORES_HEADER) + "\n", "%s,%d,%.17g,%d\n", len(scoreset.score),
        lambda lo, hi: [ids[scoreset.probe[lo:hi]].tolist(), *(c[lo:hi].tolist() for c in columns)],
    )


def write_roc_csv(path: str | Path, report: EvalReport) -> None:
    roc = report.roc

    def block(lo: int, hi: int) -> list:
        # a block's gmr holds at most (genuine count + 1) distinct values: format each once,
        # keyed by its bits so that -0.0 and 0.0 keep their own text
        bits = roc.gmr[lo:hi].view(np.int64)
        distinct = _sorted_unique(bits)
        texts = np.array(["%.17g" % value for value in distinct.view(np.float64).tolist()], dtype=object)
        return [roc.threshold[lo:hi].tolist(), roc.far[lo:hi].tolist(),
                texts[np.searchsorted(distinct, bits)].tolist()]

    _write_rows(path, "threshold,far,gmr\n", "%.17g,%.17g,%s\n", len(roc.threshold), block)


def read_pairs_csv(path: str | Path) -> list[tuple[str, int]]:
    return _read_csv(
        path, ["probe_id", "claimed_class"].__eq__, "probe_id,claimed_class",
        lambda r: (r[0], _class_index(r[1])), "probe_id,claimed_class with a class from 0",
    )


# ---------------------------------------------------------------------------
# reports


def _percent(x: float) -> str:
    return f"{100.0 * x:.2f}%"


def format_kv(pairs: Iterable[tuple[str, object]], prefix: str = "") -> str:
    """One `<prefix><key> = <value>` line per pair."""
    return "".join(f"{prefix}{key} = {value}\n" for key, value in pairs)


def format_panel(title: str, lines: Sequence[str], config_echo: Sequence[tuple[str, str]]) -> str:
    """A text report: the title over its rule, `lines`, then the config echo."""
    return "\n".join([title, "=" * len(title), "", *lines, "", "config", "------", ""]) + format_kv(config_echo)


def format_report_text(report: EvalReport) -> str:
    """Human-readable verification panel; rates rendered as percentages."""
    lines = [f"EER: {_percent(report.eer)}"]
    for g in report.gmr_at_far:
        note = "  (insufficient impostors)" if g.insufficient_impostors else ""
        lines.append(f"GMR at FAR={g.far_target:g}: {_percent(g.gmr)}{note}")
    return format_panel("verification report", lines, report.config_echo)


def format_report_kv(report: EvalReport) -> str:
    """Machine-readable key-value report; rates kept as full-precision fractions."""
    pairs = [("eer", f"{report.eer:.17g}")]
    for g in report.gmr_at_far:
        pairs.append((f"gmr_at_far_{g.far_target:g}", f"{g.gmr:.17g}"))
        pairs.append((f"gmr_at_far_{g.far_target:g}_insufficient_impostors", int(g.insufficient_impostors)))
    return format_kv(pairs) + format_kv(report.config_echo, "config.")
