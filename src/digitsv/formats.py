"""Bit-exact binary file formats tying the pipeline stages together.

Every artifact starts with a 4-byte magic and a little-endian u16 version,
so the first 6 bytes identify type and version unambiguously.  Readers
reject bad magic, unknown versions, truncation and trailing garbage with
byte-positioned errors, and validate payload sanity (finiteness, row
normalization) before handing data back.  A reader never holds a file's
bytes whole: it parses header fields as it reads them and reads each
numeric block straight into an array of its own, so loading a model needs
about the size of its arrays.  A DVFE block stays f32 (arithmetic widens it
a block at a time); a DVPO block is widened to f64.  Writers narrow to f32
only values f32 can hold: anything else is refused before a file is made.

Formats:
  DVFE  features     rows u32, cols u32, f32 row-major
  DVPO  posteriors   same layout; rows must sum to 1 within 1e-3
  DVST  statistics   (version 3) mixtures u32, dim u32, background id (u16
                     length + UTF-8, empty for none), one (N, F) f64
                     record per mixture, read and written as one block
  DVIV  i-vectors    count u32, rank u32, records of (id, flag u8, f64s); the
                     flag is written 0, and read (0 or 1) and ignored
  DVMD  models       kind string plus a tagged recursive payload

DVMD model kinds (``MODELS``), each field in write order:
  diag_gmm        DiagGmm        weights, means, variances
  hmm_set         HmmSet         weights, means, variances, self_loop
  pgmm            Pgmm           state_ids (the digit states), weights, means, variances
  mlp             MlpModel       weights, biases, input_mean, input_std, input_kind,
                                 class_priors
  tv              TvModel        matrix, background (means, variances, model_id)
  plda_backend    PldaBackend    lda, mean, between, within
  speaker_models  SpeakerModels  background_id, relevance, ids, means
"""

from __future__ import annotations

import math
import numbers
import os
import struct

import numpy as np

from .errors import CorruptData, FormatError, Truncated
from .features import FeatureKind, FeatureSequence
from .gmm import DiagGmm
from .hmm import DIGIT_STATES, HmmSet
from .ivector import PldaBackend, TvModel
from .map_speaker import SpeakerModels
from .neural_aligner import MlpModel
from .pgmm import Background, Pgmm, SuffStats

# each format's version; DVST 2 added the background id, and DVST 3 dropped the
# second-order statistics that DVST 1 and 2 records carry after F
VERSIONS = {b"DVFE": 1, b"DVPO": 1, b"DVST": 3, b"DVIV": 1, b"DVMD": 1}

_KIND_BY_COLS = {120: FeatureKind.FBANK120, 60: FeatureKind.MFCC60}


class _Reader:
    """Cursor over an open file, past its checked magic and version.

    Every read is checked against the file's size before anything is
    allocated, so a corrupt header cannot make the reader allocate more than
    the file holds; a read that comes up short anyway is a truncation.
    """

    def __init__(self, fh, magic: bytes):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.pos = 0
        got = self.take(4)
        if got != magic:
            raise FormatError(f"expected magic {magic!r}, found {got!r}")
        version = self.u16()
        if version != VERSIONS[magic]:
            raise FormatError(f"unsupported {magic.decode()} version {version}")

    def _need(self, n: int):
        if self.pos + n > self.size:
            raise Truncated(self.pos, f"needed {n} bytes at offset {self.pos}, "
                                      f"file has {self.size}")

    def _advance(self, n: int, got: int):
        if got != n:
            raise Truncated(self.pos, f"needed {n} bytes at offset {self.pos}, "
                                      f"file ended after {got}")
        self.pos += n

    def take(self, n: int) -> bytes:
        self._need(n)
        raw = self.fh.read(n)
        self._advance(n, len(raw))
        return raw

    def readinto(self, out: np.ndarray):
        """Fill the C-ordered array ``out`` with the next ``out.nbytes`` bytes."""
        self._need(out.nbytes)
        self._advance(out.nbytes, self.fh.readinto(out))

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def i64(self) -> int:
        return struct.unpack("<q", self.take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def array(self, dtype, shape: tuple) -> np.ndarray:
        """The next block as a new array of ``shape`` and ``dtype``; floats are finite."""
        dtype = np.dtype(dtype)
        start = self.pos
        self._need(math.prod(shape) * dtype.itemsize)  # before allocating
        block = np.empty(shape, dtype)
        self.readinto(block)
        if dtype.kind == "f":
            with np.errstate(invalid="ignore"):  # garbage bytes may be sNaN
                finite = np.isfinite(block).all()
            if not finite:
                raise CorruptData(start, "non-finite values in numeric block")
        return block

    def string(self) -> str:
        n = self.u16()
        start = self.pos
        raw = self.take(n)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptData(start, f"invalid UTF-8 string: {exc}") from None

    def done(self):
        if self.pos != self.size:
            raise CorruptData(self.pos, f"{self.size - self.pos} trailing bytes")


def _header(magic: bytes) -> bytes:
    return magic + struct.pack("<H", VERSIONS[magic])


def _create(path, mode="wb"):
    """``path`` opened as a new file.  A file or symlink already there is removed,
    not truncated or followed: ext4 flushes a truncated file's blocks on close."""
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    if os.path.islink(path) or os.path.isfile(path):  # a device such as /dev/null stays
        os.unlink(path)
    return open(path, mode)


def _check_counts(rd: _Reader, rows: int, cols: int, itemsize: int, what: str):
    remaining = rd.size - rd.pos
    need = rows * cols * itemsize
    if need > remaining:
        raise Truncated(rd.pos, f"{what} promises {need} data bytes, {remaining} left")


def _f32_block(path, matrix: np.ndarray) -> np.ndarray:
    """``matrix`` narrowed to little-endian f32, checked before any file is made."""
    with np.errstate(over="ignore"):  # an overflow is the error below, not a warning
        block = matrix.astype("<f4")
    if not np.isfinite(block).all():
        raise FormatError(f"{path}: values outside the float32 range cannot be written")
    return block


# --- DVFE and DVPO: f32 matrices ---------------------------------------------

def _write_f32_matrix(path, magic: bytes, matrix):
    """``matrix`` as rows u32, cols u32 and its f32 row-major block."""
    matrix = np.asarray(matrix)
    block = _f32_block(path, matrix)
    with _create(path) as fh:
        fh.write(_header(magic))
        fh.write(struct.pack("<II", *matrix.shape))
        fh.write(block.tobytes())


def _read_f32_matrix(path, magic: bytes, expect_cols: int | None = None):
    """(f32 matrix, offset of its block) of a ``magic`` file, checked for shape."""
    with open(path, "rb") as fh:
        rd = _Reader(fh, magic)
        rows, cols = rd.u32(), rd.u32()
        if rows < 1 or cols < 1:
            raise CorruptData(6, f"implausible shape {rows} x {cols}")
        if expect_cols is not None and cols != expect_cols:
            raise FormatError(f"expected {expect_cols} states, file has {cols}")
        _check_counts(rd, rows, cols, 4, magic.decode())
        start = rd.pos
        matrix = rd.array("<f4", (rows, cols))
        rd.done()
    return matrix, start


def write_dvfe(path, feats: FeatureSequence):
    _write_f32_matrix(path, b"DVFE", feats.frames)


def read_dvfe(path) -> FeatureSequence:
    frames, _ = _read_f32_matrix(path, b"DVFE")
    cols = frames.shape[1]
    if cols % 120 == 0 and (cols // 120) % 2 == 1:
        kind = FeatureKind.SPLICED if cols != 120 else FeatureKind.FBANK120
    else:
        kind = _KIND_BY_COLS.get(cols)
    if kind is None:
        raise CorruptData(6, f"no feature kind has {cols} dims")
    return FeatureSequence(frames, kind)


def write_dvpo(path, posteriors: np.ndarray):
    _write_f32_matrix(path, b"DVPO", posteriors)


def read_dvpo(path, expect_states: int | None = None) -> np.ndarray:
    """Read posteriors; rows within 1e-3 of summing to 1 are renormalized."""
    matrix, start = _read_f32_matrix(path, b"DVPO", expect_states)
    matrix = matrix.astype(np.float64)
    negative = matrix < 0
    if negative.any():
        raise CorruptData(start + 4 * int(np.argmax(negative)), "negative posterior entries")
    sums = matrix.sum(axis=1)
    bad = np.nonzero(np.abs(sums - 1.0) > 1e-3)[0]
    if bad.size:
        raise FormatError(
            f"row {bad[0]} sums to {sums[bad[0]]:.6f}, outside 1 +- 1e-3"
        )
    return matrix / sums[:, None]


# --- DVST: Baum-Welch statistics ------------------------------------------------

def write_dvst(path, stats):
    mixtures, dim = stats.f.shape
    background_id = (stats.background_id or "").encode("utf-8")
    records = np.empty((mixtures, dim + 1), dtype="<f8")  # one N, F record per mixture
    records[:, 0] = stats.n
    records[:, 1:] = stats.f
    with _create(path) as fh:
        fh.write(_header(b"DVST"))
        fh.write(struct.pack("<II", mixtures, dim))
        fh.write(struct.pack("<H", len(background_id)) + background_id)
        fh.write(records.tobytes())


def read_dvst(path):
    with open(path, "rb") as fh:
        rd = _Reader(fh, b"DVST")
        mixtures, dim = rd.u32(), rd.u32()
        if mixtures < 1 or dim < 1:
            raise CorruptData(6, f"implausible shape {mixtures} x {dim}")
        background_id = rd.string() or None
        _check_counts(rd, mixtures, dim + 1, 8, "DVST")
        start, width = rd.pos, dim + 1
        records = np.empty((mixtures, width), "<f8")
        rd.readinto(records)
        with np.errstate(invalid="ignore"):  # garbage bytes may be sNaN
            bad = ~np.isfinite(records[:, 1:])
        if bad.any():  # reported at the first bad F block, where a per-block read stops
            raise CorruptData(start + (int(np.argmax(bad)) // dim * width + 1) * 8,
                              "non-finite values in numeric block")
        rd.done()
    # one owned C-ordered array per part
    n, f = (np.array(records[:, cols], dtype=np.float64) for cols in (0, slice(1, None)))
    bad = ~(np.isfinite(n) & (n >= 0))
    if bad.any():  # reported at the first bad record's N
        raise CorruptData(start + int(np.argmax(bad)) * width * 8,
                          "invalid zeroth-order statistics")
    return SuffStats(n, f, background_id)


# --- DVIV: i-vector archives ------------------------------------------------------

def write_dviv(path, entries):
    """``entries`` is a list of (utt_id, i-vector), every i-vector of one rank."""
    if not entries:
        raise ValueError("refusing to write an empty i-vector archive")
    vectors = [np.asarray(vector, dtype="<f8") for _, vector in entries]
    rank = vectors[0].size
    if any(v.shape != (rank,) or not np.isfinite(v).all() for v in vectors):
        raise ValueError(f"every i-vector of an archive must be a finite 1-D array of rank {rank}")
    with _create(path) as fh:
        fh.write(_header(b"DVIV"))
        fh.write(struct.pack("<II", len(entries), rank))
        for (utt_id, _), vector in zip(entries, vectors):
            raw = utt_id.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)) + raw)
            fh.write(b"\x00")  # the flag byte, which no reader uses
            fh.write(vector.tobytes())


def read_dviv(path):
    """[(utt_id, i-vector)] of an archive; each record's flag must be 0 or 1."""
    with open(path, "rb") as fh:
        rd = _Reader(fh, b"DVIV")
        count, rank = rd.u32(), rd.u32()
        if count < 1 or rank < 1:
            raise CorruptData(6, f"implausible archive header {count} x {rank}")
        entries = []
        for _ in range(count):
            utt_id = rd.string()
            flag = rd.u8()
            if flag not in (0, 1):
                raise CorruptData(rd.pos - 1, f"invalid normalization flag {flag}")
            entries.append((utt_id, rd.array("<f8", (rank,))))
        rd.done()
    return entries


# --- DVMD: tagged model container ---------------------------------------------------

def _write_tagged(out: list, value):
    if isinstance(value, dict):
        out.append(b"D" + struct.pack("<I", len(value)))
        for key in value:  # insertion order keeps writes deterministic
            raw = key.encode("utf-8")
            out.append(struct.pack("<H", len(raw)) + raw)
            _write_tagged(out, value[key])
    elif isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            arr, code = value.astype("<f8", copy=False), b"d"
        elif value.dtype.kind in "iu":
            arr, code = value.astype("<i8", copy=False), b"l"
        else:
            raise TypeError(f"cannot serialize array dtype {value.dtype}")
        out.append(b"A" + code + struct.pack("<B", arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        # the array's own C-ordered memory, not a bytes copy of it
        out.append(memoryview(np.ascontiguousarray(arr).reshape(-1)).cast("B"))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(b"S" + struct.pack("<I", len(raw)) + raw)
    elif isinstance(value, bool):
        out.append(b"B" + (b"\x01" if value else b"\x00"))
    elif isinstance(value, (int, np.integer)):
        out.append(b"I" + struct.pack("<q", int(value)))
    elif isinstance(value, float):
        out.append(b"F" + struct.pack("<d", value))
    elif value is None:
        out.append(b"N")
    elif isinstance(value, (list, tuple)):
        out.append(b"L" + struct.pack("<I", len(value)))
        for item in value:
            _write_tagged(out, item)
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def _read_tagged(rd: _Reader):
    start = rd.pos
    code = rd.take(1)
    if code == b"D":
        count = rd.u32()
        if count > 1_000_000:
            raise CorruptData(start, f"implausible dict size {count}")
        return {rd.string(): _read_tagged(rd) for _ in range(count)}
    if code == b"A":
        dtype_code = rd.take(1)
        if dtype_code not in (b"d", b"l"):
            raise CorruptData(start, f"unknown array dtype {dtype_code!r}")
        ndim = rd.u8()
        if ndim > 8:
            raise CorruptData(start, f"implausible array rank {ndim}")
        shape = tuple(rd.u32() for _ in range(ndim))
        count = math.prod(shape)  # plain int math cannot overflow
        if count > 200_000_000 or any(dim > 200_000_000 for dim in shape):
            raise CorruptData(start, f"implausible array shape {shape}")
        return rd.array("<f8" if dtype_code == b"d" else "<i8", shape)
    if code == b"S":
        n = rd.u32()
        raw = rd.take(n)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptData(start, f"invalid UTF-8: {exc}") from None
    if code == b"B":
        return rd.u8() != 0
    if code == b"I":
        return rd.i64()
    if code == b"F":
        val = rd.f64()
        if not np.isfinite(val):
            raise CorruptData(start, "non-finite scalar")
        return val
    if code == b"N":
        return None
    if code == b"L":
        count = rd.u32()
        if count > 1_000_000:
            raise CorruptData(start, f"implausible list size {count}")
        return [_read_tagged(rd) for _ in range(count)]
    raise CorruptData(start, f"unknown tag {code!r}")


def write_dvmd(path, kind: str, payload: dict):
    out = [_header(b"DVMD")]
    raw = kind.encode("utf-8")
    out.append(struct.pack("<H", len(raw)) + raw)
    _write_tagged(out, payload)
    with _create(path) as fh:
        fh.writelines(out)


def read_dvmd(path, expect_kind: str | None = None):
    with open(path, "rb") as fh:
        rd = _Reader(fh, b"DVMD")
        kind = rd.string()
        payload = _read_tagged(rd)
        rd.done()
    if not isinstance(payload, dict):
        raise CorruptData(6, "model payload must be a dict")
    if expect_kind is not None and kind != expect_kind:
        raise FormatError(f"expected a {expect_kind!r} container, found {kind!r}")
    return kind, payload


# --- DVMD model kinds ------------------------------------------------------

# kind -> (class, {field: payload type}).  The field order is the write order,
# and fields are passed back to the class by name; a (class, fields) pair is a
# nested model, written as a dict.
MODELS = {
    "diag_gmm": (DiagGmm, {"weights": np.ndarray, "means": np.ndarray,
                           "variances": np.ndarray}),
    "hmm_set": (HmmSet, {"weights": np.ndarray, "means": np.ndarray,
                         "variances": np.ndarray, "self_loop": np.ndarray}),
    "pgmm": (Pgmm, {"state_ids": np.ndarray, "weights": np.ndarray, "means": np.ndarray,
                    "variances": np.ndarray}),
    "mlp": (MlpModel, {"weights": list, "biases": list, "input_mean": np.ndarray,
                       "input_std": np.ndarray, "input_kind": str,
                       "class_priors": np.ndarray}),
    "tv": (TvModel, {"matrix": np.ndarray, "background": (Background, {
        "means": np.ndarray, "variances": np.ndarray, "model_id": str})}),
    "plda_backend": (PldaBackend, {"lda": np.ndarray, "mean": np.ndarray,
                                   "between": np.ndarray, "within": np.ndarray}),
    "speaker_models": (SpeakerModels, {"background_id": str, "relevance": numbers.Real,
                                       "ids": list, "means": np.ndarray}),
}
_KINDS = {cls: kind for kind, (cls, _) in MODELS.items()}


def _digit_states(state_ids):
    if not np.array_equal(state_ids, DIGIT_STATES):
        raise CorruptData(6, "pgmm state_ids must be the digit states 0..29 in order")


# fields not written as the model attribute of their name holds them
_WRITE = {
    "pgmm.state_ids": lambda pgmm: np.asarray(DIGIT_STATES, dtype=np.int64),
    "mlp.input_kind": lambda mlp: mlp.input_kind.value,
    "speaker_models.relevance": lambda speakers: float(speakers.relevance),
}
# fields not passed to the class as read; a hook returning None passes nothing
_READ = {"pgmm.state_ids": _digit_states, "mlp.input_kind": FeatureKind}


def _payload(kind: str, model, fields: dict) -> dict:
    out = {}
    for key, spec in fields.items():
        write = _WRITE.get(f"{kind}.{key}")
        value = write(model) if write else getattr(model, key)
        out[key] = _payload(kind, value, spec[1]) if isinstance(spec, tuple) else value
    return out


def _build(kind: str, cls, fields: dict, payload: dict):
    """``cls`` from ``payload``; every field is there, and of the type ``fields`` gives.

    Fields the payload holds beyond ``fields`` (a TV background's ``state_ids``
    and ``n_components``, which older files carry) are ignored.
    """
    missing = [key for key in fields if key not in payload]
    if missing:
        raise CorruptData(6, f"model payload missing fields {missing}")
    for key, spec in fields.items():
        if not isinstance(payload[key], dict if isinstance(spec, tuple) else spec):
            raise CorruptData(6, f"model payload field {key!r} is a {type(payload[key]).__name__}")
    args = {}
    for key, spec in fields.items():
        read = _READ.get(f"{kind}.{key}")
        value = _build(kind, *spec, payload[key]) if isinstance(spec, tuple) else payload[key]
        value = read(value) if read else value
        if value is not None:
            args[key] = value
    return cls(**args)


def save_model(path, model):
    """Write ``model`` as the DVMD kind of its exact class."""
    kind = _KINDS[type(model)]
    write_dvmd(path, kind, _payload(kind, model, MODELS[kind][1]))


def load_model(path, kind: str):
    """The ``kind`` model of a DVMD file.  A payload that holds a field of the wrong
    type, or that the model's own checks reject, is corrupt data."""
    cls, fields = MODELS[kind]
    _, payload = read_dvmd(path, kind)
    try:
        return _build(kind, cls, fields, payload)
    except (ValueError, TypeError, KeyError) as exc:
        raise CorruptData(6, f"invalid {kind} payload: {exc}") from None
