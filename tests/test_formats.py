import os
import struct
import tracemalloc
import types
import warnings
import zlib

import numpy as np
import pytest

from conftest import ROSTER_DEFECTS, make_hmm_set, roster_payload, state_gmm
from digitsv import formats
from digitsv.errors import CorruptData, FormatError, Truncated
from digitsv.features import FeatureKind, FeatureSequence
from digitsv.gmm import DiagGmm
from digitsv.hmm import DIGIT_STATES
from digitsv.ivector import PldaBackend, TvModel, extract_ivector
from digitsv.map_speaker import SpeakerModels
from digitsv.neural_aligner import MlpModel
from digitsv.pgmm import Background, Pgmm, SuffStats


def f32(arr):
    return np.asarray(arr, dtype=np.float32).astype(np.float64)


class TestDvfe:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = FeatureSequence(f32(rng.standard_normal((30, 60))), FeatureKind.MFCC60)
        path = tmp_path / "x.dvfe"
        formats.write_dvfe(path, feats)
        back = formats.read_dvfe(path)
        np.testing.assert_array_equal(back.frames, feats.frames)
        assert back.kind == FeatureKind.MFCC60

    def test_kind_inference(self, tmp_path):
        cases = [(120, FeatureKind.FBANK120), (60, FeatureKind.MFCC60),
                 (1320, FeatureKind.SPLICED)]
        for cols, kind in cases:
            path = tmp_path / f"k{cols}.dvfe"
            formats.write_dvfe(path, FeatureSequence(np.zeros((2, cols)) + 0.5, kind))
            assert formats.read_dvfe(path).kind == kind

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dvfe"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(FormatError, match="expected magic"):
            formats.read_dvfe(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v9.dvfe"
        path.write_bytes(b"DVFE" + (9).to_bytes(2, "little") + bytes(16))
        with pytest.raises(FormatError, match="unsupported DVFE version"):
            formats.read_dvfe(path)

    def test_truncation_has_offset(self, tmp_path):
        rng = np.random.default_rng(1)
        feats = FeatureSequence(f32(rng.standard_normal((10, 60))), FeatureKind.MFCC60)
        path = tmp_path / "t.dvfe"
        formats.write_dvfe(path, feats)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(Truncated) as err:
            formats.read_dvfe(path)
        assert isinstance(err.value.offset, int)

    def test_reads_the_f32_block_it_stores(self, tmp_path):
        rng = np.random.default_rng(3)
        frames = rng.standard_normal((7, 60)).astype(np.float32)
        path = tmp_path / "s.dvfe"
        formats.write_dvfe(path, FeatureSequence(frames, FeatureKind.MFCC60))
        back = formats.read_dvfe(path).frames
        assert back.dtype == np.float32 and back.flags.c_contiguous and back.flags.writeable
        np.testing.assert_array_equal(back, frames)

    def test_trailing_garbage_rejected(self, tmp_path):
        feats = FeatureSequence(np.zeros((2, 60)) + 1.0, FeatureKind.MFCC60)
        path = tmp_path / "g.dvfe"
        formats.write_dvfe(path, feats)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CorruptData):
            formats.read_dvfe(path)


class TestDvpo:
    def test_round_trip_and_renormalization(self, tmp_path):
        rng = np.random.default_rng(2)
        post = rng.random((6, 33))
        post /= post.sum(axis=1, keepdims=True)
        path = tmp_path / "p.dvpo"
        formats.write_dvpo(path, post)
        back = formats.read_dvpo(path, expect_states=33)
        np.testing.assert_allclose(back.sum(axis=1), 1.0, atol=1e-12)

    def test_negative_entry_is_reported_where_it_sits(self, tmp_path):
        post = np.full((3, 4), 0.25)
        post[1, 2], post[1, 3], post[2, 0] = -0.25, 0.75, -1.0
        path = tmp_path / "neg.dvpo"
        formats.write_dvpo(path, post)
        with pytest.raises(CorruptData, match="negative posterior entries") as err:
            formats.read_dvpo(path)
        assert err.value.offset == 14 + 4 * (1 * 4 + 2)

    def test_row_not_normalized(self, tmp_path):
        post = np.full((3, 33), 0.9 / 33)
        path = tmp_path / "bad.dvpo"
        formats.write_dvpo(path, post)
        with pytest.raises(FormatError, match=r"outside 1 \+- 1e-3"):
            formats.read_dvpo(path)


class TestNarrowToF32:
    """DVFE and DVPO writers refuse a value f32 cannot hold before they make the file."""

    @pytest.mark.parametrize("kind", ["dvfe", "dvpo"])
    @pytest.mark.parametrize("value", [1e39, -1e39])
    def test_values_beyond_f32_are_refused(self, tmp_path, kind, value):
        matrix = np.full((3, 60), 1.0 / 60)
        matrix[1, 2] = value
        path = tmp_path / f"big.{kind}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused, not warned about
            with pytest.raises(FormatError, match="float32") as err:
                if kind == "dvfe":
                    formats.write_dvfe(path, FeatureSequence(matrix, FeatureKind.MFCC60))
                else:
                    formats.write_dvpo(path, matrix)
        assert str(path) in str(err.value)
        assert not path.exists()

    def test_largest_f32_is_written(self, tmp_path):
        frames = np.full((2, 60), float(np.finfo(np.float32).max))
        frames[1] *= -1.0
        path = tmp_path / "edge.dvfe"
        formats.write_dvfe(path, FeatureSequence(frames, FeatureKind.MFCC60))
        np.testing.assert_array_equal(formats.read_dvfe(path).frames, frames)


class TestDvst:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        stats = SuffStats(rng.random(5), rng.standard_normal((5, 4)))
        path = tmp_path / "s.dvst"
        formats.write_dvst(path, stats)
        back = formats.read_dvst(path)
        np.testing.assert_array_equal(back.n, stats.n)
        np.testing.assert_array_equal(back.f, stats.f)
        assert back.background_id is None

    @pytest.mark.parametrize("mixtures,dim,background_id",
                             [(1, 1, None), (4, 3, "dnn-hmm"), (480, 60, "dnn-hmm")])
    def test_file_size_is_header_id_and_n_f_records(self, tmp_path, mixtures, dim,
                                                    background_id):
        stats = SuffStats(np.ones(mixtures), np.zeros((mixtures, dim)), background_id)
        path = tmp_path / "s.dvst"
        formats.write_dvst(path, stats)
        id_bytes = len((background_id or "").encode("utf-8"))
        assert path.stat().st_size == 16 + id_bytes + mixtures * (dim + 1) * 8

    def test_version_1_files_rejected(self, tmp_path):
        # version 1 had no background id; its bytes must not be read as one
        path = tmp_path / "s.dvst"
        formats.write_dvst(path, SuffStats(np.ones(2), np.zeros((2, 3))))
        data = path.read_bytes()
        path.write_bytes(data[:4] + (1).to_bytes(2, "little") + data[6:14] + data[16:])
        with pytest.raises(FormatError, match="unsupported DVST version"):
            formats.read_dvst(path)

    def test_version_2_files_rejected(self, tmp_path):
        # version 2 records carried second-order statistics after F
        path = tmp_path / "s.dvst"
        _write_dvst_v2(path, SuffStats(np.ones(2), np.zeros((2, 3)), "dnn-hmm"))
        with pytest.raises(FormatError, match="unsupported DVST version 2"):
            formats.read_dvst(path)

    def test_background_id_round_trip(self, tmp_path):
        stats = SuffStats(np.ones(2), np.zeros((2, 3)), "dnn-hmm")
        path = tmp_path / "s.dvst"
        formats.write_dvst(path, stats)
        assert formats.read_dvst(path).background_id == "dnn-hmm"

    @staticmethod
    def _with_background_id(tmp_path, background_id):
        stats = SuffStats(np.ones(2), np.zeros((2, 3)), background_id)
        path = tmp_path / "s.dvst"
        formats.write_dvst(path, stats)
        return path, path.read_bytes()

    def test_background_id_cut_short(self, tmp_path):
        # the file ends inside the id: a positioned truncation, as in every reader
        path, data = self._with_background_id(tmp_path, "dnn-hmm")
        path.write_bytes(data[:14 + 3])  # header, shape and length, then 3 of 7 bytes
        with pytest.raises(Truncated) as err:
            formats.read_dvst(path)
        assert err.value.offset == 16

    def test_background_id_longer_than_the_file(self, tmp_path):
        path, data = self._with_background_id(tmp_path, "ubm")
        path.write_bytes(data[:14] + (60000).to_bytes(2, "little") + data[16:])
        with pytest.raises(Truncated):
            formats.read_dvst(path)

    def test_background_id_bad_utf8(self, tmp_path):
        path, data = self._with_background_id(tmp_path, "ubm")
        path.write_bytes(data[:16] + b"\xff" + data[17:])
        with pytest.raises(CorruptData) as err:
            formats.read_dvst(path)
        assert err.value.offset == 16


def _write_dvst_v2(path, stats):
    """A DVST version 2 file: (N, F, S) records, S all zero."""
    mixtures, dim = stats.f.shape
    background_id = (stats.background_id or "").encode("utf-8")
    records = np.zeros((mixtures, 2 * dim + 1), dtype="<f8")
    records[:, 0] = stats.n
    records[:, 1:dim + 1] = stats.f
    with open(path, "wb") as fh:
        fh.write(b"DVST" + struct.pack("<HII", 2, mixtures, dim))
        fh.write(struct.pack("<H", len(background_id)) + background_id)
        fh.write(records.tobytes())


def _write_dvst_per_mixture(path, stats):
    """The DVST writer before it wrote one block: two writes per mixture."""
    mixtures, dim = stats.f.shape
    background_id = (stats.background_id or "").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(formats._header(b"DVST"))
        fh.write(struct.pack("<II", mixtures, dim))
        fh.write(struct.pack("<H", len(background_id)) + background_id)
        for m in range(mixtures):
            fh.write(struct.pack("<d", stats.n[m]))
            fh.write(stats.f[m].astype("<f8").tobytes())


# --- the bytes-backed readers that the file reader replaced, kept as its oracle ---

class _BytesReader:
    """Byte cursor with positioned truncation errors over a whole file's bytes."""

    def __init__(self, data: bytes):
        self.data = memoryview(data)
        self.pos = 0

    def _span(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise Truncated(self.pos, f"needed {n} bytes at offset {self.pos}, "
                                      f"file has {len(self.data)}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def take(self, n: int) -> bytes:
        return bytes(self._span(n))

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

    def array(self, dtype, count):
        start = self.pos
        view = np.frombuffer(self._span(np.dtype(dtype).itemsize * count), dtype=dtype)
        if np.dtype(dtype).kind != "f":
            return view.copy()
        with np.errstate(invalid="ignore"):  # garbage bytes may be sNaN
            arr = view.astype(np.float64)
        if not np.all(np.isfinite(arr)):
            raise CorruptData(start, "non-finite values in numeric block")
        return arr

    def string(self) -> str:
        n = self.u16()
        start = self.pos
        raw = self.take(n)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptData(start, f"invalid UTF-8 string: {exc}") from None

    def done(self):
        if self.pos != len(self.data):
            raise CorruptData(self.pos, f"{len(self.data) - self.pos} trailing bytes")

    def check_counts(self, rows: int, cols: int, itemsize: int, what: str):
        remaining = len(self.data) - self.pos
        need = rows * cols * itemsize
        if need > remaining:
            raise Truncated(self.pos, f"{what} promises {need} data bytes, {remaining} left")


def _bytes_header(path, magic: bytes) -> _BytesReader:
    with open(path, "rb") as fh:
        rd = _BytesReader(fh.read())
    got = rd.take(4)
    if got != magic:
        raise FormatError(f"expected magic {magic!r}, found {got!r}")
    version = rd.u16()
    if version != formats.VERSIONS[magic]:
        raise FormatError(f"unsupported {magic.decode()} version {version}")
    return rd


def _bytes_read_dvfe(path):
    rd = _bytes_header(path, b"DVFE")
    rows, cols = rd.u32(), rd.u32()
    if rows < 1 or cols < 1:
        raise CorruptData(6, f"implausible shape {rows} x {cols}")
    rd.check_counts(rows, cols, 4, "DVFE")
    # the reader keeps the block it reads: f32, which the widened copy holds exactly
    frames = rd.array("<f4", rows * cols).reshape(rows, cols).astype("<f4")
    rd.done()
    if cols % 120 == 0 and (cols // 120) % 2 == 1:
        kind = FeatureKind.SPLICED if cols != 120 else FeatureKind.FBANK120
    else:
        kind = {120: FeatureKind.FBANK120, 60: FeatureKind.MFCC60}.get(cols)
    if kind is None:
        raise CorruptData(6, f"no feature kind has {cols} dims")
    return FeatureSequence(frames, kind)


def _bytes_read_dvpo(path):
    rd = _bytes_header(path, b"DVPO")
    rows, cols = rd.u32(), rd.u32()
    if rows < 1 or cols < 1:
        raise CorruptData(6, f"implausible shape {rows} x {cols}")
    rd.check_counts(rows, cols, 4, "DVPO")
    matrix = rd.array("<f4", rows * cols).reshape(rows, cols)
    rd.done()
    negative = np.flatnonzero(matrix < 0)
    if negative.size:   # reported at the first negative entry
        raise CorruptData(14 + 4 * int(negative[0]), "negative posterior entries")
    sums = matrix.sum(axis=1)
    bad = np.nonzero(np.abs(sums - 1.0) > 1e-3)[0]
    if bad.size:
        raise FormatError(f"row {bad[0]} sums to {sums[bad[0]]:.6f}, outside 1 +- 1e-3")
    return matrix / sums[:, None]


def _read_dvst_per_mixture(path):
    """The DVST reader before it read one block: N and F of each mixture in turn."""
    rd = _bytes_header(path, b"DVST")
    mixtures, dim = rd.u32(), rd.u32()
    if mixtures < 1 or dim < 1:
        raise CorruptData(6, f"implausible shape {mixtures} x {dim}")
    background_id = rd.string() or None
    rd.check_counts(mixtures, dim + 1, 8, "DVST")
    n = np.empty(mixtures)
    f = np.empty((mixtures, dim))
    n_at = []
    for m in range(mixtures):
        n_at.append(rd.pos)
        n[m] = rd.f64()
        f[m] = rd.array("<f8", dim)
    rd.done()
    for m in range(mixtures):
        if not np.isfinite(n[m]) or n[m] < 0:   # reported at that record's N
            raise CorruptData(n_at[m], "invalid zeroth-order statistics")
    return SuffStats(n, f, background_id)


def _bytes_read_dviv(path):
    rd = _bytes_header(path, b"DVIV")
    count, rank = rd.u32(), rd.u32()
    if count < 1 or rank < 1:
        raise CorruptData(6, f"implausible archive header {count} x {rank}")
    entries = []
    for _ in range(count):
        utt_id = rd.string()
        flag = rd.u8()
        if flag not in (0, 1):
            raise CorruptData(rd.pos - 1, f"invalid normalization flag {flag}")
        entries.append((utt_id, rd.array("<f8", rank)))
    rd.done()
    return entries


def _bytes_read_tagged(rd: _BytesReader):
    start = rd.pos
    code = rd.take(1)
    if code == b"D":
        count = rd.u32()
        if count > 1_000_000:
            raise CorruptData(start, f"implausible dict size {count}")
        return {rd.string(): _bytes_read_tagged(rd) for _ in range(count)}
    if code == b"A":
        dtype_code = rd.take(1)
        if dtype_code not in (b"d", b"l"):
            raise CorruptData(start, f"unknown array dtype {dtype_code!r}")
        ndim = rd.u8()
        if ndim > 8:
            raise CorruptData(start, f"implausible array rank {ndim}")
        shape = tuple(rd.u32() for _ in range(ndim))
        count = 1
        for dim in shape:
            count *= dim
        if count > 200_000_000 or any(dim > 200_000_000 for dim in shape):
            raise CorruptData(start, f"implausible array shape {shape}")
        dtype = "<f8" if dtype_code == b"d" else "<i8"
        return rd.array(dtype, count).reshape(shape)
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
        return [_bytes_read_tagged(rd) for _ in range(count)]
    raise CorruptData(start, f"unknown tag {code!r}")


def _bytes_read_dvmd(path):
    rd = _bytes_header(path, b"DVMD")
    kind = rd.string()
    payload = _bytes_read_tagged(rd)
    rd.done()
    if not isinstance(payload, dict):
        raise CorruptData(6, "model payload must be a dict")
    return kind, payload


BYTES_READERS = {
    "dvfe": _bytes_read_dvfe,
    "dvpo": _bytes_read_dvpo,
    "dvst": _read_dvst_per_mixture,
    "dviv": _bytes_read_dviv,
    "dvmd": _bytes_read_dvmd,
}


def _plain(value):
    """A reader's result as nested tuples that are equal only when bit-equal."""
    if isinstance(value, np.ndarray):
        return "array", value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, FeatureSequence):
        return "features", _plain(value.frames), value.kind
    if isinstance(value, SuffStats):
        return "stats", _plain((value.n, value.f)), value.background_id
    if isinstance(value, dict):
        return "dict", tuple((key, _plain(item)) for key, item in value.items())
    if isinstance(value, (list, tuple)):
        return type(value).__name__, tuple(_plain(item) for item in value)
    if isinstance(value, float):
        return "float", value.hex()
    return type(value).__name__, value


def _outcome(reader, path):
    """What a reader makes of a file: its result, or its error's class, offset and text."""
    try:
        result = reader(path)
    except FormatError as exc:
        return type(exc), getattr(exc, "offset", None), str(exc)
    return _plain(result)


class TestDvstOracle:
    """The one-block DVST reader and writer against the per-mixture ones they replace."""

    @staticmethod
    def _stats(mixtures, dim, seed, background_id=None):
        rng = np.random.default_rng(seed)
        return SuffStats(rng.random(mixtures) * 10, rng.standard_normal((mixtures, dim)),
                         background_id)

    @pytest.mark.parametrize("mixtures,dim,background_id",
                             [(1, 1, None), (4, 3, "dnn-hmm"), (33, 60, "ubm"), (7, 2, "")])
    def test_writer_bytes_match_per_mixture_writer(self, tmp_path, mixtures, dim,
                                                   background_id):
        stats = self._stats(mixtures, dim, mixtures * dim, background_id)
        stats.f[0, 0] = -0.0   # the sign of zero is written as is
        block, oracle = tmp_path / "block.dvst", tmp_path / "oracle.dvst"
        formats.write_dvst(block, stats)
        _write_dvst_per_mixture(oracle, stats)
        assert block.read_bytes() == oracle.read_bytes()

    def test_parts_are_owned_c_ordered_arrays(self, tmp_path):
        path = tmp_path / "s.dvst"
        formats.write_dvst(path, self._stats(5, 3, 1))
        st = formats.read_dvst(path)
        for part in (st.n, st.f):
            assert part.flags.c_contiguous and part.flags.writeable
            assert _root_base(part) is None

    def test_fuzz_corpus_outcomes_match(self, tmp_path):
        files = _valid_files(tmp_path)
        target = tmp_path / "mangled.dvst"
        errors = 0
        for data in _manglings(files["dvst"].read_bytes(), "dvst"):
            target.write_bytes(data)
            want = _outcome(_read_dvst_per_mixture, target)
            assert _outcome(formats.read_dvst, target) == want
            errors += isinstance(want[0], type)
        assert errors > 100   # the corpus exercises the error paths

    def test_injected_non_finite_outcomes_match(self, tmp_path):
        # the byte flips above almost never make a non-finite value: inject them
        rng = np.random.default_rng(17)
        path = tmp_path / "inject.dvst"
        seen = set()
        for trial in range(300):
            mixtures, dim = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            stats = self._stats(mixtures, dim, trial)
            for _ in range(int(rng.integers(1, 4))):
                part = (stats.n[:, None], stats.f)[int(rng.integers(0, 2))]
                part[int(rng.integers(0, mixtures)), int(rng.integers(0, part.shape[1]))] = \
                    rng.choice([np.nan, np.inf, -np.inf])
            _write_dvst_per_mixture(path, stats)
            if rng.random() < 0.3:
                path.write_bytes(path.read_bytes() + bytes(int(rng.integers(1, 9))))
            want = _outcome(_read_dvst_per_mixture, path)
            assert _outcome(formats.read_dvst, path) == want
            seen.add(want[2].split(" ", 1)[1] if want[2][0].isdigit() else want[2])
        # every error path of the record block is taken
        assert seen == {"non-finite values in numeric block", "trailing bytes",
                        "invalid zeroth-order statistics"}, seen

    @pytest.mark.parametrize("edits,tail", [
        ([("f", 2, 1, np.inf)], b""),
        ([("f", 3, 2, np.nan)], b""),
        ([("f", 1, 2, -np.inf), ("f", 2, 0, np.nan)], b""),
        ([("n", 2, 0, np.nan)], b""),
        ([("n", 0, 0, -1.0)], b""),
        ([("n", 0, 0, np.nan), ("f", 3, 0, np.inf)], b""),
        ([], b"\x00\x01\x02"),
        ([("n", 1, 0, np.nan)], b"\x00\x01\x02"),
        ([("f", 1, 1, np.nan)], b"\x00\x01\x02"),
    ], ids=["inf-f-in-mixture-2", "nan-f-last-entry", "inf-f-before-nan-f", "nan-n-finite-fs",
            "negative-n", "nan-n-then-inf-f", "trailing-bytes", "nan-n-and-trailing-bytes",
            "nan-f-and-trailing-bytes"])
    def test_hand_cases_match(self, tmp_path, edits, tail):
        stats = self._stats(4, 3, 9, "dnn")
        parts = {"n": stats.n[:, None], "f": stats.f}
        for part, m, col, value in edits:
            parts[part][m, col] = value
        path = tmp_path / "hand.dvst"
        _write_dvst_per_mixture(path, stats)
        path.write_bytes(path.read_bytes() + tail)
        want = _outcome(_read_dvst_per_mixture, path)
        assert want[0] is CorruptData, want
        assert _outcome(formats.read_dvst, path) == want

    @pytest.mark.parametrize("m,value", [(0, -1.0), (2, np.nan), (3, np.inf)])
    def test_invalid_n_is_reported_at_its_record(self, tmp_path, m, value):
        stats = self._stats(4, 3, 9, "dnn")
        stats.n[m] = value
        path = tmp_path / "n.dvst"
        formats.write_dvst(path, stats)
        with pytest.raises(CorruptData, match="invalid zeroth-order statistics") as err:
            formats.read_dvst(path)
        # 19 header bytes (the id is "dnn"), then 4 f64s per record
        assert err.value.offset == 19 + m * 4 * 8
        assert path.read_bytes()[err.value.offset:err.value.offset + 8] == \
            struct.pack("<d", value)


def _hand_dviv(entries, flag):
    """A DVIV archive of (utt_id, vector) entries, every record with ``flag``."""
    out = b"DVIV" + struct.pack("<HII", 1, len(entries), len(entries[0][1]))
    for utt_id, vector in entries:
        raw = utt_id.encode("utf-8")
        out += struct.pack("<H", len(raw)) + raw + bytes([flag]) + vector.astype("<f8").tobytes()
    return out


class TestDviv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        entries = [(f"utt{k}", rng.standard_normal(7)) for k in range(5)]
        path = tmp_path / "v.dviv"
        formats.write_dviv(path, entries)
        # the same bytes as a hand-written archive whose flags are 0
        assert path.read_bytes() == _hand_dviv(entries, 0)
        back = formats.read_dviv(path)
        assert [utt for utt, _ in back] == [utt for utt, _ in entries]
        for (_, a), (_, b) in zip(back, entries):
            np.testing.assert_array_equal(a, b)

    def test_flag_one_reads_back_as_its_vectors(self, tmp_path):
        rng = np.random.default_rng(6)
        entries = [(f"utt{k}", rng.standard_normal(3)) for k in range(4)]
        path = tmp_path / "v.dviv"
        path.write_bytes(_hand_dviv(entries, 1))
        back = formats.read_dviv(path)
        assert [utt for utt, _ in back] == [utt for utt, _ in entries]
        for (_, a), (_, b) in zip(back, entries):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("vectors", [[np.ones(3), np.ones(2)], [np.ones((1, 3))],
                                         [np.array([1.0, np.inf])]],
                             ids=["ranks differ", "not 1-D", "not finite"])
    def test_vectors_an_archive_cannot_hold(self, tmp_path, vectors):
        path = tmp_path / "v.dviv"
        with pytest.raises(ValueError, match="i-vector"):
            formats.write_dviv(path, [(f"u{k}", v) for k, v in enumerate(vectors)])
        assert not path.exists()


class TestDvmdModels:
    def test_diag_gmm_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        gmm = DiagGmm(np.array([0.25, 0.75]), rng.standard_normal((2, 3)),
                      0.5 + rng.random((2, 3)))
        path = tmp_path / "g.dvmd"
        formats.save_model(path, gmm)
        back = formats.load_model(path, "diag_gmm")
        np.testing.assert_array_equal(back.weights, gmm.weights)
        np.testing.assert_array_equal(back.means, gmm.means)
        np.testing.assert_array_equal(back.variances, gmm.variances)

    def test_hmm_set_round_trip(self, tmp_path):
        hmms = make_hmm_set(n_components=2)
        path = tmp_path / "h.dvmd"
        formats.save_model(path, hmms)
        back = formats.load_model(path, "hmm_set")
        np.testing.assert_array_equal(back.self_loop, hmms.self_loop)
        for s in range(33):
            np.testing.assert_array_equal(state_gmm(back, s).means, state_gmm(hmms, s).means)

    def test_wrong_kind_rejected(self, tmp_path):
        gmm = DiagGmm([1.0], [[0.0]], [[1.0]])
        path = tmp_path / "g.dvmd"
        formats.save_model(path, gmm)
        with pytest.raises(FormatError, match="expected a 'hmm_set' container"):
            formats.load_model(path, "hmm_set")

    def test_pgmm_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        pgmm = Pgmm(np.ones((30, 1)), rng.standard_normal((30, 1, 2)), np.ones((30, 1, 2)))
        path = tmp_path / "p.dvmd"
        formats.save_model(path, pgmm)
        back = formats.load_model(path, "pgmm")
        _, payload = formats.read_dvmd(path, "pgmm")
        assert tuple(payload["state_ids"]) == DIGIT_STATES
        np.testing.assert_array_equal(state_gmm(back, 7).means, state_gmm(pgmm, 7).means)

    def test_tv_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        bg = Background(rng.standard_normal((3, 2)), 1 + rng.random((3, 2)), "bg")
        tv = TvModel(rng.standard_normal((6, 4)), bg)
        path = tmp_path / "tv.dvmd"
        formats.save_model(path, tv)
        back = formats.load_model(path, "tv")
        np.testing.assert_array_equal(back.matrix, tv.matrix)
        assert back.background.model_id == "bg"

    @pytest.mark.parametrize("state_ids", [None, np.arange(3)], ids=["ubm", "states"])
    def test_tv_of_the_older_layout(self, tmp_path, state_ids):
        # a TV file whose background still carries state_ids and n_components
        # loads, and extracts the same i-vector as the file written today
        rng = np.random.default_rng(9)
        bg = Background(rng.standard_normal((3, 2)), 1 + rng.random((3, 2)), "bg")
        tv = TvModel(rng.standard_normal((6, 4)), bg)
        new, old = tmp_path / "new.dvmd", tmp_path / "old.dvmd"
        formats.save_model(new, tv)
        formats.write_dvmd(old, "tv", {"matrix": tv.matrix, "background": {
            "means": bg.means, "variances": bg.variances, "state_ids": state_ids,
            "n_components": 1 if state_ids is not None else 3, "model_id": "bg"}})
        stats = SuffStats(1 + rng.random(3), rng.standard_normal((3, 2)), "bg")
        want = extract_ivector(stats, formats.load_model(new, "tv"))
        got = extract_ivector(stats, formats.load_model(old, "tv"))
        np.testing.assert_array_equal(got, want)

    def test_backend_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        backend = PldaBackend(rng.standard_normal((5, 3)), rng.standard_normal(3),
                              np.eye(3), np.eye(3) * 2)
        path = tmp_path / "b.dvmd"
        formats.save_model(path, backend)
        back = formats.load_model(path, "plda_backend")
        np.testing.assert_array_equal(back.lda, backend.lda)
        np.testing.assert_array_equal(back.within, backend.within)

    def test_speaker_models_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        speakers = SpeakerModels(["s0", "s1", "s2"], rng.standard_normal((3, 4, 2)), "bg", 5.0)
        path = tmp_path / "spk.dvmd"
        formats.save_model(path, speakers)
        back = formats.load_model(path, "speaker_models")
        assert back.ids == speakers.ids
        assert (back.background_id, back.relevance) == ("bg", 5.0)
        np.testing.assert_array_equal(back["s1"], speakers["s1"])


def _pinned_payloads():
    """Per DVMD kind, a model and the payload written for it, by hand in the pinned
    field order: DVMD writes a dict in insertion order, so a reordered codec table
    changes every file of that kind."""
    rng = np.random.default_rng(21)
    gmm = DiagGmm(np.array([0.25, 0.75]), rng.standard_normal((2, 3)), 0.5 + rng.random((2, 3)))
    hmms = make_hmm_set(n_components=2)
    pgmm = Pgmm(np.ones((30, 1)), rng.standard_normal((30, 1, 2)), np.ones((30, 1, 2)))
    mlp = MlpModel([rng.standard_normal((4, 3)), rng.standard_normal((3, 2))],
                   [rng.standard_normal(3), rng.standard_normal(2)], rng.standard_normal(4),
                   1 + rng.random(4), FeatureKind.MFCC60, np.array([0.25, 0.75]))
    bg = Background(rng.standard_normal((3, 2)), 1 + rng.random((3, 2)), "bg")
    tv = TvModel(rng.standard_normal((6, 4)), bg)
    plda = PldaBackend(rng.standard_normal((5, 3)), rng.standard_normal(3),
                       np.eye(3), np.eye(3) * 2)
    speakers = SpeakerModels(["s0", "s1"], rng.standard_normal((2, 4, 2)), "bg", 5)
    return {
        "diag_gmm": (gmm, {"weights": gmm.weights, "means": gmm.means,
                           "variances": gmm.variances}),
        "hmm_set": (hmms, {"weights": hmms.weights, "means": hmms.means,
                           "variances": hmms.variances, "self_loop": hmms.self_loop}),
        "pgmm": (pgmm, {"state_ids": np.arange(30), "weights": pgmm.weights,
                        "means": pgmm.means, "variances": pgmm.variances}),
        "mlp": (mlp, {"weights": mlp.weights, "biases": mlp.biases,
                      "input_mean": mlp.input_mean, "input_std": mlp.input_std,
                      "input_kind": "mfcc60", "class_priors": mlp.class_priors}),
        "tv": (tv, {"matrix": tv.matrix, "background": {
            "means": bg.means, "variances": bg.variances, "model_id": "bg"}}),
        "plda_backend": (plda, {"lda": plda.lda, "mean": plda.mean,
                                "between": plda.between, "within": plda.within}),
        "speaker_models": (speakers, {"background_id": "bg", "relevance": 5.0,
                                      "ids": ["s0", "s1"], "means": speakers.means}),
    }


class TestModelCodec:
    def test_every_kind_is_pinned(self):
        assert sorted(_pinned_payloads()) == sorted(formats.MODELS)

    @pytest.mark.parametrize("kind", sorted(formats.MODELS))
    def test_write_order(self, tmp_path, kind):
        model, payload = _pinned_payloads()[kind]
        formats.save_model(tmp_path / "codec.dvmd", model)
        formats.write_dvmd(tmp_path / "hand.dvmd", kind, payload)
        assert (tmp_path / "codec.dvmd").read_bytes() == (tmp_path / "hand.dvmd").read_bytes()

    @pytest.mark.parametrize("kind", sorted(formats.MODELS))
    def test_load_then_save_is_byte_identical(self, tmp_path, kind):
        formats.save_model(tmp_path / "a.dvmd", _pinned_payloads()[kind][0])
        formats.save_model(tmp_path / "b.dvmd", formats.load_model(tmp_path / "a.dvmd", kind))
        assert (tmp_path / "a.dvmd").read_bytes() == (tmp_path / "b.dvmd").read_bytes()


class TestSpeakerRoster:
    @pytest.mark.parametrize("defect", sorted(ROSTER_DEFECTS))
    def test_corrupt_roster_is_corrupt_data(self, tmp_path, defect):
        means = np.random.default_rng(14).standard_normal((3, 4, 2))
        path = tmp_path / "spk.dvmd"
        formats.write_dvmd(path, "speaker_models",
                           ROSTER_DEFECTS[defect](roster_payload(["a", "b", "c"], means)))
        with pytest.raises(CorruptData, match="invalid speaker_models payload"):
            formats.load_model(path, "speaker_models")


def _root_base(arr):
    """The object that finally owns an array's memory (None: the array chain does)."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr.base


def _traced_peak(fn):
    """(result, peak traced bytes) of ``fn()``."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReaderCopies:
    """No reader holds a file's bytes whole: each numeric block is read straight
    into the array that owns it, so a model load needs about its arrays' size."""

    def test_load_tv_peak_is_about_the_matrix(self, tmp_path):
        rng = np.random.default_rng(11)
        mixtures, dim, rank = 64, 40, 64
        bg = Background(rng.standard_normal((mixtures, dim)),
                        1 + rng.random((mixtures, dim)), "ubm")
        path = tmp_path / "tv.dvmd"
        formats.save_model(path, TvModel(rng.standard_normal((mixtures * dim, rank)), bg))
        tv, peak = _traced_peak(lambda: formats.load_model(path, "tv"))
        # slack: the finiteness check's boolean mask is an eighth of the matrix
        assert peak < tv.matrix.nbytes * 5 // 4, (peak, tv.matrix.nbytes)

    def test_load_speaker_models_peak_is_about_the_models(self, tmp_path):
        rng = np.random.default_rng(13)
        stacked = rng.standard_normal((20, 64, 40))
        path = tmp_path / "spk.dvmd"
        formats.save_model(
            path, SpeakerModels([f"s{k:02d}" for k in range(20)], stacked, "ubm", 16.0))
        speakers, peak = _traced_peak(lambda: formats.load_model(path, "speaker_models"))
        np.testing.assert_array_equal(speakers["s07"], stacked[7])
        assert peak < stacked.nbytes * 5 // 4, (peak, stacked.nbytes)

    @pytest.mark.parametrize("kind,data", [
        ("dvfe", b"DVFE\x01\x00" + struct.pack("<II", 2**31, 2**31) + bytes(16)),
        ("dvmd", b"DVMD\x01\x00" + struct.pack("<H", 2) + b"tv"
                 + b"D" + struct.pack("<I", 1) + struct.pack("<H", 6) + b"matrix"
                 + b"Ad\x02" + struct.pack("<II", 20_000, 10_000) + bytes(16)),
    ])
    def test_huge_claim_in_a_tiny_file_allocates_nothing(self, tmp_path, kind, data):
        assert len(data) < 100
        path = tmp_path / f"huge.{kind}"
        path.write_bytes(data)

        def read():
            with pytest.raises(Truncated):
                READERS[kind](path)

        _, peak = _traced_peak(read)
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize("kind", ["dvfe", "dvpo", "dvst", "dviv", "dvmd"])
    def test_short_read_is_a_truncation(self, tmp_path, monkeypatch, kind):
        # the file is cut inside its last numeric block but claims its full size
        path = _valid_files(tmp_path)[kind]
        full = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-4])
        want = _outcome(BYTES_READERS[kind], path)
        assert want[0] is Truncated
        monkeypatch.setattr(os, "fstat", lambda fd: types.SimpleNamespace(st_size=full))
        with pytest.raises(Truncated, match="file ended after") as err:
            READERS[kind](path)
        assert err.value.offset == want[1]

    def test_arrays_do_not_reference_the_file(self, tmp_path):
        rng = np.random.default_rng(12)
        path = tmp_path / "p.dvmd"
        formats.save_model(path, Pgmm(np.full((30, 2), 0.5), rng.standard_normal((30, 2, 3)),
                                     np.ones((30, 2, 3))))
        _, payload = formats.read_dvmd(path, "pgmm")
        assert payload["state_ids"].dtype.kind == "i"
        for key in ("state_ids", "weights", "means", "variances"):
            assert _root_base(payload[key]) is None, key
            assert payload[key].flags.writeable, key


def _valid_files(tmp_path):
    rng = np.random.default_rng(10)
    files = {}
    feats = FeatureSequence(f32(rng.standard_normal((8, 60))), FeatureKind.MFCC60)
    files["dvfe"] = tmp_path / "r.dvfe"
    formats.write_dvfe(files["dvfe"], feats)
    post = rng.random((6, 33))
    post /= post.sum(axis=1, keepdims=True)
    files["dvpo"] = tmp_path / "r.dvpo"
    formats.write_dvpo(files["dvpo"], post)
    stats = SuffStats(rng.random(4), rng.standard_normal((4, 3)), "dnn-hmm")
    rng.random((4, 3))  # keeps the draws of the files below unchanged
    files["dvst"] = tmp_path / "r.dvst"
    formats.write_dvst(files["dvst"], stats)
    entries = [(f"u{k}", rng.standard_normal(5)) for k in range(3)]
    files["dviv"] = tmp_path / "r.dviv"
    formats.write_dviv(files["dviv"], entries)
    gmm = DiagGmm(np.array([0.5, 0.5]), rng.standard_normal((2, 3)),
                  0.5 + rng.random((2, 3)))
    files["dvmd"] = tmp_path / "r.dvmd"
    formats.save_model(files["dvmd"], gmm)
    return files


READERS = {
    "dvfe": formats.read_dvfe,
    "dvpo": formats.read_dvpo,
    "dvst": formats.read_dvst,
    "dviv": formats.read_dviv,
    "dvmd": formats.read_dvmd,
}


class TestHeaderIdentity:
    def test_first_six_bytes_identify_type_and_version(self, tmp_path):
        files = _valid_files(tmp_path)
        seen = set()
        for kind, path in files.items():
            head = path.read_bytes()[:6]
            assert head[:4].decode() == f"DV{kind[2:].upper()}"
            assert int.from_bytes(head[4:6], "little") == formats.VERSIONS[head[:4]]
            seen.add(head)
        assert len(seen) == len(files)  # no two formats share a header


def _manglings(original: bytes, kind: str, trials: int = 250):
    """The robustness corpus of one format: alternately a truncation and 1-3 byte flips."""
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    for trial in range(trials):
        data = bytearray(original)
        if trial % 2 == 0:
            cut = int(rng.integers(0, len(data)))
            data = data[:cut]
        else:
            for _ in range(int(rng.integers(1, 4))):
                pos = int(rng.integers(0, len(data)))
                data[pos] ^= int(rng.integers(1, 256))
        yield bytes(data)


class TestRobustness:
    """Every reader against the bytes-backed one it replaced: bit-equal results,
    or the same error class, offset and message."""

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_valid_file_matches_bytes_reader(self, tmp_path, kind):
        path = _valid_files(tmp_path)[kind]
        want = _outcome(BYTES_READERS[kind], path)
        assert not isinstance(want[0], type), want
        assert _outcome(READERS[kind], path) == want

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_random_truncations_and_corruptions(self, tmp_path, kind):
        files = _valid_files(tmp_path)
        target = tmp_path / f"mangled.{kind}"
        errors = 0
        for data in _manglings(files[kind].read_bytes(), kind):
            target.write_bytes(data)
            # an error other than a FormatError escapes _outcome and fails the test
            got = _outcome(READERS[kind], target)
            assert got == _outcome(BYTES_READERS[kind], target)
            errors += isinstance(got[0], type)
        assert errors > 100   # the corpus exercises the error paths
