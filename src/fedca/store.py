"""Embedding ingestion, validation, and id-indexed storage.

A store holds embedded instructions: a stable unsigned 64-bit id, a short
domain label, a fixed-dimension float32 vector (unit L2 norm after
ingestion), and an optional text payload that is carried through but never
interpreted. Stores are immutable once constructed and safe to share across
threads.

Two interchange formats are supported:

* JSONL, one object per line:
  ``{"id": u64, "domain": str, "embedding": [f32...], "text": optional str}``
* A little-endian binary format: magic ``FDCA``, version u32 (= 1), dim u32,
  count u64, then per record ``id u64, domain-length u16, domain bytes,
  dim x f32``. Text is not carried by the binary format.

Binary round-trips are bit-exact; JSONL round-trips preserve embeddings to
within one float32 ULP (re-ingestion re-normalizes an already unit vector).
"""

from __future__ import annotations

import functools
import io
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ValidationError
from .geometry import _NORM_BLOCK_BYTES, _row_norms

MAGIC = b"FDCA"
FORMAT_VERSION = 1
NORM_TOLERANCE = 1e-5

_HEADER = struct.Struct("<4sII")
_COUNT = struct.Struct("<Q")
_REC_FIXED = struct.Struct("<QH")


@dataclass(frozen=True)
class InstructionRecord:
    """One embedded instruction."""

    id: int
    domain: str
    embedding: np.ndarray  # (dim,) float32, unit L2 norm
    text: str | None = None


def _check_unit_rows(vec: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Every row finite with float64 L2 norm within NORM_TOLERANCE of 1;
    returns the norms, read-only.

    Norms come from ``geometry._row_norms``, which widens one row block at a
    time, so the check never holds a float64 copy of the matrix.
    """
    norms = _row_norms(vec)
    finite = np.isfinite(norms)
    if not np.all(finite):
        bad = int(np.argmin(finite))
        raise ValidationError(f"record id {int(ids[bad])} has non-finite vector values")
    if np.any(np.abs(norms - 1.0) > NORM_TOLERANCE):
        bad = int(np.argmax(np.abs(norms - 1.0)))
        raise ValidationError(
            f"record id {int(ids[bad])} is not unit-norm "
            f"(norm {norms[bad]:.8f}); ingest paths normalize, constructors expect unit vectors"
        )
    norms.flags.writeable = False
    return norms


class EmbeddingStore:
    """Immutable, id-indexed collection of embedded instructions.

    Records are kept sorted by id ascending. Vectors are stored as one
    float32 matrix, which every similarity kernel reads as it is, widening
    rows as it goes (the value contract in the ``geometry`` module docstring
    says which values each kernel computes); ``norms``, the float64 row
    norms that its unit-norm check takes, spares the screens a norm pass.
    The public constructor copies ``vectors``, so it allocates that float32
    matrix, its norms and one row block of checks; the package's own readers
    and subsets hand over the arrays they have just built through
    ``_adopt``, which runs the same checks without the copy.
    """

    def __init__(
        self,
        dim: int,
        ids: Sequence[int] | np.ndarray,
        domains: Sequence[str],
        vectors: np.ndarray,
        texts: Sequence[str | None] | None = None,
    ):
        self._build(dim, ids, domains, vectors, texts, owned=False)

    @classmethod
    def _adopt(
        cls,
        dim: int,
        ids: np.ndarray,
        domains: Sequence[str],
        vectors: np.ndarray,
        texts: Sequence[str | None] | None = None,
    ) -> "EmbeddingStore":
        """A store that takes ownership of ``ids`` (uint64) and ``vectors``
        (float32), which no one else may hold: it marks them read-only and
        keeps them when they are already in id order."""
        store = cls.__new__(cls)
        store._build(dim, ids, domains, vectors, texts, owned=True)
        return store

    def _build(self, dim, ids, domains, vectors, texts, owned: bool) -> None:
        if dim < 1:
            raise ValidationError(f"dimension must be >= 1, got {dim}")
        ids_arr = ids if owned else np.array(ids, dtype=np.uint64)
        vec = vectors if owned else np.asarray(vectors, dtype=np.float32)
        if vec.ndim != 2 or vec.shape[1] != dim:
            raise ValidationError(
                f"vectors must have shape (n, {dim}), got {vec.shape}"
            )
        n = len(ids_arr)
        if vec.shape[0] != n or len(domains) != n:
            raise ValidationError("ids, domains, and vectors must have equal length")
        if texts is not None and len(texts) != n:
            raise ValidationError("texts length must match record count")

        order = None
        if np.any(ids_arr[1:] <= ids_arr[:-1]):
            order = np.argsort(ids_arr, kind="stable")
            ids_arr = ids_arr[order]
            if np.any(ids_arr[1:] == ids_arr[:-1]):
                dup = int(ids_arr[np.nonzero(ids_arr[1:] == ids_arr[:-1])[0][0]])
                raise ValidationError(f"duplicate id {dup}")
            vec = vec[order]
        elif not owned:
            vec = vec.copy()
        self._norms = _check_unit_rows(vec, ids_arr)

        self._dim = dim
        self._ids = ids_arr
        self._ids.flags.writeable = False
        self._vectors = vec
        self._vectors.flags.writeable = False
        if order is None:
            self._domains = tuple(domains)
            self._texts = tuple(texts) if texts is not None else (None,) * n
        else:
            self._domains = tuple(domains[i] for i in order)
            self._texts = (
                tuple(texts[i] for i in order) if texts is not None else (None,) * n
            )
        index: dict[str, list[int]] = {d: [] for d in dict.fromkeys(self._domains)}
        for d, r in zip(self._domains, ids_arr.tolist()):
            index[d].append(r)
        self._domain_index = {d: np.asarray(v, dtype=np.uint64) for d, v in index.items()}

    # ------------------------------------------------------------------ views

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def ids(self) -> np.ndarray:
        return self._ids

    @property
    def domains(self) -> tuple[str, ...]:
        return self._domains

    @property
    def texts(self) -> tuple[str | None, ...]:
        return self._texts

    @property
    def vectors(self) -> np.ndarray:
        """(n, dim) float32 matrix, rows in id order. Read-only."""
        return self._vectors

    @property
    def norms(self) -> np.ndarray:
        """(n,) float64 row norms, taken by the unit-norm check. Read-only."""
        return self._norms

    @property
    def domain_index(self) -> dict[str, np.ndarray]:
        """Map from domain label to the sorted ids carrying that label."""
        return dict(self._domain_index)

    def matrix64(self) -> np.ndarray:
        """A new C-contiguous float64 copy of the vectors on every call.

        Nothing in the package reads it; it is kept for external callers.
        """
        return self._vectors.astype(np.float64)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, record_id: int) -> bool:
        try:
            self.index_of(record_id)
        except ValidationError:
            return False
        return True

    def __iter__(self) -> Iterator[InstructionRecord]:
        for i in range(len(self)):
            yield self.record_at(i)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EmbeddingStore):
            return NotImplemented
        return (
            self._dim == other._dim
            and np.array_equal(self._ids, other._ids)
            and self._domains == other._domains
            and np.array_equal(self._vectors, other._vectors)
            and self._texts == other._texts
        )

    def __repr__(self) -> str:
        return f"EmbeddingStore(dim={self._dim}, records={len(self)})"

    # ---------------------------------------------------------------- lookups

    def index_of(self, record_id: int) -> int:
        return int(self.positions([record_id])[0])

    def record_at(self, position: int) -> InstructionRecord:
        return InstructionRecord(
            id=int(self._ids[position]),
            domain=self._domains[position],
            embedding=self._vectors[position],
            text=self._texts[position],
        )

    def get(self, record_id: int) -> InstructionRecord:
        return self.record_at(self.index_of(record_id))

    def positions(self, record_ids: Sequence[int]) -> np.ndarray:
        """Row positions of the given ids, in the given order, found with one
        ``searchsorted``; ``index_of`` and ``in`` look up one id through here.

        Ids are numpy or Python integers, not bools. A ValidationError names
        the first id that is not an integer, or else the first not in the store.
        """
        items = record_ids
        if not (isinstance(items, np.ndarray) and items.ndim == 1 and items.dtype.kind in "iu"):
            items = items.tolist() if isinstance(items, np.ndarray) else list(items)
            bad = {t for t in set(map(type, items))
                   if t is bool or not issubclass(t, (int, np.integer))}
            if bad:
                first = next(r for r in items if type(r) in bad)
                raise ValidationError(f"record id {first!r} is not an integer")
        want = np.asarray(items)
        if want.dtype.kind in "iu":
            known = want >= 0
            want = want.astype(np.uint64)  # a negative id wraps, but is unknown already
        else:  # no ids, or ids both negative and past int64, or past uint64
            known = np.array([0 <= int(r) < 2**64 for r in items], dtype=bool)
            want = np.array([int(r) if k else 0 for r, k in zip(items, known)], dtype=np.uint64)
        pos = np.searchsorted(self._ids, want)
        known &= pos < len(self._ids)
        known[known] = self._ids[pos[known]] == want[known]
        if not known.all():
            raise ValidationError(f"unknown record id {items[int(np.argmin(known))]}")
        return pos

    def vectors_for(self, record_ids: Sequence[int]) -> np.ndarray:
        """Float32 vectors for the given ids, in the given order."""
        return self._vectors[self.positions(record_ids)]

    # ---------------------------------------------------------------- subsets

    def subset_by_domain(self, domain: str) -> "EmbeddingStore":
        """Records whose domain equals the label; empty store if none."""
        ids = self._domain_index.get(domain)
        if ids is None:
            return EmbeddingStore(self._dim, [], [], np.empty((0, self._dim), np.float32), [])
        return self.subset_by_ids(ids)

    def subset_by_ids(self, record_ids: Sequence[int]) -> "EmbeddingStore":
        pos = self.positions(record_ids)
        at = pos.tolist()
        return EmbeddingStore._adopt(
            self._dim,
            self._ids[pos],
            [self._domains[i] for i in at],
            self._vectors[pos],
            [self._texts[i] for i in at],
        )


# ---------------------------------------------------------------------- JSONL


def _utf8_encodable(text: str) -> bool:
    """Whether ``text`` holds no lone surrogate, so it encodes as UTF-8."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _embedding_row(
    values: list, dim: int, line_no: int, may_hold_bools: bool
) -> np.ndarray:
    """``values`` as a float64 row of length ``dim``.

    numpy reads booleans mixed with numbers as 1 and 0, so ``may_hold_bools``
    runs a per-element pass that rejects them; only a line whose text holds
    ``true`` or ``false`` needs it.
    """
    if may_hold_bools and any(isinstance(v, bool) for v in values):
        raise ValidationError(f"line {line_no}: embedding values must be numbers")
    try:
        arr = np.asarray(values)
        if arr.dtype.kind == "O" and set(map(type, values)) <= {int, float}:
            arr = np.asarray(values, dtype=np.float64)  # integers beyond int64
    except (ValueError, OverflowError):
        arr = None  # ragged nesting, or an integer beyond float64
    if arr is None or arr.dtype.kind not in "iuf":
        raise ValidationError(f"line {line_no}: embedding values must be numbers")
    arr = arr.astype(np.float64, copy=False)
    if arr.ndim != 1 or arr.shape[0] != dim:
        raise ValidationError(
            f"line {line_no}: embedding length {arr.shape[0] if arr.ndim == 1 else 'n/a'}"
            f" does not match dimension {dim}"
        )
    return arr


def _unit_rows(pending: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """The float64 rows of ``pending`` ``(line, row)`` pairs divided by their
    ``geometry._row_norms`` and rounded to float32. A non-finite, overflowing
    or zero norm raises, naming the first such row's line."""
    lines, rows = zip(*pending)
    block = np.array(rows)
    norms = _row_norms(block)
    bad = ~np.isfinite(norms) | (norms == 0.0)
    if bad.any():
        at = int(np.argmax(bad))
        if norms[at] == 0.0:
            raise ValidationError(f"line {lines[at]}: zero-norm vector rejected")
        if not np.all(np.isfinite(block[at])):
            raise ValidationError(f"line {lines[at]}: embedding contains non-finite values")
        raise ValidationError(f"line {lines[at]}: embedding norm overflows float64")
    return (block / norms[:, None]).astype(np.float32)


def _jsonl_record(line: str, line_no: int, dim: int, seen: set[int]):
    """The ``(id, domain, float64 row, text)`` of one JSONL line, None for a
    blank line; every check but the row's norm, each naming ``line_no``."""
    if not _utf8_encodable(line):
        raise ValidationError(f"line {line_no}: not valid UTF-8")
    if not line.strip():
        return None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"line {line_no}: malformed JSON ({exc.msg})") from None
    except RecursionError:
        raise ValidationError(f"line {line_no}: JSON nested too deeply") from None
    except ValueError as exc:  # an integer beyond Python's digit limit
        raise ValidationError(f"line {line_no}: {exc}") from None
    if not isinstance(obj, dict):
        raise ValidationError(f"line {line_no}: record must be an object")
    try:
        rec_id = obj["id"]
        domain = obj["domain"]
        embedding = obj["embedding"]
    except KeyError as exc:
        raise ValidationError(f"line {line_no}: missing field {exc.args[0]!r}") from None
    if (not isinstance(rec_id, int) or isinstance(rec_id, bool)
            or rec_id < 0 or rec_id >= 2**64):
        raise ValidationError(f"line {line_no}: id must be an unsigned 64-bit integer")
    if rec_id in seen:
        raise ValidationError(f"line {line_no}: duplicate id {rec_id}")
    if not isinstance(domain, str):
        raise ValidationError(f"line {line_no}: domain must be a string")
    if not _utf8_encodable(domain):
        raise ValidationError(f"line {line_no}: domain holds a lone surrogate escape")
    if not isinstance(embedding, list):
        raise ValidationError(f"line {line_no}: embedding must be an array")
    text = obj.get("text")
    if text is not None and not isinstance(text, str):
        raise ValidationError(f"line {line_no}: text must be a string when present")
    # "true" holds a "u" and "false" an "s", which no number does; the
    # one-character scans rule out most lines for a fraction of the cost
    may_hold_bools = ("u" in line or "s" in line) and ("true" in line or "false" in line)
    return rec_id, domain, _embedding_row(embedding, dim, line_no, may_hold_bools), text


def ingest_jsonl(path: str | Path, dim: int) -> EmbeddingStore:
    """Read a JSONL embedding file, validating and L2-normalizing every vector.

    Errors name the offending 1-based line: dimension mismatch, duplicate id,
    zero-norm vector, non-numeric embedding value, bytes that are not UTF-8,
    malformed line, nesting beyond the recursion limit, an integer beyond
    Python's digit limit.

    Rows are normalized one block of ``geometry._NORM_BLOCK_BYTES`` of
    float64 rows at a time (``_unit_rows``); the rows still pending are
    checked before a later line's fault is raised, so the first fault in
    file order is the one reported.
    """
    path = Path(path)
    ids: list[int] = []
    domains: list[str] = []
    texts: list[str | None] = []
    blocks: list[np.ndarray] = []
    pending: list[tuple[int, np.ndarray]] = []
    block_rows = max(1, _NORM_BLOCK_BYTES // (8 * max(1, dim)))
    seen: set[int] = set()
    # an overflowing norm is reported by _unit_rows, not warned about
    # bytes that are not UTF-8 decode to lone surrogates, which no valid
    # line holds, so they are reported with their line
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh, \
            np.errstate(over="ignore"):
        for line_no, line in enumerate(fh, start=1):
            try:
                record = _jsonl_record(line, line_no, dim, seen)
            except ValidationError:
                if pending:  # a fault on an earlier line is reported first
                    _unit_rows(pending)
                raise
            if record is None:
                continue
            rec_id, domain, row, text = record
            seen.add(rec_id)
            ids.append(rec_id)
            domains.append(domain)
            texts.append(text)
            pending.append((line_no, row))
            if len(pending) == block_rows:
                blocks.append(_unit_rows(pending))
                pending = []
        if pending:
            blocks.append(_unit_rows(pending))
    matrix = np.concatenate(blocks) if blocks else np.empty((0, dim), np.float32)
    return EmbeddingStore._adopt(dim, np.array(ids, dtype=np.uint64), domains, matrix, texts)


def write_jsonl(store: EmbeddingStore, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for rec in store:
            obj: dict = {
                "id": rec.id,
                "domain": rec.domain,
                "embedding": [float(x) for x in rec.embedding],
            }
            if rec.text is not None:
                obj["text"] = rec.text
            fh.write(json.dumps(obj) + "\n")


# --------------------------------------------------------------------- binary

# Bytes of records the binary reader holds, and the writer builds, at once.
_CHUNK_BYTES = 4 << 20
# Records in a run's first length probe; each later probe of the run doubles,
# so a run costs time in its own length, never in the records after it.
_FIRST_PROBE = 16


@functools.lru_cache(maxsize=64)
def _record_dtype(dlen: int, dim: int) -> np.dtype:
    """A packed binary record whose domain label is ``dlen`` bytes long.

    The label is raw ``V`` bytes: ``S`` would strip trailing NULs, and
    ``"a\\x00"`` is a valid label.
    """
    fields = [("id", "<u8"), ("len", "<u2")]
    if dlen:
        fields.append(("domain", f"V{dlen}"))
    fields.append(("vec", "<f4", (dim,)))
    return np.dtype(fields)


def write_binary(store: EmbeddingStore, path: str | Path) -> None:
    """Write the binary format. Text payloads are dropped (format carries none).

    Each run of records with equal label length is filled into the output
    chunk through one structured view.
    """
    encoded = {d: d.encode("utf-8") for d in dict.fromkeys(store.domains)}
    labels = [encoded[d] for d in store.domains]
    lens = np.fromiter(map(len, labels), dtype=np.int64, count=len(labels))
    too_long = np.flatnonzero(lens > 0xFFFF)
    if too_long.size:
        raise ValidationError(f"domain label too long for record id {int(store.ids[too_long[0]])}")
    starts = np.flatnonzero(np.diff(lens, prepend=-1)).tolist()
    with Path(path).open("wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, store.dim) + _COUNT.pack(len(store)))
        chunk, used = bytearray(_CHUNK_BYTES), 0
        for lo, hi in zip(starts, starts[1:] + [len(labels)]):
            dlen = int(lens[lo])
            rec = _record_dtype(dlen, store.dim)
            step = max(1, _CHUNK_BYTES // rec.itemsize)
            for a in range(lo, hi, step):
                b = min(hi, a + step)
                size = (b - a) * rec.itemsize
                if used + size > len(chunk):
                    fh.write(memoryview(chunk)[:used])
                    used = 0
                    if size > len(chunk):  # a record beyond a chunk
                        chunk = bytearray(size)
                out = np.frombuffer(chunk, rec, count=b - a, offset=used)
                out["id"] = store.ids[a:b]
                out["len"] = dlen
                if dlen:
                    out["domain"] = labels[a:b]
                out["vec"] = store.vectors[a:b]
                used += size
        fh.write(memoryview(chunk)[:used])


def _refill(fh, buf: bytearray, pos: int, end: int, need: int) -> tuple[bytearray, int]:
    """Moves ``buf[pos:end]`` to the front and reads on to fill the buffer, a
    larger one if ``need`` bytes do not fit; returns it and its filled size."""
    held = end - pos
    new = buf if need <= len(buf) else bytearray(need)  # a record beyond a chunk
    new[:held] = buf[pos:end]
    end = held
    with memoryview(new) as view:
        while end < len(new) and (got := fh.readinto(view[end:])):
            end += got
    return new, end


def _read_records(fh, count: int, dim: int):
    """``count`` records after the header: ids, raw labels, matrix, and the
    first fault of framing (truncation, trailing data) or None."""
    ids = np.empty(count, np.uint64)
    matrix = np.empty((count, dim), np.float32)
    raw: list[bytes] = []
    buf, pos, end = bytearray(_CHUNK_BYTES), 0, 0
    i = 0
    while i < count:
        if end - pos < _REC_FIXED.size:
            buf, end = _refill(fh, buf, pos, end, _REC_FIXED.size)
            pos = 0
            if end < _REC_FIXED.size:
                return ids, raw, matrix, f"truncated payload in record {i}"
        dlen = _REC_FIXED.unpack_from(buf, pos)[1]
        rec = _record_dtype(dlen, dim)
        size = rec.itemsize
        if end - pos < size:
            buf, end = _refill(fh, buf, pos, end, size)
            pos = 0
            if end < size:
                return ids, raw, matrix, f"truncated payload in record {i}"
        # the run of records with this label length, probed within the chunk:
        # a peek at each probe's first record, then all the probe's lengths
        limit = min((end - pos) // size, count - i)
        k, probe = 1, _FIRST_PROBE
        while k < limit and _REC_FIXED.unpack_from(buf, pos + k * size)[1] == dlen:
            m = min(probe, limit - k)
            other = np.frombuffer(buf, rec, count=m, offset=pos + k * size)["len"] != dlen
            j = int(other.argmax())
            if other[j]:
                k += j
                break
            k += m
            probe *= 2
        recs = np.frombuffer(buf, rec, count=k, offset=pos)
        ids[i : i + k] = recs["id"]
        matrix[i : i + k] = recs["vec"]
        raw += recs["domain"].tolist() if dlen else [b""] * k
        i += k
        pos += k * size
    if pos < end or _refill(fh, buf, pos, end, 1)[1]:
        return ids, raw, matrix, f"trailing data after {count} records"
    return ids, raw, matrix, None


def _decoded(raw: list[bytes]) -> list[str]:
    """The labels as text, naming the first record whose label is not UTF-8."""
    text: dict[bytes, str] = {}
    for label in dict.fromkeys(raw):
        try:
            text[label] = label.decode("utf-8")
        except UnicodeDecodeError:
            raise ValidationError(
                f"record {raw.index(label)}: domain label is not valid UTF-8"
            ) from None
    return list(map(text.__getitem__, raw))


def ingest_binary(path: str | Path) -> EmbeddingStore:
    """Read a binary embedding file. Vectors are taken as stored (bit-exact).

    One pass over bounded chunks: each run of records with equal label length
    is parsed through one structured view and copied straight into the final
    ids and matrix, which the store adopts, so memory is about one matrix.
    Errors name the first fault in file order.
    """
    with Path(path).open("rb") as file:
        fh = file if file.seekable() else io.BytesIO(file.read())  # a pipe is read first
        size = fh.seek(0, os.SEEK_END)
        fh.seek(0)
        head = fh.read(_HEADER.size + _COUNT.size)
        if len(head) < _HEADER.size:
            raise ValidationError("truncated payload: missing header")
        magic, version, dim = _HEADER.unpack_from(head, 0)
        if magic != MAGIC:
            raise ValidationError(f"bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise ValidationError(f"unsupported format version {version}")
        if len(head) < _HEADER.size + _COUNT.size:
            raise ValidationError("truncated payload: missing record count")
        (count,) = _COUNT.unpack_from(head, _HEADER.size)
        body = size - len(head)
        min_record = _REC_FIXED.size + 4 * dim
        if count * min_record > body:
            raise ValidationError(
                f"truncated payload: header declares {count} records of at least "
                f"{min_record} bytes, but {body} bytes follow"
            )
        ids, raw, matrix, fault = _read_records(fh, count, dim)
    domains = _decoded(raw)  # a bad label before a framing fault comes first
    if fault is not None:
        raise ValidationError(fault)
    return EmbeddingStore._adopt(dim, ids, domains, matrix)
