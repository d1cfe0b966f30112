"""Similarity and coverage primitives shared by selection, retrieval, and metrics.

All inputs are unit-norm vectors, so cosine similarity is a plain dot
product. Coverage of a covering set over a reference set is the mean, over
reference points, of each point's best similarity to the covering set; the
facility value is the same quantity unnormalized. ``_vectors`` checks every
vector-set argument here and in ``clustering``, and ``_squared_norms`` (with
its root, ``_row_norms``) is the package's one blocked row-norm pass.

Value contract. This is the one statement of which similarity values the
package computes and what they may depend on; the other modules and the
README refer to it. Each value that BLAS computes falls under one bullet,
and ``tests/test_blas_products.py`` holds every BLAS product in the package
to the bullet that covers it.

* Canonical values are the dot product of two rows widened to float64, as
  ``np.einsum("ij,ij->i", a, b)`` (``_row_dots``) computes it. They do not
  depend on which other rows share the call, on their order, or on the BLAS
  thread count. ``cosine``, ``best_similarity`` (so ``coverage``,
  ``facility_value`` and ``marginal_gain``), ``_distinct_top`` (direct
  retrieval), the selection scorer (so every greedy, beam and brute-force
  decision, trace and coverage value), k-means assignment
  (``clustering.assign_labels`` and every label inside ``clustering.kmeans``),
  the logging sims of random sampling and ICACS, given its k-means centers
  (``metrics.icacs``: one canonical value per client, S_a . (S - S_a), over
  center sums that take no BLAS), return canonical values, or decisions
  taken on them, only. Every row norm is the root of a canonical value
  (``_row_norms``): the store's unit-norm check, JSONL ingest normalization
  (``store.ingest_jsonl``) and k-means center norms
  (``clustering._update``) included.
* Screen values come from ``_screen_gemm``, the screen seam, and never leave
  the kernel that reads them: ``_screened_pairs``, ``_distinct_top``, the
  selection scorer and k-means assignment keep a pair only where a rigorous
  bound lets its canonical value decide, as described below.
* GEMV values come from ``_gemv_rows``, which threshold-filtered (feddca)
  retrieval ranks by, the last path that does. Each row is bit for bit a
  single-threaded ``matrix.astype(float64) @ v`` at one or two BLAS
  threads, but not at more; see ``_gemv_spans``.
* k-means seeding (``clustering._plus_plus_init``) ranks by one GEMV per
  chosen center in the points' precision, widened to float64 before the D^2
  draw. Its bits may change with the BLAS thread count, and so may the
  seeded centers and every center and label k-means returns.

Two kernels compute every canonical value that a GEMM screen selects, and
both read their screens through ``_screen_blocks``, which holds the one
proof of the bound. Per block of ``_QUERY_BLOCK`` rows it runs one GEMM,
whose values can move in the last bits with blocking and BLAS threads; a
row keeps the pairs that may rank among its top k by canonical value, and
only those are rescored, through ``_canonical_dots``. ``_screened_pairs``
takes k = 1. ``best_similarity`` takes the maximum of each row's kept
pairs, for every reference row that is not self-covered. A reference row x
is self-covered when a bound on squared distances (``_self_covered``) rules
out every covering row but one from scoring above c(x, x), and that one
equals x by value; its maximum is then c(x, x), its own squared norm,
computed as every canonical value is, and it is not screened.
``_distinct_top`` (direct retrieval) ranks the pool for each query, and
picks from the ranking the rows its group has not taken: it rescores only
the pairs the bound keeps for the least k at which its screen row alone
shows that the first k ranked positions hold enough of them. The selection
scorer takes its operands, reference norms and slack from the same set-up
and rescores through ``_canonical_dots`` too. Every screen GEMM runs
through ``_screen_gemm``, the one seam where a test can put screen values
anywhere within the bound and check that no output moves.
``_screen_operands`` sets up every screen, k-means assignment's
(``clustering._assign``) included, from two halves, the rows and the
others, that ``_screen_rows`` makes the same way for either side, with one
slack, ``_screen_slack(d + 1, u) * |x| * max|y|`` (proved once, on
``_screen_blocks``), and by one rule over the two halves' dtypes and norms:

* SGEMM, when the rows are float32, every nonzero norm product
  ``|x| * max|y|`` lies in ``_SINGLE_RANGE``, and the others are float32
  (store rows, k-means centers) or float64 with every nonzero norm in that
  range (k-means centers against float32 points, a float64 covering set of
  a float32 reference), which the screen reads rounded to float32
  (``_screen_blocks`` rounds them once per screen, not per block) and
  canonical rescoring reads unrounded. No float32 value overflows and
  underflow stays far below the slack; u = 2**-24;
* DGEMM over operands widened to float64 otherwise; u = 2**-53.

Screen values never leave the kernel, and the self-covered check reads no
screen and never certifies a row whose maximum is not c(x, x), so each
per-reference maximum is the exact maximum of canonical values over the
whole covering set: bit-identical under any chunking or ordering of either
set, for either screen, and at any BLAS thread count. Widening float32 to
float64 is exact, so float32 input and the same input widened to float64
give the same bits. Sums over the reference set use ``math.fsum`` (exact
compensated summation, whose result is independent of summation order), so
reference-set sizes up to ~1e5 stay accurate to the last unit in the last
place.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import fsum
from typing import NamedTuple

import numpy as np

from .errors import ValidationError

# Bytes of gathered rows per `_canonical_dots` chunk.
_GATHER_BYTES = 4 << 20
# Bytes of widened rows per `_row_norms` block. Of 128 KB to 4 MB, 512 KB
# was fastest at 60,000 x 1,024 and 20,000 x 64 (2-vCPU x86-64), and it
# keeps the store's unit-norm check a small allocation beside its matrix.
_NORM_BLOCK_BYTES = 512 << 10
_UNIT_ROUNDOFF = 2.0**-53
# Unit roundoff of a float32 screen.
_SINGLE_ROUNDOFF = 2.0**-24
# A float32 screen is used only when every nonzero norm product |x| * max|y|
# lies in this range: no product or partial sum can overflow, and the
# absolute error of underflowing products (at most 2**-150 each) stays far
# below the slack.
_SINGLE_RANGE = (2.0**-60, 2.0**60)
# Rows per `_screen_blocks` screen and queries per feddca retrieval pass:
# one pass over the other set for up to this many.
_QUERY_BLOCK = 256
# Coordinates a self-covered check reads: one to sort the covering rows on,
# all of them to bound squared distances from below.
_CHECK_COORDS = 8
# Row norms a self-covered check takes: no square or product overflows, and
# underflow stays far below its padding.
_CHECK_RANGE = (2.0**-250, 2.0**250)
# Bytes of float64 rows per full `_gemv_rows` span: the span stays in cache
# while every vector is applied to it (512 rows at d = 1,024).
_GEMV_SPAN_BYTES = 4 << 20


class SimilarityMode(Enum):
    """Similarity scale used by coverage-style reductions.

    ``RAW_COSINE`` uses dot products directly (range [-1, 1]).
    ``AFFINE_SHIFTED`` maps s to (s + 1) / 2 (range [0, 1]); the map is
    strictly monotone, so it never changes which covering vector is best,
    and it makes the facility value monotone even when raw cosines go
    negative.
    """

    RAW_COSINE = "raw"
    AFFINE_SHIFTED = "affine"

    @property
    def floor(self) -> float:
        """Smallest possible similarity; the prior best over an empty set."""
        return -1.0 if self is SimilarityMode.RAW_COSINE else 0.0

    def apply(self, values: np.ndarray) -> np.ndarray:
        if self is SimilarityMode.RAW_COSINE:
            return values
        return (values + 1.0) * 0.5


@dataclass(frozen=True)
class CoverageValue:
    """A coverage score together with the reference-set size it averaged over."""

    value: float
    reference_size: int


def _vectors(x, name: str, ndim: int = 2, dtype=np.float64) -> np.ndarray:
    """``x`` as a C-contiguous array of ``dtype``; a ValidationError naming
    ``name`` unless it has ``ndim`` dimensions (a vector set by default)."""
    arr = np.ascontiguousarray(x, dtype=dtype)
    if arr.ndim != ndim:
        kind = "a 2-d vector set" if ndim == 2 else "a 1-d vector"
        raise ValidationError(f"{name} must be {kind}, got ndim={arr.ndim}")
    return arr


def cosine(a, b) -> float:
    """Cosine similarity of two unit vectors: their canonical dot product."""
    va = _vectors(a, "a", ndim=1)
    vb = _vectors(b, "b", ndim=1)
    if va.shape[0] != vb.shape[0]:
        raise ValidationError(
            f"dimension mismatch: {va.shape[0]} vs {vb.shape[0]}"
        )
    return float(_row_dots(va[None], vb[None])[0])


def _wide(x: np.ndarray) -> np.ndarray:
    """``x`` as float64; float32 rows widen exactly, float64 rows are not copied."""
    return x.astype(np.float64, copy=False)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Canonical similarity of each row pair ``(a[i], b[i])``; both float64."""
    return np.einsum("ij,ij->i", a, b)


def _squared_norms(x: np.ndarray) -> np.ndarray:
    """Canonical similarity of every row with itself, widening one block of
    rows at a time."""
    rows = max(1, _NORM_BLOCK_BYTES // (8 * max(1, x.shape[1])))
    sq = np.empty(x.shape[0])
    for lo in range(0, x.shape[0], rows):
        part = _wide(x[lo : lo + rows])
        np.einsum("ij,ij->i", part, part, out=sq[lo : lo + rows])
    return sq


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Float64 L2 norm of every row: the root of ``_squared_norms``."""
    return np.sqrt(_squared_norms(x))


def _gamma(n: int, u: float = _UNIT_ROUNDOFF) -> float:
    """``gamma_n = n*u / (1 - n*u)``: the relative error bound of n roundings."""
    return n * u / (1.0 - n * u)


def _screen_slack(dim: int, u: float) -> float:
    """``4 * gamma_(dim+1)`` at the screen's unit roundoff ``u``; every screen
    takes it at dim = d + 1, times ``|x| * max|y|`` (see ``_screen_blocks``)."""
    return 4.0 * _gamma(dim + 1, u)


def _own_precision(x, name: str) -> np.ndarray:
    """``x`` as a C-contiguous vector set: float32 when it is float32, float64
    otherwise. Errors name it by ``name``."""
    arr = np.asarray(x)
    return _vectors(arr, name, dtype=np.float32 if arr.dtype == np.float32 else np.float64)


class _ScreenRows(NamedTuple):
    """Either half of a screen's set-up, as ``_screen_rows`` makes it."""

    vectors: np.ndarray
    norms: np.ndarray
    span: tuple[float, float]
    name: str


def _screen_rows(rows, name: str, norms=None) -> _ScreenRows:
    """Either half of every screen of ``rows``, made once for any other
    half: the rows in their ``_own_precision`` (none give empty screens),
    their float64 norms (``norms`` spares the pass), ``_screen_roundoff``'s
    span, the least nonzero norm (inf for none) and the largest (0.0 for
    none), and the ``name`` errors call them by."""
    a = _own_precision(rows, name)
    if norms is None:
        norms = _row_norms(a)
    least = float(norms.min(initial=np.inf))
    if least == 0.0:  # a zero row has exact zero products, whatever the screen
        least = float(norms[norms > 0].min(initial=np.inf))
    return _ScreenRows(a, norms, (least, float(norms.max(initial=0.0))), name)


def _paired(rows: _ScreenRows, others: _ScreenRows) -> None:
    """Raise unless ``others`` is non-empty and of the width of ``rows``."""
    if others.vectors.shape[0] == 0:
        raise ValidationError(f"{others.name} set is empty")
    if rows.vectors.shape[1] != others.vectors.shape[1]:
        raise ValidationError(f"dimension mismatch: {rows.name} {rows.vectors.shape[1]} "
                              f"vs {others.name} {others.vectors.shape[1]}")


def _screen_roundoff(rows: _ScreenRows, others: _ScreenRows) -> float:
    """Unit roundoff of the screen of ``rows`` against ``others`` by the value
    contract's rule, read off each half's span: 2**-24 for an SGEMM, else
    2**-53."""
    lo, hi = _SINGLE_RANGE
    (least, largest), (least_other, top) = rows.span, others.span
    others_fit = others.vectors.dtype == np.float32 or (lo <= least_other and top <= hi)
    in_range = largest * top <= hi and (least == np.inf or least * top >= lo)
    single = rows.vectors.dtype == np.float32 and others_fit and in_range
    return _SINGLE_ROUNDOFF if single else _UNIT_ROUNDOFF


def _screen_operands(
    rows: _ScreenRows, others: _ScreenRows
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The operands ``_screen_gemm`` takes for a screen of ``rows`` against
    ``others`` (two ``_paired`` halves), both widened to float64 unless
    ``_screen_roundoff`` allows an SGEMM, and each row's slack
    ``_screen_slack(d + 1, u) * max_j |others_j| * |rows_i|``."""
    _paired(rows, others)
    a, b = rows.vectors, others.vectors
    u = _screen_roundoff(rows, others)
    if u == _UNIT_ROUNDOFF:
        a, b = _wide(a), _wide(b)
    return a, b, _screen_slack(a.shape[1] + 1, u) * others.span[1] * rows.norms


def _screen_gemm(rows: np.ndarray, others: np.ndarray) -> np.ndarray:
    """The screen of every row of ``rows`` against every row of ``others``
    (rounded to the dtype of ``rows``), as set up by ``_screen_operands``:
    the one place a screen GEMM runs."""
    return rows @ others.astype(rows.dtype, copy=False).T


def _canonical_dots(
    rows: np.ndarray, at: np.ndarray, other: np.ndarray, other_at=None
) -> np.ndarray:
    """Canonical similarity of each pair ``(rows[at[p]], other[other_at[p]])``,
    or of each ``rows[at[p]]`` with the one float64 vector ``other`` when
    ``other_at`` is None; rows are gathered and widened in chunks of at most
    ``_GATHER_BYTES``."""
    step = max(1, _GATHER_BYTES // (16 * rows.shape[1]))
    out = np.empty(len(at))
    for lo in range(0, len(at), step):
        part = _wide(rows[at[lo : lo + step]])
        if other_at is None:
            with_ = np.broadcast_to(other, part.shape)
        else:
            with_ = _wide(other[other_at[lo : lo + step]])
        out[lo : lo + step] = _row_dots(part, with_)
    return out


def _screen_blocks(rows: _ScreenRows, others: _ScreenRows, subset=None):
    """Yield ``(block, screen, slack, b)`` per block of ``_QUERY_BLOCK`` rows
    of the ``_screen_rows`` half ``rows`` (of its rows at ``subset``,
    gathered one block at a time, when ``subset`` is given): the block's rows
    as the screen reads them, one ``_screen_gemm`` of them against all of
    the half ``others``, set up by ``_screen_operands``, each row's slack,
    and ``others`` as canonical rescoring reads them. A screen holds
    ``_QUERY_BLOCK * len(others)`` values at most. ``_screened_pairs`` and
    ``_distinct_top`` read every screen through here.

    This is the one proof of the screen bound. Let u be the screen's unit
    roundoff, d the width, M = max_j |y_j| and E = 2 * gamma_(d+1)(u) *
    |x_i| * M. A screen value s_j lies within gamma_d(u) * (1 + 2u) * |x_i|
    * M of x_i . y'_j, the exact product with the row y'_j the GEMM reads:
    y_j or, for float64 others of an SGEMM, y_j rounded to float32, which
    lies within 2u * |y_j| of y_j (subnormal parts included, since a nonzero
    |y_j| then lies in ``_SINGLE_RANGE``). A row of zero float64 norm has
    every coordinate below 2**-537 in magnitude, since each square rounds to
    zero, so rounding it to zero moves x_i . y_j by less than sqrt(d) *
    2**-537 * |x_i|, far inside the slack's margin of 4u * |x_i| * M (M >=
    2**-60 unless every row x_i is zero, and zero float32 rows are exact).
    The canonical value c_j lies within gamma_d(2**-53) * |x_i| * M of x_i
    . y_j (Higham, *Accuracy and Stability of Numerical Algorithms*, sec.
    3.1). So s_j lies within E of c_j. Let g_k be the k-th largest screen
    value of row i. The k columns with the largest screen values have
    canonical values of at least g_k - E, so the k-th largest canonical
    value c_k is at least that too, and any column whose canonical value
    reaches c_k has a screen value of at least c_k - E >= g_k - 2E. The
    slack ``_screen_slack(d + 1, u) * |x_i| * M`` = 4 * gamma_(d+2)(u) *
    |x_i| * M exceeds 2E by at least 4u * |x_i| * M, more than the roundings
    of the norms, of the slack and of the floor. A row therefore keeps every
    column that may rank among its top k by canonical value when it keeps
    every column whose screen value is not below its floor, g_k less the
    slack, rounded to the screen's dtype (``_floor``; a row with k >=
    len(others) keeps them all). A NaN screen value or bound keeps its
    pairs, so NaN input gives NaN values. Screen values are never returned,
    so ranking a row's kept pairs by canonical value equals ranking all of
    ``others`` by canonical value down to position k, under any blocking,
    for float32 input and the same input widened to float64, and at any
    BLAS thread count.
    """
    a, b, slack = _screen_operands(rows, others)
    screened = b.astype(a.dtype, copy=False)  # rounded once; rescoring reads ``b``
    for lo in range(0, a.shape[0] if subset is None else len(subset), _QUERY_BLOCK):
        part = slice(lo, lo + _QUERY_BLOCK)
        if subset is not None:
            part = subset[part]
        block = a[part]
        yield block, _screen_gemm(block, screened), slack[part], b


def _floor(kth, slack, dtype):
    """The screen floor of ``_screen_blocks``: the k-th largest screen value
    less the slack, computed in float64 and rounded to the screen's dtype."""
    return (np.asarray(kth, dtype=np.float64) - slack).astype(dtype)


def _screened_pairs(rows: _ScreenRows, others: _ScreenRows, subset=None):
    """Yield ``(starts, cols, values)`` per block of ``_screen_blocks``:
    row-major, the pairs (row, column of the half ``others``) that may hold
    the row's maximum canonical value (k = 1 of the bound proved on
    ``_screen_blocks``). ``starts[r]`` is the position of block row r's
    first pair, ``cols`` the pairs' columns and ``values`` their canonical
    values; every row has at least one pair, and about one.
    """
    n = others.vectors.shape[0]
    for block, screen, slack, b in _screen_blocks(rows, others, subset):
        floor = _floor(screen.max(axis=1), slack, screen.dtype)
        flat = np.flatnonzero(~(screen < floor[:, None]))
        starts = np.searchsorted(flat, np.arange(block.shape[0]) * n)
        at, cols = np.divmod(flat, n)
        yield starts, cols, _canonical_dots(b, cols, block, at)


def _spread_coords(b: np.ndarray) -> np.ndarray:
    """Up to ``_CHECK_COORDS`` coordinates of the rows of ``b``, widest spread
    (standard deviation over at most about 256 evenly spaced rows) first."""
    sample = _wide(b[:: max(1, b.shape[0] // 256)])
    return np.argsort(-sample.std(axis=0), kind="stable")[:_CHECK_COORDS]


def _self_covered(a: np.ndarray, b: np.ndarray, a_squares, b_squares):
    """The rows of ``a`` certified self-covered by ``b``, ascending, and
    their values: each such row x equals a row of ``b`` by value, and its
    canonical maximum over ``b`` is c(x, x), its own squared float64 norm,
    which ``a_squares`` (``_squared_norms(a)``) holds; ``b_squares`` is
    ``_squared_norms(b)``. Each operand keeps its own precision.

    Let M be the largest row norm of ``b`` and d the width. For any y, x.y =
    (|x|**2 + |y|**2 - |x - y|**2) / 2, and a canonical value lies within
    gamma_d * |x| * |y| of the exact product (Higham, *Accuracy and
    Stability of Numerical Algorithms*, sec. 3.1), so c(x, y) <= c(x, x)
    whenever |x - y|**2 > T(x) = M**2 - |x|**2 + 2 * gamma_d * (|x| * M +
    |x|**2). ``reach`` is T padded by ``16 * gamma_(d+2) * (M**2 + |x|**2)``
    for the roundings of the norms, of T itself and of the distances below;
    a larger T only certifies fewer rows. The rows of ``b`` are sorted on
    the first coordinate of ``_spread_coords``: only those within
    sqrt(reach) of x on it can lie within reach of x, and the squared
    distance over the chosen coordinates bounds |x - y|**2 from below
    (partial-distance elimination; Bei and Gray, IEEE Trans. Commun., 1985).
    x is certified when exactly one row of ``b`` lies within that bound of
    it and that row equals x (``==``) in every coordinate: every other row
    of ``b`` is ruled out, and its copy gives c(x, x) bit for bit. Its
    products with x are those of x with itself but for the sign of a zero
    term, which moves no rounded partial sum but a zero one, and c(x, x) is
    at least ``_CHECK_RANGE[0] ** 2``, so not zero. A second copy, a near
    neighbour or a poor choice of coordinates leaves x to the screen, which
    changes speed, never a value.

    The check runs only when every norm of ``b`` is finite and at most
    ``_CHECK_RANGE[1]``, and reads only rows of ``a`` whose squared norm is
    at least ``_CHECK_RANGE[0] ** 2`` and equal to one of ``b`` (a copy's is),
    so no square or product it relies on overflows and underflow stays far
    below the padding; zero, NaN and uncopied rows go to the screen.
    Per block of ``_QUERY_BLOCK`` rows it holds at most ``max(16, len(b) //
    16)`` pairs per row; a row with a wider window goes to the screen.
    """
    none = np.empty(0, np.intp), np.empty(0)
    top2 = float(b_squares.max())
    if not (np.isfinite(b_squares).all() and top2 <= _CHECK_RANGE[1] ** 2):
        return none
    rows = np.flatnonzero((a_squares >= _CHECK_RANGE[0] ** 2) & np.isin(a_squares, b_squares))
    if rows.size == 0:
        return none
    coords = _spread_coords(b)
    keys = _wide(b[:, coords])
    order = np.argsort(keys[:, 0], kind="stable")
    sorted_t = np.ascontiguousarray(keys[order].T)
    pad = 16.0 * _gamma(a.shape[1] + 2)
    cap = max(16, b.shape[0] // 16)
    found, values = [none[0]], [none[1]]
    for lo in range(0, rows.size, _QUERY_BLOCK):
        at = rows[lo : lo + _QUERY_BLOCK]
        sq = a_squares[at]
        reach = (top2 - sq) + pad * (top2 + sq)
        x_t = _wide(a[np.ix_(at, coords)]).T
        half = np.sqrt(reach) * (1.0 + 2.0**-20) + 2.0**-50 * np.abs(x_t[0])
        start = np.searchsorted(sorted_t[0], x_t[0] - half, "left")
        sizes = np.searchsorted(sorted_t[0], x_t[0] + half, "right") - start
        sizes[sizes > cap] = 0
        owner = np.repeat(np.arange(sizes.size), sizes)
        col = np.arange(owner.size) + np.repeat(start - np.cumsum(sizes) + sizes, sizes)
        dist = np.zeros(owner.size)
        for xc, yc in zip(x_t, sorted_t):
            diff = xc[owner] - yc[col]
            dist += diff * diff
        inside = dist <= reach[owner]
        lone = np.flatnonzero(np.bincount(owner[inside], minlength=sizes.size) == 1)
        twin = np.empty(sizes.size, np.intp)
        twin[owner[inside]] = order[col[inside]]
        same = np.all(a[at[lone]] == b[twin[lone]], axis=1)
        found.append(at[lone[same]])
        values.append(sq[lone[same]])
    return np.concatenate(found), np.concatenate(values)


def best_similarity(reference, covering) -> np.ndarray:
    """Per-reference-point maximum canonical cosine over the covering set.

    Rows that ``_self_covered`` certifies take their own squared norm; every
    other row takes the maximum of its ``_screened_pairs``, its block of the
    reference gathered where it lies rather than copied out first. Each
    operand stays in its own precision, and its ``_squared_norms`` is taken
    once and serves both.
    """
    a = _own_precision(reference, "reference")
    if a.shape[0] == 0:
        raise ValidationError("reference set is empty")
    b = _own_precision(covering, "covering")
    a_squares, b_squares = _squared_norms(a), _squared_norms(b)
    rows = _screen_rows(a, "reference", np.sqrt(a_squares))
    others = _screen_rows(b, "covering", np.sqrt(b_squares))
    _paired(rows, others)
    covered, own = _self_covered(a, b, a_squares, b_squares)
    best = np.empty(a.shape[0])
    best[covered] = own
    rest = np.delete(np.arange(a.shape[0]), covered)
    if rest.size:
        best[rest] = np.concatenate([
            np.maximum.reduceat(values, starts)
            for starts, _, values in _screened_pairs(rows, others, subset=rest)
        ])
    return best


def _distinct_top(
    pool: _ScreenRows, queries, quotas, groups, ties
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per query j, in order: the first ``quotas[j]`` (at least 1) rows of
    the ``_screen_rows`` half ``pool`` by canonical similarity descending,
    ties by ``ties`` (one key per pool row) ascending, that no earlier query
    of group ``groups[j]`` took; all the rows left when fewer remain. A
    group's queries are consecutive, and its picks carry across blocks.
    Returns each query's rows and their canonical similarities, in that
    order. Rows and queries are finite.

    Each query's screen row comes from ``_screen_blocks``. Only the group's
    t earlier picks can be skipped, so the query reads at most B = quota +
    t positions of the canonical ranking. One ``np.partition`` at B gives
    its candidates, the columns not below B's floor, sorted by screen
    value: for every k <= B, the columns P_k that the bound keeps for k are
    a prefix of them, and g_k is the k-th. The first k positions of the
    ranking of P_k are those of the whole pool (the bound on
    ``_screen_blocks``), and at least k less the earlier picks in P_k of
    them are new. The query takes the least k at which that reaches its
    quota (k = B = len(pool) when none does: the pool runs out), rescores
    P_k once, ranks it and walks its first k positions, skipping earlier
    picks. That k exceeds the position of the quota-th new row only by
    earlier picks that P_k holds below it. No screen value leaves the
    kernel.
    """
    n = pool.vectors.shape[0]
    found = []
    group = None
    for block, screen, slack, b in _screen_blocks(_screen_rows(queries, "queries"), pool):
        for q, s, e in zip(_wide(block), screen, slack):
            j = len(found)
            quota = quotas[j]
            if groups[j] != group:
                group, seen, taken = groups[j], np.zeros(n, dtype=bool), 0
            budget = min(n, quota + taken)
            if budget < n:
                kth = np.partition(s, n - budget)[n - budget]
                cand = np.flatnonzero(~(s < _floor(kth, e, s.dtype)))
            else:
                cand = np.arange(n)
            cand = cand[np.argsort(-s[cand])]
            down = -s[cand]  # screen values, negated and ascending
            # ends[k - 1] is the prefix of ``cand`` that the bound keeps for k
            ends = np.searchsorted(down, -_floor(-down[:budget], e, s.dtype), "right")
            fresh = np.arange(1, budget + 1) - np.cumsum(seen[cand])[ends - 1]
            enough = np.flatnonzero(fresh >= quota)
            k = int(enough[0]) + 1 if enough.size else budget
            kept = cand[: ends[k - 1]]
            sims = _canonical_dots(b, kept, q)
            rank = np.lexsort((ties[kept], -sims))[:k]
            top = rank[~seen[kept[rank]]][:quota]
            rows = kept[top]
            seen[rows] = True
            taken += len(rows)
            found.append((rows, sims[top]))
    return found


def _gemv_spans(n: int, dim: int) -> list[tuple[int, int]]:
    """Row spans ``[lo, hi)`` of an n x dim matrix for ``_gemv_rows``.

    A BLAS GEMV over rows computes groups of four rows with one kernel and
    the last n mod 4 rows with another, and two threads split the rows in
    halves, so a row's bits depend on where it falls in the call. These
    spans keep every row where one single-threaded GEMV over all n rows puts
    it, and give each span the same bits at one and at two threads: full
    spans of a multiple of 64 rows, then one span of a multiple of 8 rows
    (an even split into groups of four), then the last 4 to 11 rows, which
    hold the n mod 4 tail rows. Fewer than 12 rows form one span. (A 484-row
    span, a multiple of 4 but not of 8, splits unevenly at two threads; a
    final span of one row computes other bits.)

    Three or more threads can still change the bits. OpenBLAS gives each
    thread ceil(rows / threads) rows of a call without rounding to four, so
    three threads cut a 512-row span into 171, 171 and 170 rows, and each
    such piece sends its last rows through the tail kernel. No span size
    splits evenly at every count. (Only one and two threads are tested.)
    """
    if n < 12:
        return [(0, n)]
    full = max(64, _GEMV_SPAN_BYTES // (8 * max(1, dim)) // 64 * 64)
    end = (n - 4) // full * full
    spans = [(lo, lo + full) for lo in range(0, end, full)]
    last = n - 4 - (n - end - 4) % 8
    if last > end:
        spans.append((end, last))
    spans.append((last, n))
    return spans


def _gemv_rows(matrix, vectors) -> np.ndarray:
    """``out[i] = matrix @ vectors[i]`` in float64, shape (len(vectors), len(matrix)).

    Row i is bit-identical to a single-threaded ``matrix.astype(np.float64)
    @ vectors[i]`` at one or two BLAS threads (not at more; see
    ``_gemv_spans``). The matrix is read once, in
    the row spans of ``_gemv_spans``: each span is widened from float32 once
    (float64 rows are not copied) and every vector is applied to it while it
    is in cache.
    """
    mat = np.asarray(matrix)
    vecs = np.ascontiguousarray(vectors, dtype=np.float64)
    out = np.empty((vecs.shape[0], mat.shape[0]))
    for lo, hi in _gemv_spans(*mat.shape):
        span = np.ascontiguousarray(mat[lo:hi], dtype=np.float64)
        for vec, row in zip(vecs, out):
            np.matmul(span, vec, out=row[lo:hi])
    return out


def coverage(reference, covering, mode: SimilarityMode = SimilarityMode.RAW_COSINE) -> CoverageValue:
    """Mean best similarity of reference points to the covering set."""
    best = best_similarity(reference, covering)
    shifted = mode.apply(best)
    m = shifted.shape[0]
    return CoverageValue(value=fsum(shifted.tolist()) / m, reference_size=m)


def facility_value(reference, selected, mode: SimilarityMode = SimilarityMode.RAW_COSINE) -> float:
    """Unnormalized coverage: sum over reference points of the best similarity.

    Defined as coverage times the reference size, exactly.
    """
    cov = coverage(reference, selected, mode)
    return cov.value * cov.reference_size


def marginal_gain(
    reference,
    selected,
    candidate,
    mode: SimilarityMode = SimilarityMode.RAW_COSINE,
) -> float:
    """Facility-value increase from adding ``candidate`` to ``selected``.

    Computed per reference point as max(0, sim(candidate) - prior best),
    summed exactly. With a nonempty selected set this equals
    ``facility_value(reference, selected + [candidate]) -
    facility_value(reference, selected)``; with an empty selected set the
    prior best is the mode's floor (-1 raw, 0 affine). Under
    ``AFFINE_SHIFTED`` the result is always >= 0.
    """
    ref = _vectors(reference, "reference")
    cand = _vectors(candidate, "candidate", ndim=1)
    after = mode.apply(best_similarity(ref, cand[None]))
    sel = np.asarray(selected, dtype=np.float64)
    if sel.size == 0:
        prior = np.full(ref.shape[0], mode.floor)
    else:
        prior = mode.apply(best_similarity(ref, sel))
    gain = np.maximum(0.0, after - prior)
    return fsum(gain.tolist())
