"""Similarity and coverage primitives shared by selection, retrieval, and metrics.

All inputs are unit-norm vectors, so cosine similarity is a plain dot
product. Coverage of a covering set over a reference set is the mean, over
reference points, of each point's best similarity to the covering set; the
facility value is the same quantity unnormalized.

Determinism contract: ``best_similarity`` is the only source of the
similarity values that ``coverage``, ``facility_value`` and ``marginal_gain``
reduce, and every value it returns is *canonical*: the dot product of two
rows as ``np.einsum("ij,ij->i", a, b)`` computes it, which does not depend
on which other rows share the call, on their order, or on the BLAS thread
count. It screens blocks of reference rows against the covering set with
one GEMM, whose values can move in the last bits with blocking and BLAS
threads. A GEMM value and a canonical value each lie within
gamma_d * |x| * |y| of the exact dot product (gamma_d = d*u / (1 - d*u),
u = 2**-53; Higham, *Accuracy and Stability of Numerical Algorithms*,
sec. 3.1), so the column with the largest canonical value is always among
the columns within 4 * gamma_(d+1) * |x| * max|y| of the row's GEMM
maximum; only those are rescored canonically. Each per-reference maximum is
therefore the exact maximum of canonical values over the whole covering
set: bit-identical under any chunking or ordering of either set and at any
BLAS thread count.
``_top_candidates``, the batched top-k that direct retrieval ranks by, keeps
the same contract: one GEMM screens each block of queries against the pool,
the same bound below each query's k-th GEMM value picks the rows to
rescore, and only canonical values are returned.
Sums over the reference set use ``math.fsum`` (exact compensated summation,
whose result is independent of summation order), so reference-set sizes up
to ~1e5 stay accurate to the last unit in the last place.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import fsum

import numpy as np

from .errors import ValidationError

# Bytes of GEMM output per best_similarity screen block, and of gathered rows
# per rescoring chunk in both kernels.
_SCREEN_BLOCK_BYTES = 4 << 20
_UNIT_ROUNDOFF = 2.0**-53
# Queries per `_top_candidates` screen: one pool pass for up to this many.
_QUERY_BLOCK = 256


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


def _matrix64(x, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be a 2-d vector set, got ndim={arr.ndim}")
    return arr


def _vector64(x, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a 1-d vector, got ndim={arr.ndim}")
    return arr


def cosine(a, b) -> float:
    """Cosine similarity of two unit vectors (their dot product)."""
    va = _vector64(a, "a")
    vb = _vector64(b, "b")
    if va.shape[0] != vb.shape[0]:
        raise ValidationError(
            f"dimension mismatch: {va.shape[0]} vs {vb.shape[0]}"
        )
    return float(va @ vb)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Canonical similarity of each row pair ``(a[i], b[i])``."""
    return np.einsum("ij,ij->i", a, b)


def _max_norm(x: np.ndarray) -> float:
    return float(np.sqrt(_row_dots(x, x).max()))


def _gamma(n: int) -> float:
    """``gamma_n = n*u / (1 - n*u)``: the relative error bound of n roundings."""
    return n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)


def _screen_slack(dim: int) -> float:
    """``4 * gamma_(d+1)``: times ``|x| * max|y|``, the widest gap between a
    GEMM value and the canonical value that can outrank it.

    A GEMM value and a canonical value each lie within ``gamma_d * |x| * |y|``
    of the exact dot product, so two of them can be ``2 * gamma_d`` apart
    each way; the extra unit in ``d + 1`` covers the rounding of the norms
    and of the threshold itself.
    """
    return 4.0 * _gamma(dim + 1)


def best_similarity(reference, covering) -> np.ndarray:
    """Per-reference-point maximum raw cosine over the covering set.

    Each block of reference rows is screened against the whole covering set
    with one GEMM. A row keeps its GEMM argmax and every column whose GEMM
    value is within ``_screen_slack(d) * |x_i| * max_j |y_j|`` of it, so the
    column with the largest canonical value is always kept. The row's result
    is the largest canonical value, ``np.einsum("ij,ij->i")``, among the kept
    columns; GEMM values are never returned. The result is therefore
    bit-identical under any chunking or ordering of either set and at any
    BLAS thread count.
    """
    ref = _matrix64(reference, "reference")
    cov = _matrix64(covering, "covering")
    if cov.shape[0] == 0:
        raise ValidationError("covering set is empty")
    if ref.shape[0] == 0:
        raise ValidationError("reference set is empty")
    if ref.shape[1] != cov.shape[1]:
        raise ValidationError(
            f"dimension mismatch: reference {ref.shape[1]} vs covering {cov.shape[1]}"
        )
    m, dim = ref.shape
    n = cov.shape[0]
    scale = _screen_slack(dim) * _max_norm(cov)
    # Rows per block: the GEMM output and the gathered winners each fit in the block.
    rows = max(1, _SCREEN_BLOCK_BYTES // (8 * max(n, dim)))
    pairs = max(1, _SCREEN_BLOCK_BYTES // (16 * dim))
    best = np.empty(m)
    for lo in range(0, m, rows):
        block = ref[lo : lo + rows]
        screen = block @ cov.T
        winner = screen.argmax(axis=1)
        local = np.arange(block.shape[0])
        floor = screen[local, winner] - scale * np.sqrt(_row_dots(block, block))
        near = screen >= floor[:, None]
        near[local, winner] = False
        out = best[lo : lo + rows]
        out[:] = _row_dots(block, cov[winner])
        ri, cj = np.nonzero(near)
        for p in range(0, ri.size, pairs):
            r, c = ri[p : p + pairs], cj[p : p + pairs]
            np.maximum.at(out, r, _row_dots(block[r], cov[c]))
    return best


def _top_candidates(pool, queries, budgets) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pool rows that may rank among each query's top ``budgets[j]`` by
    canonical similarity, with those similarities.

    Queries are screened against the pool with one GEMM per block of
    ``_QUERY_BLOCK`` queries, so the pool is read once per block and the
    screen holds at most ``_QUERY_BLOCK * len(pool)`` floats. Let
    k = ``budgets[j]``, g_k the k-th largest GEMM value of query j and
    e = ``gamma_d * |q_j| * max_i |x_i|``. The k rows with the largest
    GEMM values have canonical values of at least g_k - 2e, so the k-th
    largest canonical value c_k is at least that too, and any row whose
    canonical value reaches c_k has a GEMM value of at least
    c_k - 2e >= g_k - 4e. The candidates are therefore every row whose GEMM
    value is at least ``g_k - _screen_slack(d) * |q_j| * max_i |x_i|``.
    Returned per query: candidate row positions ascending and their
    canonical values, ``np.einsum("ij,ij->i")``. GEMM values are never
    returned, so ranking the candidates equals ranking the whole pool by
    canonical value, under any blocking and at any BLAS thread count.
    The caller passes a non-empty pool of the queries' dimension and
    budgets >= 1.
    """
    mat = _matrix64(pool, "pool")
    qs = _matrix64(queries, "queries")
    n, dim = mat.shape
    slack = _screen_slack(dim) * _max_norm(mat) * np.sqrt(_row_dots(qs, qs))
    rows = max(1, _SCREEN_BLOCK_BYTES // (8 * dim))
    found = []
    for j, budget in enumerate(budgets):
        if j % _QUERY_BLOCK == 0:
            screen = qs[j : j + _QUERY_BLOCK] @ mat.T
        values = screen[j % _QUERY_BLOCK]
        if budget >= n:
            cand = np.arange(n)
        else:
            kth = np.partition(values, n - budget)[n - budget]
            cand = np.flatnonzero(values >= kth - slack[j])
        sims = np.empty(cand.size)
        for lo in range(0, cand.size, rows):
            part = mat[cand[lo : lo + rows]]
            sims[lo : lo + rows] = _row_dots(part, np.broadcast_to(qs[j], part.shape))
        found.append((cand, sims))
    return found


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
    ref = _matrix64(reference, "reference")
    if ref.shape[0] == 0:
        raise ValidationError("reference set is empty")
    cand = _vector64(candidate, "candidate")
    if ref.shape[1] != cand.shape[0]:
        raise ValidationError(
            f"dimension mismatch: reference {ref.shape[1]} vs candidate {cand.shape[0]}"
        )
    sel = np.asarray(selected, dtype=np.float64)
    if sel.size == 0:
        prior = np.full(ref.shape[0], mode.floor)
    else:
        prior = mode.apply(best_similarity(ref, sel))
    gain = np.maximum(0.0, mode.apply(best_similarity(ref, cand[None])) - prior)
    return fsum(gain.tolist())
