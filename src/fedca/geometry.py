"""Similarity and coverage primitives shared by selection, retrieval, and metrics.

All inputs are unit-norm vectors, so cosine similarity is a plain dot
product. Coverage of a covering set over a reference set is the mean, over
reference points, of each point's best similarity to the covering set; the
facility value is the same quantity unnormalized.

Determinism contract: per-reference maxima are accumulated one covering
vector at a time (an exact reduction, so any chunking of the covering set
yields bit-identical maxima), and sums over the reference set use
``math.fsum`` (exact compensated summation, whose result is independent of
summation order). Reference-set sizes up to ~1e5 therefore stay accurate to
the last unit in the last place.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import fsum

import numpy as np

from .errors import ValidationError


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


def best_similarity(reference, covering) -> np.ndarray:
    """Per-reference-point maximum raw cosine over the covering set.

    The reduction runs one covering vector at a time; because max is exact,
    the result is bit-identical under any chunking or ordering of the
    covering set.
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
    best = ref @ cov[0]
    for j in range(1, cov.shape[0]):
        np.maximum(best, ref @ cov[j], out=best)
    return best


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
    gain = np.maximum(0.0, mode.apply(ref @ cand) - prior)
    return fsum(gain.tolist())
