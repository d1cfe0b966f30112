"""Seeded k-means over unit-norm embeddings.

Lloyd iterations with D^2 (k-means++ style) initialization, driven entirely
by one integer seed: identical inputs and seed give bit-identical centers.
Distance is squared Euclidean, which on unit vectors orders the same way as
cosine. Centroid updates take the per-cluster mean and re-normalize it to
unit length; on the sphere that renormalized mean is the in-cluster SSE
minimizer, so inertia is non-increasing across iterations.

Update rule: the first update re-centers every cluster; each later update
re-centers only the clusters that a point entered or left since the one
before, by assignment or by an empty-cluster repair. Every other center
keeps its bits, because its mean would run over the same rows in the same
order. Members are gathered in point order through one stable sort of the
labels; the mean is ``np.add.reduce(members, axis=0) / count`` and its norm
``sqrt(mean . mean)``, the operations ``ndarray.mean`` and
``np.linalg.norm`` run. So the centers are bit for bit those of
re-centering every cluster with those calls in every update.

Inertia rule: :func:`kmeans` does not compute inertia, since nothing in
the pipeline reads it; ``fedca cluster`` prints it. It is
``np.sum((pts - centers[labels]) ** 2)`` over the float64 points, the
float64 centers (before the float32 rounding :func:`kmeans` returns) and
the final labels (:func:`_inertia`).

Degenerate-case rules:

* empty cluster: its center is re-seeded to the point currently farthest
  from its assigned center (ties to the lowest point index) among the points
  that share their cluster with another point. So each empty cluster takes
  a distinct point, never a cluster's last member, and none is left empty;
* zero-norm mean (antipodal cluster): the previous center is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import _row_norms, _vectors

DEFAULT_MAX_ITERS = 100
_UNIT_TOLERANCE = 1e-3


@dataclass
class CandidateCenters:
    """Per-client k-means output: centroids plus bookkeeping.

    ``cluster_sizes`` is filled by :func:`kmeans`; centers loaded back from
    files carry ``None``.
    """

    client_id: int
    centers: np.ndarray  # (k, dim) float32, unit rows
    cluster_sizes: np.ndarray | None = None

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]


def _points64(points) -> np.ndarray:
    pts = _vectors(points, "points")
    if pts.shape[0] == 0:
        raise ValidationError("cannot cluster an empty point set")
    norms = _row_norms(pts)
    if not np.isfinite(norms).all():
        raise ValidationError("points have non-finite values")
    if np.any(np.abs(norms - 1.0) > _UNIT_TOLERANCE):
        raise ValidationError("points must be unit-norm")
    return pts


def _plus_plus_init(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = pts.shape[0]
    chosen = [int(rng.integers(n))]
    # squared Euclidean distance on unit vectors: 2 - 2 * cosine
    d2 = np.maximum(0.0, 2.0 - 2.0 * (pts @ pts[chosen[0]]))
    for _ in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            # all remaining mass is on duplicates of chosen points; take the
            # lowest unchosen index deterministically
            taken = set(chosen)
            nxt = next(i for i in range(n) if i not in taken)
        else:
            nxt = int(rng.choice(n, p=d2 / total))
        chosen.append(nxt)
        np.minimum(d2, np.maximum(0.0, 2.0 - 2.0 * (pts @ pts[nxt])), out=d2)
    return pts[chosen].copy()


def _assign(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # argmax of cosine == argmin of Euclidean for unit rows; argmax breaks
    # ties toward the lowest center index
    return np.argmax(pts @ centers.T, axis=1)


def _repair_empty(pts: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> np.ndarray:
    k = centers.shape[0]
    counts = np.bincount(labels, minlength=k)
    if not np.any(counts == 0):
        return labels
    labels = labels.copy()
    d2 = np.maximum(0.0, 2.0 - 2.0 * np.einsum("ij,ij->i", pts, centers[labels]))
    for j in np.nonzero(counts == 0)[0]:
        # a point alone in its cluster, one moved here included, stays put
        far = int(np.argmax(np.where(counts[labels] > 1, d2, -1.0)))
        centers[j] = pts[far]
        counts[labels[far]] -= 1
        labels[far] = j
        counts[j] = 1
    return labels


def _touched(labels: np.ndarray, assigned: np.ndarray, repaired: np.ndarray) -> np.ndarray:
    """Clusters that a point left or entered on the way from ``labels``,
    through assignment (``assigned``), to repair (``repaired``). A point that
    assignment moves out and repair moves back still counts: the repair
    moved that cluster's center onto it."""
    moved = (labels != assigned) | (assigned != repaired)
    return np.unique(np.concatenate((labels[moved], repaired[moved])))


def _update(
    pts: np.ndarray, labels: np.ndarray, centers: np.ndarray, clusters: np.ndarray
) -> None:
    """Re-center each of ``clusters`` in place on its renormalized member
    mean; an empty cluster or a zero-norm mean keeps its center."""
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(np.bincount(labels, minlength=centers.shape[0])).tolist()
    for j in clusters.tolist():
        start = ends[j - 1] if j else 0
        if start == ends[j]:
            continue
        mean = np.add.reduce(pts[order[start:ends[j]]], axis=0) / (ends[j] - start)
        norm = math.sqrt(mean.dot(mean))
        if norm > 0.0:
            centers[j] = mean / norm


def _inertia(pts: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> float:
    """``np.sum((pts - centers[labels]) ** 2)`` through one n x d temporary,
    subtracted and squared in place: the same elements, so the same sum."""
    diff = centers[labels]
    np.subtract(pts, diff, out=diff)
    np.multiply(diff, diff, out=diff)
    return float(np.sum(diff))


def _lloyd(
    points, k: int, seed: int, max_iters: int = DEFAULT_MAX_ITERS
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The float64 points, the float64 centers and the final labels of
    :func:`kmeans`; ``fedca cluster`` takes its inertia over them."""
    pts = _points64(points)
    n = pts.shape[0]
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if k > n:
        raise ValidationError(f"k={k} exceeds the number of points ({n}); shrink k")

    rng = np.random.default_rng(seed)
    centers = _plus_plus_init(pts, k, rng)
    labels = _assign(pts, centers)
    labels = _repair_empty(pts, centers, labels)
    stale = np.arange(k)
    for _ in range(max_iters):
        _update(pts, labels, centers, stale)
        assigned = _assign(pts, centers)
        new_labels = _repair_empty(pts, centers, assigned)
        if np.array_equal(new_labels, labels):
            break
        stale = _touched(labels, assigned, new_labels)
        labels = new_labels
    return pts, centers, labels


def kmeans(
    points,
    k: int,
    seed: int,
    max_iters: int = DEFAULT_MAX_ITERS,
    client_id: int = 0,
) -> CandidateCenters:
    """Cluster unit vectors into ``k`` groups, deterministically.

    Raises if ``k`` exceeds the point count (the caller must shrink ``k``)
    or the input is empty or non-finite. Terminates at an assignment
    fixpoint or after ``max_iters`` update rounds.
    """
    _, centers, labels = _lloyd(points, k, seed, max_iters)
    return CandidateCenters(
        client_id=client_id,
        centers=centers.astype(np.float32),
        cluster_sizes=np.bincount(labels, minlength=k),
    )


def assign_labels(points, centers: CandidateCenters | np.ndarray) -> np.ndarray:
    """Label each point by its nearest center (cosine), ties to lowest index.

    Raises if either input holds a NaN or an infinity.
    """
    pts = _vectors(points, "points")
    cmat = _vectors(centers.centers if isinstance(centers, CandidateCenters) else centers,
                    "centers")
    if pts.shape[1] != cmat.shape[1]:
        raise ValidationError(
            f"dimension mismatch: points {pts.shape[1]} vs centers {cmat.shape[1]}"
        )
    for arr, name in ((pts, "points"), (cmat, "centers")):
        if not np.isfinite(arr).all():
            raise ValidationError(f"{name} have non-finite values")
    return _assign(pts, cmat)
