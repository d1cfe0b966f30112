"""Seeded k-means over unit-norm embeddings.

Lloyd iterations with D^2 (k-means++ style) initialization, driven entirely
by one integer seed: identical inputs and seed give bit-identical centers.
Distance is squared Euclidean, which on unit vectors orders the same way as
cosine. Centroid updates take the per-cluster mean and re-normalize it to
unit length; on the sphere that renormalized mean is the in-cluster SSE
minimizer, so inertia is non-increasing across iterations.

Dtype rule: float32 points (store rows, ICACS's canonicalized sets, client
sets) are clustered in float32; any other input is widened to float64.
:func:`_lloyd` holds no other copy of the points: it widens the seeded rows,
each cluster's gathered members in an update and, for an empty-cluster
repair, the rows ``_canonical_dots`` gathers. Widening is exact, so the
centers are float64 and have the bits a float64 copy of the points gives
them.

Seeding rule: the first center is a uniform draw; each later one is drawn
with probability proportional to D^2 = max(0, 2 - 2 * s), s a point's
largest similarity to a chosen center, from one GEMV per chosen center in
the points' precision, widened to float64 before ``rng.choice``. (float32
and float64 GEMVs pick another point only when the draw lands within about
1e-7 of a cumulative-D^2 boundary.)

Assignment rule: a point's label is the lowest index of the centers whose
canonical similarity to it (``fedca.geometry``'s value contract) is largest.
:func:`_assign` screens every point against every center with ``geometry``'s
one screen set-up, from the points' half, which :func:`_lloyd` makes once,
and the centers' half, made once per assignment (a zero center rounds to
float32 exactly, so float32 points keep their SGEMM); it settles each point
whose best screen entry beats every other entry by more than the slack, and
computes canonical values only for the others (the bound on
``geometry._screen_blocks``, k = 1). So labels do not depend on the BLAS
thread count.

Update rule: the first update re-centers every cluster; each later update
re-centers only the clusters that a point entered or left since the one
before, by assignment or by an empty-cluster repair. Every other center
keeps its bits, because its mean would run over the same rows in the same
order. Members are gathered in point order through one stable sort of the
labels and widened, and ``np.add.reduce(members, axis=0)`` writes their sum
into the cluster's float64 row; all re-centered sums are then divided by
their counts in one step. So each mean is ``np.add.reduce(members, axis=0)
/ count``, the operation ``ndarray.mean`` runs, and one
``geometry._row_norms`` call takes the canonical norm of every re-centered
mean. So the centers are bit
for bit those of re-centering every cluster with those calls in every
update, and do not depend on the BLAS thread count given the seeded
centers.

Inertia rule: :func:`kmeans` does not compute inertia, since nothing in
the pipeline reads it; ``fedca cluster`` prints it. It is
``np.sum((pts - centers[labels]) ** 2)`` over the points widened to
float64, the float64 centers (before the float32 rounding :func:`kmeans`
returns) and the final labels (:func:`_inertia`).

Result rule: :func:`kmeans` returns the float32 centers and the labels of
the loop's last assignment and empty-cluster repair, which were taken
against the float64 centers it rounds; ``cluster_sizes`` is their bincount,
so the sizes and the labels cannot disagree.

Degenerate-case rules:

* empty cluster: its center is re-seeded to the point currently farthest
  from its assigned center (ties to the lowest point index) among the points
  that share their cluster with another point. So each empty cluster takes
  a distinct point, never a cluster's last member, and none is left empty;
* zero-norm mean (antipodal cluster): the previous center is kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import (
    _canonical_dots,
    _own_precision,
    _row_norms,
    _screen_gemm,
    _screen_operands,
    _screen_rows,
    _ScreenRows,
    _wide,
)

DEFAULT_MAX_ITERS = 100
_UNIT_TOLERANCE = 1e-3


@dataclass
class CandidateCenters:
    """Per-client k-means output: centroids plus bookkeeping.

    ``labels`` (one cluster index per point, in point order) is filled by
    :func:`kmeans`; centers loaded back from files carry ``None``.
    """

    client_id: int
    centers: np.ndarray  # (k, dim) float32, unit rows
    labels: np.ndarray | None = None

    @property
    def cluster_sizes(self) -> np.ndarray | None:
        """Points per cluster, ``bincount(labels, minlength=k)``; None without labels."""
        return None if self.labels is None else np.bincount(self.labels, minlength=self.k)

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]


def _points(points) -> _ScreenRows:
    """The points' half of every assignment screen (``geometry._screen_rows``)."""
    rows = _screen_rows(points, "points")
    if rows.vectors.shape[0] == 0:
        raise ValidationError("cannot cluster an empty point set")
    if not np.isfinite(rows.norms).all():
        raise ValidationError("points have non-finite values")
    if np.any(np.abs(rows.norms - 1.0) > _UNIT_TOLERANCE):
        raise ValidationError("points must be unit-norm")
    return rows


def _plus_plus_init(pts: np.ndarray, k: int, rng: np.random.Generator) -> list[int]:
    """The indices of the ``k`` seeded centers (the seeding rule)."""
    n = pts.shape[0]

    def d2_to(i: int) -> np.ndarray:
        # squared Euclidean distance on unit vectors: 2 - 2 * cosine
        return np.maximum(0.0, 2.0 - 2.0 * _wide(pts @ pts[i]))

    chosen = [int(rng.integers(n))]
    d2 = d2_to(chosen[0])
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
        np.minimum(d2, d2_to(nxt), out=d2)
    return chosen


def _assign(pts: _ScreenRows, centers: np.ndarray) -> np.ndarray:
    """The label of every row x of ``pts.vectors``: the lowest index of the
    ``centers`` whose canonical similarity to x is largest.

    One ``_screen_gemm``, set up from the points' half ``pts`` and the
    centers' half that ``geometry._screen_rows`` makes here, screens every
    point against every center. By the bound on
    ``geometry._screen_blocks`` (k = 1), a column holding the row's largest
    canonical value has a screen value not below floor, the row's best screen
    entry less its slack, in the screen's dtype. A row with one such column
    takes it; the others take the lowest of those columns that holds the
    largest of their canonical values (``_canonical_dots``).
    """
    a, b, slack = _screen_operands(pts, _screen_rows(centers, "centers"))
    screen = _screen_gemm(a, b)
    n, k = screen.shape
    best = screen.argmax(axis=1)
    floor = screen.ravel()[best + np.arange(0, n * k, k)] - slack
    below = screen < floor.astype(screen.dtype)[:, None]
    if np.count_nonzero(below) == n * (k - 1):  # one column per row is not below
        return best
    at, cols = np.divmod(np.flatnonzero(~below), k)
    open_ = np.bincount(at, minlength=n)[at] > 1
    at, cols = at[open_], cols[open_]
    order = np.lexsort((cols, -_canonical_dots(pts.vectors, at, centers, cols), at))
    first = order[np.append(True, np.diff(at[order]) != 0)]
    best[at[first]] = cols[first]
    return best


def _repair_empty(pts: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> np.ndarray:
    k = centers.shape[0]
    counts = np.bincount(labels, minlength=k)
    if counts.all():
        return labels
    labels = labels.copy()
    sims = _canonical_dots(pts, np.arange(len(labels)), centers, labels)
    d2 = np.maximum(0.0, 2.0 - 2.0 * sims)
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
    return np.flatnonzero(np.bincount(np.concatenate((labels[moved], repaired[moved]))))


def _update(
    pts: np.ndarray, labels: np.ndarray, centers: np.ndarray, clusters: np.ndarray
) -> None:
    """Re-center each of ``clusters`` in place on its renormalized member
    mean; an empty cluster or a zero-norm mean keeps its center."""
    order = np.argsort(labels, kind="stable")
    counts = np.bincount(labels, minlength=centers.shape[0])
    ends = np.cumsum(counts)
    live = clusters[counts[clusters] > 0]
    means = np.empty((len(live), centers.shape[1]))
    for mean, j in zip(means, live.tolist()):
        np.add.reduce(_wide(pts[order[ends[j] - counts[j] : ends[j]]]), axis=0, out=mean)
    means /= counts[live, None]
    norms = _row_norms(means)
    moved = norms > 0.0
    centers[live[moved]] = means[moved] / norms[moved, None]


def _inertia(pts: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> float:
    """``np.sum((pts - centers[labels]) ** 2)`` through one n x d temporary,
    subtracted and squared in place: the same elements, so the same sum."""
    diff = centers[labels]
    np.subtract(pts, diff, out=diff)
    np.multiply(diff, diff, out=diff)
    return float(np.sum(diff))


def _lloyd(
    points, k: int, seed: int, max_iters: int = DEFAULT_MAX_ITERS
) -> tuple[np.ndarray, np.ndarray]:
    """The float64 centers and the final labels of :func:`kmeans`;
    ``fedca cluster`` takes its inertia over them."""
    rows = _points(points)
    pts = rows.vectors
    n = pts.shape[0]
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if k > n:
        raise ValidationError(f"k={k} exceeds the number of points ({n}); shrink k")

    centers = _wide(pts[_plus_plus_init(pts, k, np.random.default_rng(seed))])
    labels = _repair_empty(pts, centers, _assign(rows, centers))
    stale = np.arange(k)
    for _ in range(max_iters):
        _update(pts, labels, centers, stale)
        assigned = _assign(rows, centers)
        new_labels = _repair_empty(pts, centers, assigned)
        if (new_labels == labels).all():
            break
        stale = _touched(labels, assigned, new_labels)
        labels = new_labels
    return centers, labels


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
    fixpoint or after ``max_iters`` update rounds. The result carries the
    final labels (the result rule).
    """
    centers, labels = _lloyd(points, k, seed, max_iters)
    return CandidateCenters(client_id, centers.astype(np.float32), labels)


def assign_labels(points, centers: CandidateCenters | np.ndarray) -> np.ndarray:
    """Label each point by its nearest center (cosine), ties to lowest index:
    the assignment rule, on each input in its own precision (the dtype rule).

    Raises if either input holds a NaN or an infinity, or if the centers set
    is empty or of another width; an empty point set gets no labels.
    """
    rows = _screen_rows(points, "points")
    cmat = _own_precision(
        centers.centers if isinstance(centers, CandidateCenters) else centers, "centers")
    for arr, name in ((rows.vectors, "points"), (cmat, "centers")):
        if not np.isfinite(arr).all():
            raise ValidationError(f"{name} have non-finite values")
    return _assign(rows, cmat)
