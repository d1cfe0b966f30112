import json
import tracemalloc

import numpy as np
import pytest
from oracles import best_two_partition_cost, literal_kmeans, per_pair_labels
from probes import probe_digests
from test_geometry import _screens_used

from fedca import clustering, geometry
from fedca.clustering import (
    DEFAULT_MAX_ITERS,
    CandidateCenters,
    _inertia,
    _lloyd,
    assign_labels,
    kmeans,
)
from fedca.errors import ValidationError
from fedca.synthetic import random_unit_vectors


def _normalize(v):
    arr = np.asarray(v, dtype=np.float64)
    return (arr / np.linalg.norm(arr, axis=-1, keepdims=True)).astype(np.float32)


def _kmeans_inertia(points, k, seed, max_iters=DEFAULT_MAX_ITERS):
    """The inertia ``fedca cluster`` prints for this run."""
    return _inertia(points, *_lloyd(points, k, seed, max_iters))


def test_k_equals_n_gives_zero_inertia():
    pts = random_unit_vectors(6, 5, np.random.default_rng(1))
    result = kmeans(pts, k=6, seed=0)
    assert _kmeans_inertia(pts, k=6, seed=0) == pytest.approx(0.0, abs=1e-12)
    assert sorted(result.cluster_sizes.tolist()) == [1] * 6
    # centers are exactly the points, in some order
    got = {tuple(c) for c in result.centers.tolist()}
    want = {tuple(p) for p in pts.tolist()}
    assert got == want


def test_k_one_returns_renormalized_mean():
    pts = random_unit_vectors(10, 4, np.random.default_rng(2))
    result = kmeans(pts, k=1, seed=5)
    expected = _normalize(pts.astype(np.float64).mean(axis=0))
    np.testing.assert_allclose(result.centers[0], expected, atol=1e-6)
    assert result.cluster_sizes.tolist() == [10]


def test_two_blobs_match_exhaustive_partition():
    rng = np.random.default_rng(3)
    a = _normalize(np.array([1.0, 0, 0, 0]) + 0.05 * rng.standard_normal((3, 4)))
    b = _normalize(np.array([0, 0, 1.0, 0]) + 0.05 * rng.standard_normal((3, 4)))
    pts = np.concatenate([a, b])
    result = kmeans(pts, k=2, seed=7)
    labels = assign_labels(pts, result)
    # the two blobs end up in separate clusters
    assert len(set(labels[:3].tolist())) == 1
    assert len(set(labels[3:].tolist())) == 1
    assert labels[0] != labels[3]
    # and the achieved cost equals the exhaustive 2-coloring optimum
    inertia = _kmeans_inertia(pts, k=2, seed=7)
    assert inertia == pytest.approx(best_two_partition_cost(pts), abs=1e-9)
    for c in result.centers:
        assert np.linalg.norm(c.astype(np.float64)) == pytest.approx(1.0, abs=1e-6)


def test_errors():
    pts = random_unit_vectors(3, 4, np.random.default_rng(0))
    with pytest.raises(ValidationError, match="shrink k"):
        kmeans(pts, k=4, seed=0)
    with pytest.raises(ValidationError, match="empty"):
        kmeans(np.empty((0, 4)), k=1, seed=0)
    with pytest.raises(ValidationError):
        kmeans(pts, k=0, seed=0)


def test_determinism_bit_for_bit():
    pts = random_unit_vectors(40, 8, np.random.default_rng(4))
    a = kmeans(pts, k=5, seed=123)
    b = kmeans(pts, k=5, seed=123)
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.cluster_sizes, b.cluster_sizes)
    assert _kmeans_inertia(pts, k=5, seed=123) == _kmeans_inertia(pts, k=5, seed=123)
    c = kmeans(pts, k=5, seed=124)
    assert not np.array_equal(a.centers, c.centers)


def test_inertia_non_increasing_across_iterations():
    pts = random_unit_vectors(60, 6, np.random.default_rng(5))
    inertias = [_kmeans_inertia(pts, k=4, seed=9, max_iters=t) for t in range(1, 12)]
    for earlier, later in zip(inertias, inertias[1:]):
        assert later <= earlier + 1e-9


def test_centers_are_unit_norm():
    pts = random_unit_vectors(30, 7, np.random.default_rng(6))
    result = kmeans(pts, k=4, seed=11)
    norms = np.linalg.norm(result.centers.astype(np.float64), axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-6)
    assert int(result.cluster_sizes.sum()) == 30


def test_duplicate_points_saturated_k_does_not_crash():
    base = random_unit_vectors(3, 4, np.random.default_rng(7))
    pts = np.concatenate([base, base])  # duplicates
    result = kmeans(pts, k=6, seed=1)
    assert result.k == 6
    assert int(result.cluster_sizes.sum()) == 6


def test_assign_labels_exact_match_and_tie_break():
    centers = CandidateCenters(
        client_id=0,
        centers=np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], dtype=np.float32),
    )
    e3 = np.array([0, 0, 1, 0], dtype=np.float32)
    assert assign_labels(e3[None, :], centers).tolist() == [2]
    # equidistant between centers 0 and 1: documented tie-break to 0
    mid = _normalize(np.array([1.0, 1.0, 0.0, 0.0]))
    assert assign_labels(mid[None, :], centers).tolist() == [0]


def test_assign_labels_matches_linear_scan_oracle():
    rng = np.random.default_rng(8)
    pts = random_unit_vectors(50, 5, rng)
    centers = random_unit_vectors(7, 5, rng)
    got = assign_labels(pts, centers)
    for i, p in enumerate(pts.astype(np.float64)):
        sims = [float(np.dot(p, c)) for c in centers.astype(np.float64)]
        best = max(range(7), key=lambda j: (sims[j], -j))
        assert got[i] == best


def _near_tie_assignment(n, dim, dtype, seed):
    """``n`` random unit points in ``dtype`` and two float64 unit centers per
    point: one near the point and its mirror image in a random hyperplane
    through the point, so the point lies within a few ulps of equidistant to
    the pair, or exactly on it."""
    rng = np.random.default_rng(seed)
    pts = random_unit_vectors(n, dim, rng).astype(dtype)
    centers = []
    for x in pts.astype(np.float64):
        a = x + 0.5 * random_unit_vectors(1, dim, rng)[0].astype(np.float64)
        a /= np.linalg.norm(a)
        w = rng.standard_normal(dim)
        w -= (w @ x) / (x @ x) * x
        w /= np.linalg.norm(w)
        centers += [a, a - 2.0 * (a @ w) * w]
    return pts, np.array(centers)


def _canonical_rows(monkeypatch) -> list[int]:
    """Pairs given canonical values by each assignment while the list is live."""
    counts = []
    canonical = clustering._canonical_dots

    def spy(rows, at, *args):
        counts.append(len(at))
        return canonical(rows, at, *args)

    monkeypatch.setattr(clustering, "_canonical_dots", spy)
    return counts


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dim", [3, 64, 1024])
def test_assign_labels_equals_per_pair_oracle_on_near_ties(dim, dtype, monkeypatch):
    pts, centers = _near_tie_assignment(12, dim, dtype, 5 + dim)
    opened = _canonical_rows(monkeypatch)
    want = per_pair_labels(pts, centers)
    assert np.array_equal(assign_labels(pts, centers), want)
    assert opened and opened[0] >= 2 * 8  # most rows are decided by canonical values
    # float32 centers, bare and as CandidateCenters: no rounding to undo
    c32 = centers.astype(np.float32)
    want32 = per_pair_labels(pts, c32)
    assert np.array_equal(assign_labels(pts, c32), want32)
    assert np.array_equal(assign_labels(pts, CandidateCenters(0, c32)), want32)
    # labels are row-local
    perm = np.random.default_rng(dim).permutation(len(pts))
    assert np.array_equal(assign_labels(pts[perm], centers), want[perm])
    # a center of norm 2**-70 sends float32 points to a float64 screen; a
    # center of zero norm rounds to float32 exactly and keeps their SGEMM
    used = _screens_used(monkeypatch)
    for scale in (0.0, 2.0**-70):
        odd = np.concatenate([centers, scale * centers[:1]])
        assert np.array_equal(assign_labels(pts, odd), per_pair_labels(pts, odd))
    first = geometry._SINGLE_ROUNDOFF if dtype == np.float32 else geometry._UNIT_ROUNDOFF
    assert used == [first, geometry._UNIT_ROUNDOFF]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_assign_labels_takes_the_lowest_of_duplicate_centers(dtype):
    pts, centers = _near_tie_assignment(12, 64, dtype, 70)
    for dup in (np.concatenate([centers, centers]), np.repeat(centers, 2, axis=0)):
        got = assign_labels(pts, dup)
        assert np.array_equal(got, per_pair_labels(pts, dup))
    assert np.all(got % 2 == 0)
    # every point sits on a center twice over: a tie of exact equals
    assert assign_labels(pts, np.concatenate([pts[::-1], pts[::-1]])).tolist() == list(
        range(len(pts) - 1, -1, -1))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_assign_labels_with_one_center_gives_label_zero(dtype):
    pts, centers = _near_tie_assignment(12, 16, dtype, 71)
    assert assign_labels(pts, centers[:1]).tolist() == [0] * 12
    assert assign_labels(pts, pts[:1]).tolist() == [0] * 12


@pytest.mark.parametrize("case", ["d3-planted-f64", "d64-planted-f32", "d1024-planted-f32",
                                  "d1024-random-f64"])
def test_converged_kmeans_labels_equal_per_pair_oracle(case):
    make, k, max_iters = _BATTERY[case]
    pts = make(1)
    centers, labels = _lloyd(pts, k, 1, max_iters)
    assert literal_kmeans(pts, k, 1, max_iters)[3]["rounds"] < max_iters  # converged
    assert np.array_equal(labels, per_pair_labels(pts, centers))
    result = kmeans(pts, k, 1, max_iters)
    assert np.array_equal(assign_labels(pts, result), per_pair_labels(pts, result.centers))


# Planted float32 points with 50 float64 centers and, for one point of each
# cluster, the mirror image of its center in a hyperplane through that point.
_ASSIGN_THREAD_PROBE = """
import hashlib
import numpy as np
from fedca.clustering import assign_labels
rng = np.random.default_rng(11)
dirs = rng.standard_normal((50, 1024))
dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
pts = dirs[np.arange(5000) % 50] + 0.03 * rng.standard_normal((5000, 1024))
pts = (pts / np.linalg.norm(pts, axis=1, keepdims=True)).astype(np.float32)
x = pts[:50].astype(np.float64)
w = rng.standard_normal(x.shape)
w -= np.einsum("ij,ij->i", w, x)[:, None] / np.einsum("ij,ij->i", x, x)[:, None] * x
w /= np.linalg.norm(w, axis=1, keepdims=True)
centers = np.concatenate([dirs, dirs - 2.0 * np.einsum("ij,ij->i", dirs, w)[:, None] * w])
digest = hashlib.sha256()
for c in (centers, centers.astype(np.float32)):
    digest.update(assign_labels(pts, c).tobytes())
print(digest.hexdigest())
"""


def test_assign_labels_is_invariant_to_blas_threads():
    digests = probe_digests(_ASSIGN_THREAD_PROBE, threads=(1, 2, 4))
    assert len(set(digests)) == 1


@pytest.mark.parametrize("n, dim, k", [(1, 3, 1), (37, 5, 4), (200, 64, 9), (513, 1024, 16)])
def test_inertia_equals_the_three_temporary_sum_bitwise(n, dim, k):
    rng = np.random.default_rng(n + dim)
    pts = random_unit_vectors(n, dim, rng).astype(np.float64)
    centers = random_unit_vectors(k, dim, rng).astype(np.float64)
    labels = rng.integers(0, k, size=n)
    diff = pts - centers[labels]
    assert _inertia(pts, centers, labels) == float(np.sum(diff * diff))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kmeans_inertia_is_the_sum_over_its_own_centers(seed):
    # With no update round the centers are input points, so the float32
    # centers returned are the float64 centers inertia was taken over.
    rng = np.random.default_rng(40 + seed)
    pts = random_unit_vectors(300, 48, rng)
    result = kmeans(pts, k=12, seed=seed, max_iters=0)
    centers = result.centers.astype(np.float64)
    labels = assign_labels(pts, centers)
    diff = pts.astype(np.float64) - centers[labels]
    assert _kmeans_inertia(pts, k=12, seed=seed, max_iters=0) == float(np.sum(diff * diff))
    assert result.cluster_sizes.tolist() == np.bincount(labels, minlength=12).tolist()


def test_kmeans_holds_no_float64_copy_of_its_points():
    pts = random_unit_vectors(10_000, 256, np.random.default_rng(12))
    tracemalloc.start()
    try:
        kmeans(pts, k=20, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < pts.size * 8 / 4  # a float64 copy would take pts.size * 8 bytes


def test_kmeans_rejects_nan_points():
    pts = np.eye(4)
    pts[2] = np.nan
    with pytest.raises(ValidationError, match="points have non-finite values"):
        kmeans(pts, k=2, seed=0)


def test_assign_labels_rejects_non_finite_points_and_centers():
    good = np.eye(4)
    nan_row = good.copy()
    nan_row[2] = np.nan
    with pytest.raises(ValidationError, match="points have non-finite values"):
        assign_labels(nan_row, good)
    with pytest.raises(ValidationError, match="centers have non-finite values"):
        assign_labels(good, nan_row)
    inf_row = good.copy()
    inf_row[1, 3] = np.inf
    with pytest.raises(ValidationError, match="centers have non-finite values"):
        assign_labels(good, CandidateCenters(0, inf_row.astype(np.float32)))


# ------------------------------------------------- the loop against the literal one


def _planted(n, dim, n_true, noise, dtype, seed):
    """Unit rows scattered around ``n_true`` random directions."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_true, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    pts = centers[rng.integers(n_true, size=n)] + noise * rng.standard_normal((n, dim))
    return (pts / np.linalg.norm(pts, axis=1, keepdims=True)).astype(dtype)


def _antipodal(m, extra, dim, seed):
    """``m`` random unit rows, each followed by its negation, then the first
    ``extra`` rows again: clusters that sum to exactly zero, and duplicates."""
    x = _planted(m, dim, m, 0.0, np.float64, seed)
    return np.concatenate([np.stack([x, -x], axis=1).reshape(-1, dim), x[:extra]])


def _repeated(distinct, times, dim, seed):
    return np.tile(random_unit_vectors(distinct, dim, np.random.default_rng(seed)), (times, 1))


_BATTERY = {
    "d3-planted-f64": (lambda s: _planted(300, 3, 4, 0.3, np.float64, s), 12, DEFAULT_MAX_ITERS),
    "d64-planted-f32": (lambda s: _planted(600, 64, 8, 0.4, np.float32, s), 25, DEFAULT_MAX_ITERS),
    "d1024-planted-f32": (lambda s: _planted(400, 1024, 10, 0.02, np.float32, s), 10,
                          DEFAULT_MAX_ITERS),
    "d1024-random-f64": (lambda s: random_unit_vectors(200, 1024, np.random.default_rng(s))
                         .astype(np.float64), 16, DEFAULT_MAX_ITERS),
    "antipodal-duplicates-repairs": (lambda s: _antipodal(11, 5, 3, s), 26, DEFAULT_MAX_ITERS),
    "antipodal-k1-zero-norm": (lambda s: _antipodal(6, 0, 3, s), 1, DEFAULT_MAX_ITERS),
    "duplicates": (lambda s: _repeated(5, 4, 64, s), 8, DEFAULT_MAX_ITERS),
    # a repair takes a point from a cluster that nothing else changed
    "duplicates-repair-donors": (lambda s: _repeated(6, 3, 3, s), 11, DEFAULT_MAX_ITERS),
    "duplicates-k-equals-n": (lambda s: _repeated(3, 2, 16, s), 6, DEFAULT_MAX_ITERS),
    "k-equals-n": (lambda s: random_unit_vectors(12, 64, np.random.default_rng(s)), 12,
                   DEFAULT_MAX_ITERS),
    "k1-d64": (lambda s: random_unit_vectors(50, 64, np.random.default_rng(s)), 1,
               DEFAULT_MAX_ITERS),
    **{f"max-iters-{t}": (lambda s: _planted(500, 64, 6, 0.5, np.float32, s), 20, t)
       for t in range(4)},
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("case", sorted(_BATTERY))
def test_kmeans_is_bitwise_the_literal_loop(case, seed):
    make, k, max_iters = _BATTERY[case]
    pts = make(seed)
    want_centers, want_labels, want_inertia, _ = literal_kmeans(pts, k, seed, max_iters)
    centers, labels = _lloyd(pts, k, seed, max_iters)
    assert centers.dtype == np.float64
    assert centers.tobytes() == want_centers.tobytes()
    assert np.array_equal(labels, want_labels)
    result = kmeans(pts, k, seed, max_iters)
    assert result.centers.tobytes() == want_centers.astype(np.float32).tobytes()
    assert result.cluster_sizes.tolist() == np.bincount(want_labels, minlength=k).tolist()
    assert np.array_equal(result.labels, want_labels)
    # the bytes fedca cluster prints
    got = json.dumps(_kmeans_inertia(pts, k, seed, max_iters))
    assert got == json.dumps(want_inertia)


def test_battery_reaches_repairs_and_zero_norm_means():
    make, k, _ = _BATTERY["antipodal-duplicates-repairs"]
    # repairs after an update round, not only after seeding
    assert any(literal_kmeans(make(s), k, s)[3]["repairs"]
               > literal_kmeans(make(s), k, s, max_iters=0)[3]["repairs"] for s in range(4))
    make, k, _ = _BATTERY["antipodal-k1-zero-norm"]
    assert all(literal_kmeans(make(s), k, s)[3]["zero_norms"] > 0 for s in range(4))
    make, k, _ = _BATTERY["duplicates"]
    assert all(literal_kmeans(make(s), k, s, max_iters=0)[3]["repairs"] > 0 for s in range(4))


@pytest.mark.parametrize("seed", range(6))
def test_repairs_leave_no_cluster_empty_on_duplicates_with_k_equal_to_n(seed):
    # Three random unit vectors, each given twice, in six clusters: every
    # point sits on its center, so every distance a repair ranks is zero.
    pts = _repeated(3, 2, 16, seed)
    result = kmeans(pts, 6, seed)
    assert result.cluster_sizes.tolist() == [1] * 6
    assert len(np.unique(result.centers, axis=0)) == 3
    _, labels, _, _ = literal_kmeans(pts, 6, seed)
    assert np.bincount(labels, minlength=6).tolist() == [1] * 6


def test_converging_run_recomputes_fewer_means_than_rounds_times_k(monkeypatch):
    recomputed = []
    update = clustering._update

    def spy(pts, labels, centers, clusters):
        recomputed.append(len(clusters))
        update(pts, labels, centers, clusters)

    monkeypatch.setattr(clustering, "_update", spy)
    k = 40
    kmeans(_planted(2000, 16, 10, 0.5, np.float32, 3), k, seed=1)
    rounds = len(recomputed)
    assert 2 < rounds < DEFAULT_MAX_ITERS  # converged
    assert recomputed[0] == k
    assert sum(recomputed) < rounds * k
