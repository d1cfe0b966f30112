import math

import numpy as np
import pytest
from oracles import full_sort_retrieval, naive_direct_retrieval
from probes import probe_digests

from fedca import geometry
from fedca.augment import (
    data_select,
    direct_retrieval_augment,
    feddca_augment,
    random_sampling_augment,
    retrieve_topk,
)
from fedca.clustering import CandidateCenters
from fedca.errors import ValidationError
from fedca.geometry import CoverageValue, SimilarityMode
from fedca.selection import CenterSelection, SelectedCenter, greedy_select
from fedca.store import EmbeddingStore
from fedca.synthetic import random_selection_problem, random_store, random_unit_vectors


def _store_from(vectors, ids=None, domain="d"):
    vecs = np.asarray(vectors, dtype=np.float32)
    ids = list(range(len(vecs))) if ids is None else ids
    return EmbeddingStore(vecs.shape[1], ids, [domain] * len(vecs), vecs)


def test_exact_match_is_rank_one():
    pool = random_store(20, 6, seed=1)
    query = pool.vectors[7]
    result = retrieve_topk(pool, query, 3)
    assert result.hits[0][0] == int(pool.ids[7])
    assert result.hits[0][1] == pytest.approx(1.0, abs=1e-6)


def test_k_larger_than_pool_returns_all_sorted():
    pool = random_store(5, 4, seed=2)
    result = retrieve_topk(pool, pool.vectors[0], 50)
    assert len(result.hits) == 5
    assert result.shortfall == 45
    sims = result.sims()
    assert sims == sorted(sims, reverse=True)


def test_threshold_excludes_before_topk():
    # pool engineered to similarities {0.9, 0.6, 0.3} against the query e1
    def at_angle(c):
        v = np.array([c, np.sqrt(1 - c * c), 0.0, 0.0])
        return v
    pool = _store_from([at_angle(0.9), at_angle(0.6), at_angle(0.3)], ids=[10, 11, 12])
    query = np.array([1, 0, 0, 0], dtype=np.float32)
    result = retrieve_topk(pool, query, 2, threshold=0.7)
    assert result.ids() == [11, 12]
    assert all(s <= 0.7 for s in result.sims())
    # unfiltered oracle agrees once the filtered record is dropped
    oracle = full_sort_retrieval(pool.ids, pool.vectors, query, 2, threshold=0.7)
    assert result.ids() == [i for _, i in oracle]


def test_retrieval_matches_full_sort_oracle():
    rng = np.random.default_rng(5)
    pool = random_store(80, 8, seed=3)
    for _ in range(50):
        query = random_unit_vectors(1, 8, rng)[0]
        k = int(rng.integers(1, 20))
        result = retrieve_topk(pool, query, k)
        oracle = full_sort_retrieval(pool.ids, pool.vectors, query, k)
        assert result.ids() == [i for _, i in oracle]
        np.testing.assert_allclose(result.sims(), [s for s, _ in oracle], atol=1e-12)


@pytest.mark.parametrize("k", [1, 150, 299, 300, 301, 450, 899, 900, 2000])
def test_topk_cut_inside_a_tie_keeps_lowest_ids(k):
    # one-hot rows give exact similarities, so 300 records tie on each value
    rng = np.random.default_rng(31)
    vectors = np.repeat(np.eye(4)[:3], 300, axis=0)
    pool = _store_from(vectors, ids=rng.permutation(10_000)[:900].tolist())
    query = np.array([0.5, 0.75, 0.25, np.sqrt(1 - 0.875)], dtype=np.float32)
    for threshold in (None, 0.6):
        result = retrieve_topk(pool, query, k, threshold)
        oracle = full_sort_retrieval(pool.ids, pool.vectors, query, k, threshold)
        assert result.hits == [(i, s) for s, i in oracle]


def test_threshold_monotonicity():
    pool = random_store(60, 6, seed=4)
    query = random_unit_vectors(1, 6, np.random.default_rng(9))[0]
    prev_top = None
    for alpha in (0.9, 0.5, 0.1, -0.5):
        result = retrieve_topk(pool, query, 10, threshold=alpha)
        if result.hits:
            assert result.hits[0][1] <= alpha + 1e-12
            if prev_top is not None:
                assert result.hits[0][1] <= prev_top + 1e-12
            prev_top = result.hits[0][1]


def test_feddca_augment_counts_and_purity():
    problem = random_selection_problem(4, 2, 8, seed=6, mode=SimilarityMode.AFFINE_SHIFTED)
    selection = greedy_select(problem)
    pool = random_store(100, 8, seed=7)
    results = feddca_augment(pool, selection, per_client=15, threshold=None)
    assert len(results) == 4
    assert all(len(r.hits) == 15 for r in results)
    # keyed by slot's client of origin, in slot order
    assert [r.client_id for r in results] == [s.client for s in selection.slots]
    # pure function of its inputs
    again = feddca_augment(pool, selection, per_client=15, threshold=None)
    assert [r.hits for r in again] == [r.hits for r in results]


def test_feddca_augment_saturation():
    problem = random_selection_problem(2, 1, 4, seed=8)
    selection = greedy_select(problem)
    pool = random_store(5, 4, seed=9)
    results = feddca_augment(pool, selection, per_client=5, threshold=None)
    for r in results:
        assert sorted(r.ids()) == [int(i) for i in pool.ids]


def test_feddca_augment_equals_retrieve_topk_per_slot():
    # 300 slots span two query blocks of one pool pass each.
    rng = np.random.default_rng(40)
    pool = random_store(1_001, 16, seed=41)
    vectors = np.concatenate([random_unit_vectors(150, 16, rng),
                              pool.vectors[rng.choice(len(pool), 150)]])
    selection = CenterSelection(
        [SelectedCenter(client=k % 7, cluster=k, vector=v) for k, v in enumerate(vectors)],
        CoverageValue(0.0, 1), 0, 0, [])
    for per_client, threshold in ((1, None), (9, 0.5), (40, 0.95), (2_000, None), (5, -1.0)):
        got = feddca_augment(pool, selection, per_client, threshold)
        want = [retrieve_topk(pool, s.vector, per_client, threshold, client_id=s.client)
                for s in selection.slots]
        assert [r.to_json_dict() for r in got] == [r.to_json_dict() for r in want]
        assert [g.requested for g in got] == [w.requested for w in want]


def test_retrieval_does_not_build_the_float64_pool(monkeypatch):
    def refuse(self):
        raise AssertionError("retrieval built the float64 pool")

    monkeypatch.setattr(EmbeddingStore, "matrix64", refuse)
    pool = random_store(300, 8, seed=42)
    selection = greedy_select(random_selection_problem(3, 2, 8, seed=43))
    retrieve_topk(pool, pool.vectors[3], 5, 0.7)
    feddca_augment(pool, selection, 5, 0.7)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_queries_are_rejected(bad):
    pool = random_store(40, 6, seed=44)
    query = pool.vectors[0].copy()
    query[2] = bad
    with pytest.raises(ValidationError, match="query 0 has non-finite values"):
        retrieve_topk(pool, query, 5, 0.7)
    slots = [SelectedCenter(client=k, cluster=0, vector=v)
             for k, v in enumerate([pool.vectors[1], query])]
    selection = CenterSelection(slots, CoverageValue(0.0, 1), 0, 0, [])
    with pytest.raises(ValidationError, match="query 1 has non-finite values"):
        feddca_augment(pool, selection, 5, 0.7)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_direct_retrieval_rejects_non_finite_centroids(bad):
    pool = random_store(50, 8, seed=1)
    centers = random_unit_vectors(2, 8, np.random.default_rng(2))
    centers[1, 3] = bad
    clients = [CandidateCenters(client_id=0, centers=centers[:1]),
               CandidateCenters(client_id=1, centers=centers)]
    with pytest.raises(ValidationError, match="^client 1 has non-finite centroids$"):
        direct_retrieval_augment(pool, clients, per_client=6)


def test_threshold_below_minus_one_is_rejected():
    pool = random_store(40, 6, seed=44)
    selection = greedy_select(random_selection_problem(2, 2, 6, seed=45))
    for threshold in (-1.5, -2, -math.inf):
        with pytest.raises(ValidationError, match="threshold must be >= -1"):
            retrieve_topk(pool, pool.vectors[0], 5, threshold)
        with pytest.raises(ValidationError, match="threshold must be >= -1"):
            feddca_augment(pool, selection, 5, threshold)
    # -1 is the smallest cosine: it keeps only records at -1, here none
    assert retrieve_topk(pool, pool.vectors[0], 5, -1.0).hits == []
    assert len(retrieve_topk(pool, pool.vectors[0], 5, math.inf).hits) == 5


def test_direct_retrieval_xi_one_equals_topk():
    pool = random_store(50, 6, seed=10)
    center = random_unit_vectors(1, 6, np.random.default_rng(11))
    cand = CandidateCenters(client_id=0, centers=center)
    direct = direct_retrieval_augment(pool, [cand], per_client=7)
    top = retrieve_topk(pool, center[0], 7)
    assert direct[0].ids() == top.ids()


def test_direct_retrieval_remainder_quotas():
    # xi=2, per_client=3: quotas (2, 1); orthogonal centers split the pool
    pool = _store_from(
        [[1, 0, 0, 0], [0.99, np.sqrt(1 - 0.99**2), 0, 0], [0, 1, 0, 0], [0, 0.99, np.sqrt(1 - 0.99**2), 0]],
        ids=[0, 1, 2, 3],
    )
    centers = CandidateCenters(
        client_id=0,
        centers=np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.float32),
    )
    result = direct_retrieval_augment(pool, [centers], per_client=3)[0]
    # first query takes its top-2 {0, 1}, second its top-1 {2}
    assert sorted(result.ids()) == [0, 1, 2]


def test_direct_retrieval_backfills_duplicates():
    rng = np.random.default_rng(12)
    pool = random_store(40, 6, seed=13)
    base = random_unit_vectors(1, 6, rng)[0].astype(np.float64)
    nudged = base + 0.01 * rng.standard_normal(6)
    nudged /= np.linalg.norm(nudged)
    centers = CandidateCenters(
        client_id=0, centers=np.stack([base, nudged]).astype(np.float32)
    )
    result = direct_retrieval_augment(pool, [centers], per_client=20)[0]
    ids = result.ids()
    assert len(ids) == 20
    assert len(set(ids)) == 20  # overlapping neighborhoods still yield unique ids
    # union oracle: the result must contain the top-10 of each query's ranking
    for c in centers.centers:
        top = set(i for _, i in full_sort_retrieval(pool.ids, pool.vectors, c, 10))
        assert top <= set(ids)


def test_direct_retrieval_pool_exhaustion():
    pool = random_store(6, 4, seed=14)
    centers = CandidateCenters(client_id=0, centers=random_unit_vectors(2, 4, np.random.default_rng(15)))
    result = direct_retrieval_augment(pool, [centers], per_client=10)[0]
    assert sorted(result.ids()) == [int(i) for i in pool.ids]
    assert result.shortfall == 4


def test_random_sampling_deterministic_and_independent():
    pool = random_store(30, 5, seed=16)
    a = random_sampling_augment(pool, n_clients=3, per_client=10, seed=99)
    b = random_sampling_augment(pool, n_clients=3, per_client=10, seed=99)
    assert [r.hits for r in a] == [r.hits for r in b]
    assert a[0].ids() != a[1].ids()  # independent draws across clients
    c = random_sampling_augment(pool, n_clients=3, per_client=10, seed=100)
    assert [r.hits for r in c] != [r.hits for r in a]


def test_random_sampling_saturation_and_error():
    pool = random_store(8, 4, seed=17)
    full = random_sampling_augment(pool, n_clients=2, per_client=8, seed=1)
    for r in full:
        assert sorted(r.ids()) == [int(i) for i in pool.ids]
    with pytest.raises(ValidationError):
        random_sampling_augment(pool, n_clients=1, per_client=9, seed=1)


def test_random_sampling_inclusion_frequency():
    # empirical inclusion rate over many seeds ~ per_client / |pool| (3-sigma)
    pool = random_store(10, 4, seed=18)
    per_client, trials = 3, 4000
    target = int(pool.ids[4])
    hits = 0
    for seed in range(trials):
        result = random_sampling_augment(pool, n_clients=1, per_client=per_client, seed=seed)
        hits += target in result[0].ids()
    p = per_client / len(pool)
    sigma = np.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) < 3 * sigma


def test_data_select_at_reference_scale():
    # 200 records selected per client from 1000-record local pools
    problem = random_selection_problem(3, 2, 8, seed=40)
    selection = greedy_select(problem)
    pools = [random_store(1000, 8, seed=41 + k, id_start=10_000 * k) for k in range(3)]
    results = data_select(pools, selection, per_client=200)
    assert all(len(r.hits) == 200 for r in results)


def test_data_select_ranks_each_local_pool():
    problem = random_selection_problem(3, 2, 6, seed=19)
    selection = greedy_select(problem)
    pools = [random_store(25, 6, seed=20 + k, id_start=100 * k) for k in range(3)]
    results = data_select(pools, selection, per_client=5)
    for k, r in enumerate(results):
        oracle = full_sort_retrieval(
            pools[k].ids, pools[k].vectors, selection.slots[k].vector, 5
        )
        assert r.ids() == [i for _, i in oracle]
        assert r.client_id == k
    # saturation: pool smaller than per_client
    small = [random_store(3, 6, seed=30 + k) for k in range(3)]
    saturated = data_select(small, selection, per_client=10)
    assert all(len(r.hits) == 3 for r in saturated)


def _nudged(rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Copies of float32 rows with up to three coordinates moved 1-3 ulps."""
    v = rows.copy()
    r = np.arange(len(v))[:, None]
    cols = rng.integers(0, v.shape[1], size=(len(v), 3))
    direction = np.where(rng.random(cols.shape) < 0.5, -np.inf, np.inf).astype(np.float32)
    for _ in range(int(rng.integers(1, 4))):
        v[r, cols] = np.nextafter(v[r, cols], direction)
    return v


def _tie_query(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A float32 unit query whose coordinates take four distinct values."""
    q = rng.choice([-1.3, -0.7, 0.7, 1.3], size=dim)
    return (q / np.linalg.norm(q)).astype(np.float32)


def _swapped(x: np.ndarray, q: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``x`` with coordinates permuted among equal entries of ``q``: its exact
    dot product with ``q`` is unchanged, its rounded one can move an ulp."""
    v = x.copy()
    for value in np.unique(q):
        pos = np.flatnonzero(q == value)
        v[pos] = x[rng.permutation(pos)]
    return v


NEAR_TIE_BUDGETS = (2, 7, 14, 40, 100, 200)


def _near_tie_retrieval(dim: int) -> tuple[EmbeddingStore, list[CandidateCenters]]:
    """A pool and three clients' centroids where direct retrieval's cuts and
    backfills fall inside groups of (near-)tied records at every budget in
    ``NEAR_TIE_BUDGETS``.

    Around each query sit two rows, each with 2 exact duplicates, 8 copies
    that tie with it exactly before rounding and 3 copies nudged 1-3 ulps.
    """
    rng = np.random.default_rng(40 + dim)
    queries = [_tie_query(dim, rng) for _ in range(3)]
    rows = []
    for q in queries:
        for _ in range(2):
            x = q + rng.standard_normal(dim).astype(np.float32) / np.float32(np.sqrt(dim))
            x = (x / np.linalg.norm(x)).astype(np.float32)
            rows += [x, x, x, *(_swapped(x, q, rng) for _ in range(8))]
            rows += list(_nudged(np.stack([x] * 3), rng))
    vectors = np.concatenate([np.stack(rows), random_unit_vectors(40, dim, rng)])
    ids = rng.permutation(3 * len(vectors))[: len(vectors)]
    pool = _store_from(vectors, ids=[int(i) for i in ids])
    q0, q1, q2 = queries
    other = random_unit_vectors(1, dim, rng)[0]
    centers = [[q0, q0, q1], [q1, q2, q2], [q2, q0, other]]  # repeats force backfills
    clients = [CandidateCenters(client_id=k, centers=np.stack(c)) for k, c in enumerate(centers)]
    return pool, clients


@pytest.mark.parametrize("dim", [3, 64, 1024])
def test_direct_retrieval_equals_naive_oracle_on_near_ties(dim):
    pool, clients = _near_tie_retrieval(dim)
    for per_client in NEAR_TIE_BUDGETS:
        got = direct_retrieval_augment(pool, clients, per_client)
        for cand, result in zip(clients, got):
            want = naive_direct_retrieval(pool.ids, pool.vectors, cand.centers, per_client)
            assert result.hits == want
        alone = [direct_retrieval_augment(pool, [cand], per_client)[0].hits for cand in clients]
        assert [r.hits for r in got] == alone



def _repeat_retrieval(dim: int) -> list[tuple[EmbeddingStore, list[CandidateCenters], int]]:
    """Direct retrieval instances on ``_near_tie_retrieval``'s pool where
    most of a centroid's ranking is its client's earlier picks.

    First, at every budget in ``NEAR_TIE_BUDGETS``, a client with two equal
    centroids and one whose equal centroids a third query splits. Then 300
    centroids of three clients, each with a quota of one, drawn from the
    near-tie queries: the third client's centroids 200 to 299 cross the
    256-centroid block boundary, so its later centroids skip picks made in
    the block before.
    """
    pool, clients = _near_tie_retrieval(dim)
    q0, q1, q2 = (cand.centers[0] for cand in clients)
    other = clients[2].centers[2]
    repeats = [CandidateCenters(client_id=0, centers=np.stack([q0, q0])),
               CandidateCenters(client_id=1, centers=np.stack([q1, q1, q0, q1]))]
    cases = [(pool, repeats, per_client) for per_client in NEAR_TIE_BUDGETS]
    rng = np.random.default_rng(60 + dim)
    queries = np.stack([q0, q1, q2, other])
    draws = rng.choice(4, size=(3, 100), p=[0.4, 0.1, 0.4, 0.1])
    many = [CandidateCenters(client_id=k, centers=queries[drawn]) for k, drawn in enumerate(draws)]
    return cases + [(pool, many, 100)]


@pytest.mark.parametrize("dim", [3, 64, 1024])
def test_direct_retrieval_equals_naive_oracle_when_picks_repeat(dim):
    cases = _repeat_retrieval(dim)
    assert sum(cand.k for cand in cases[-1][1]) > geometry._QUERY_BLOCK
    for pool, clients, per_client in cases:
        got = direct_retrieval_augment(pool, clients, per_client)
        for cand, result in zip(clients, got):
            want = naive_direct_retrieval(pool.ids, pool.vectors, cand.centers, per_client)
            assert result.hits == want


def test_direct_retrieval_rescores_about_its_quotas(monkeypatch):
    # ten centroids, each at the center of its own cluster of 30 rows: no
    # centroid's ten hits are another's, so each reads ten ranked positions
    rng = np.random.default_rng(61)
    directions = random_unit_vectors(10, 64, rng).astype(np.float64)
    rows = np.repeat(directions, 30, axis=0) + 0.04 * rng.standard_normal((300, 64))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    pool = _store_from(np.concatenate([rows, random_unit_vectors(200, 64, rng)]))
    centers = CandidateCenters(client_id=0, centers=directions.astype(np.float32))
    rescored = []
    dots = geometry._canonical_dots

    def counted(rows, at, *others):
        rescored.append(len(at))
        return dots(rows, at, *others)

    monkeypatch.setattr(geometry, "_canonical_dots", counted)
    result = direct_retrieval_augment(pool, [centers], per_client=100)[0]
    assert result.hits == naive_direct_retrieval(pool.ids, pool.vectors, centers.centers, 100)
    assert sorted({i // 30 for i in result.ids()}) == list(range(10))
    # the quotas sum to 100; the earlier-quota budgets, 10 + 20 + ... + 100, to 550
    assert sum(rescored) <= 2 * 100

_DIRECT_THREAD_PROBE = """
import hashlib, json
import numpy as np
from fedca.augment import augments_to_json, direct_retrieval_augment
from fedca.clustering import CandidateCenters
from fedca.synthetic import random_store, random_unit_vectors
pool = random_store(301, 1024, seed=7)
rng = np.random.default_rng(8)
clients = [CandidateCenters(client_id=k,
                            centers=random_unit_vectors(10, 1024, rng).astype(np.{dtype}))
           for k in range(40)]
hits = augments_to_json(direct_retrieval_augment(pool, clients, 150))
print(hashlib.sha256(json.dumps(hits).encode()).hexdigest())
"""


def test_direct_retrieval_is_invariant_to_blas_threads():
    # 400 float32 centroids x 301 float32 pool rows: the SGEMM screen. With
    # OpenBLAS 0.3.31 on x86-64 its raw values of this shape were the same at
    # 1 and 2 threads, so this guards BLAS builds whose SGEMM splits its sums
    # by thread.
    digests = probe_digests(_DIRECT_THREAD_PROBE.format(dtype="float32"), threads=(1, 2, 3, 4))
    assert len(set(digests)) == 1


def test_direct_retrieval_float64_centers_is_invariant_to_blas_threads():
    # float64 centroids take the DGEMM screen, which with OpenBLAS 0.3.31
    # differs at 1 and 2 threads for this shape.
    digests = probe_digests(_DIRECT_THREAD_PROBE.format(dtype="float64"), threads=(1, 2, 3, 4))
    assert len(set(digests)) == 1


# float64 queries near the rows where two BLAS threads split one GEMV over
# all 10,001 rows; every record is ranked, so every similarity is hashed.
_GEMV_THREAD_PROBE = """
import hashlib, json
import numpy as np
from fedca.augment import augments_to_json, feddca_augment, retrieve_topk
from fedca.geometry import CoverageValue
from fedca.selection import CenterSelection, SelectedCenter
from fedca.synthetic import random_store
pool = random_store(10001, 1024, seed=11)
rng = np.random.default_rng(12)
near = pool.vectors[[4999, 5000, 5001, 9999, 10000]] + 0.02 * rng.standard_normal((5, 1024))
near /= np.linalg.norm(near, axis=1, keepdims=True)
hits = [retrieve_topk(pool, q, len(pool)).to_json_dict() for q in near]
slots = [SelectedCenter(client=k, cluster=0, vector=q) for k, q in enumerate(near)]
selection = CenterSelection(slots, CoverageValue(0.0, 1), 0, 0, [])
hits += augments_to_json(feddca_augment(pool, selection, len(pool), threshold=0.99))
print(hashlib.sha256(json.dumps(hits).encode()).hexdigest())
"""


def test_feddca_retrieval_is_invariant_to_blas_threads():
    # With OpenBLAS 0.3.31, one GEMV over this pool gives rows 5,000 and
    # 10,000 other bits at 2 threads than at 1.
    digests = probe_digests(_GEMV_THREAD_PROBE)
    assert digests[0] == digests[1]


# 1,001 and 1,003 sampled rows at dim 1,024; the logging sims of every hit
# are hashed.
_RANDOM_THREAD_PROBE = """
import hashlib, json
from fedca.augment import augments_to_json, random_sampling_augment
from fedca.synthetic import random_store
pool = random_store(3000, 1024, seed=13)
hits = []
for per_client in (1001, 1003):
    hits += augments_to_json(random_sampling_augment(pool, 2, per_client, seed=14))
print(hashlib.sha256(json.dumps(hits).encode()).hexdigest())
"""


def test_random_sampling_is_invariant_to_blas_threads():
    digests = probe_digests(_RANDOM_THREAD_PROBE, threads=(1, 2, 3, 4))
    assert len(set(digests)) == 1
