import numpy as np
import pytest

from fedca.errors import ValidationError
from fedca.partition import (
    PartitionPlan,
    dirichlet_partition,
    distinct_cluster_partition,
    iid_partition,
)
from fedca.synthetic import random_store


def _tv(counts_a, counts_b):
    pa = counts_a / counts_a.sum()
    pb = counts_b / counts_b.sum()
    return 0.5 * float(np.abs(pa - pb).sum())


def _label_counts(store, labels, ids, n_labels):
    pos = [store.index_of(i) for i in ids]
    return np.bincount(np.asarray(labels)[pos], minlength=n_labels).astype(float)


def _assert_disjoint(plan):
    seen = set()
    for ids in plan.assignments:
        as_set = set(ids)
        assert len(as_set) == len(ids)
        assert not (as_set & seen)
        seen |= as_set


def test_dirichlet_single_cluster_degenerates_to_uniform():
    store = random_store(200, 4, seed=0)
    labels = [0] * 200
    for beta in (0.01, 10.0):
        plan = dirichlet_partition(store, labels, n_clients=4, per_client=30, beta=beta, seed=7)
        _assert_disjoint(plan)
        assert all(len(a) == 30 for a in plan.assignments)
        assert plan.shortfalls == [0, 0, 0, 0]


def test_dirichlet_sizes_and_disjointness():
    store = random_store(1000, 4, seed=1)
    labels = np.random.default_rng(2).integers(0, 10, size=1000).tolist()
    plan = dirichlet_partition(store, labels, n_clients=10, per_client=100, beta=0.1, seed=3)
    _assert_disjoint(plan)
    assert all(len(a) == 100 for a in plan.assignments)
    assert all(i in store for a in plan.assignments for i in a)


def test_dirichlet_concentrated_beta_tracks_global_distribution():
    # Monte Carlo bound derived with this oracle: for Dir(10) over 100
    # clusters the mean client-vs-global total variation sits near 0.125
    # (it scales like 0.4 / sqrt(beta), independent of the cluster count),
    # so assert a 0.15 ceiling rather than a tighter one.
    store = random_store(30000, 4, seed=4)
    labels = np.random.default_rng(5).integers(0, 100, size=30000)
    global_counts = np.bincount(labels, minlength=100).astype(float)
    tvs = []
    for seed in range(5):
        plan = dirichlet_partition(store, labels, n_clients=1, per_client=10_000,
                                   beta=10.0, seed=seed)
        counts = _label_counts(store, labels, plan.assignments[0], 100)
        tvs.append(_tv(counts, global_counts))
    assert max(tvs) < 0.15


def test_dirichlet_tv_non_increasing_in_beta():
    store = random_store(12000, 4, seed=6)
    labels = np.random.default_rng(7).integers(0, 50, size=12000)
    global_counts = np.bincount(labels, minlength=50).astype(float)
    means = []
    for beta in (0.01, 0.1, 1.0, 10.0):
        tvs = []
        for seed in range(12):
            plan = dirichlet_partition(store, labels, n_clients=2, per_client=500,
                                       beta=beta, seed=seed)
            tvs.extend(
                _tv(_label_counts(store, labels, a, 50), global_counts)
                for a in plan.assignments
            )
        means.append(np.mean(tvs))
    for a, b in zip(means, means[1:]):
        assert b <= a + 1e-9


def test_dirichlet_exhaustion_spillover_and_shortfall():
    store = random_store(100, 4, seed=8)
    labels = [0] * 50 + [1] * 50
    # total demand equals the store: late clients must spill across clusters
    plan = dirichlet_partition(store, labels, n_clients=4, per_client=25, beta=0.01, seed=9)
    _assert_disjoint(plan)
    assert all(len(a) == 25 for a in plan.assignments)
    # demand exceeding the store records a shortfall instead of raising
    plan2 = dirichlet_partition(store, labels, n_clients=3, per_client=40, beta=1.0, seed=10)
    assert sum(len(a) for a in plan2.assignments) == 100
    assert sum(plan2.shortfalls) == 20


def test_dirichlet_validation():
    store = random_store(10, 4, seed=11)
    with pytest.raises(ValidationError, match="beta"):
        dirichlet_partition(store, [0] * 10, 2, 2, beta=0.0, seed=0)
    with pytest.raises(ValidationError, match="labels"):
        dirichlet_partition(store, [0] * 9, 2, 2, beta=1.0, seed=0)
    # the client loop is bounded by the records: 10 clients of 10 records run
    assert len(dirichlet_partition(store, [0] * 10, 10, 2, beta=1.0, seed=0).assignments) == 10
    with pytest.raises(ValidationError, match="n_clients 11 exceeds the 10 records"):
        dirichlet_partition(store, [0] * 10, 11, 2, beta=1.0, seed=0)


def test_iid_paper_grid_sizes():
    # 1000 records sampled from a larger store, split into 10 shards of 100
    store = random_store(5200, 4, seed=12)
    plan = iid_partition(store, n_clients=10, per_client=100, seed=13)
    _assert_disjoint(plan)
    assert len(plan.assignments) == 10
    assert all(len(a) == 100 for a in plan.assignments)


def test_iid_single_client_and_insufficiency():
    store = random_store(50, 4, seed=14)
    plan = iid_partition(store, n_clients=1, per_client=20, seed=15)
    assert len(plan.assignments[0]) == 20
    with pytest.raises(ValidationError, match="insufficient"):
        iid_partition(store, n_clients=3, per_client=20, seed=15)


def test_distinct_clusters_are_pairwise_disjoint():
    store = random_store(1000, 4, seed=16)
    labels = np.random.default_rng(17).integers(0, 100, size=1000)
    plan = distinct_cluster_partition(store, labels, n_clients=5, per_client=50, seed=18)
    _assert_disjoint(plan)
    assert all(len(a) == 50 for a in plan.assignments)
    # cluster groups disjoint: no label appears in two clients' assignments
    used_by = {}
    for k, ids in enumerate(plan.assignments):
        for i in ids:
            lab = int(labels[store.index_of(i)])
            assert used_by.setdefault(lab, k) == k


def test_distinct_cluster_exhaustion_errors():
    store = random_store(40, 4, seed=19)
    labels = [i % 2 for i in range(40)]  # only two clusters
    with pytest.raises(ValidationError, match="distinct clusters"):
        distinct_cluster_partition(store, labels, n_clients=3, per_client=10, seed=20)


@pytest.mark.parametrize("mode", ["dirichlet", "iid", "distinct"])
def test_partitions_are_deterministic(mode):
    store = random_store(600, 4, seed=21)
    labels = np.random.default_rng(22).integers(0, 20, size=600)
    def run(seed):
        if mode == "dirichlet":
            return dirichlet_partition(store, labels, 5, 40, 0.5, seed)
        if mode == "iid":
            return iid_partition(store, 5, 40, seed)
        return distinct_cluster_partition(store, labels, 5, 40, seed)
    assert run(42).assignments == run(42).assignments
    assert run(42).assignments != run(43).assignments


@pytest.mark.parametrize("mode", ["dirichlet", "distinct"])
def test_labelled_modes_share_the_source_and_count_checks(mode):
    def run(store, labels, n_clients=2, per_client=2):
        if mode == "dirichlet":
            return dirichlet_partition(store, labels, n_clients, per_client, 1.0, 0)
        return distinct_cluster_partition(store, labels, n_clients, per_client, 0)

    store = random_store(10, 4, seed=25)
    labels = list(range(10))
    assert len(run(store, labels).assignments) == 2
    with pytest.raises(ValidationError, match="labels length 9 does not match store size 10"):
        run(store, labels[:9])
    with pytest.raises(ValidationError, match="source store is empty"):
        run(random_store(0, 4, seed=25), [])
    for n_clients, per_client in ((0, 2), (2, 0)):
        with pytest.raises(ValidationError, match="n_clients and per_client must be >= 1"):
            run(store, labels, n_clients, per_client)


@pytest.mark.parametrize("mode", ["dirichlet", "iid", "distinct"])
def test_plan_json_round_trip(mode):
    store = random_store(100, 4, seed=23)
    labels = np.random.default_rng(26).integers(0, 10, size=100)
    if mode == "dirichlet":
        plan = dirichlet_partition(store, labels, 4, 10, 0.5, seed=24)
    elif mode == "iid":
        plan = iid_partition(store, 4, 10, seed=24)
    else:
        plan = distinct_cluster_partition(store, labels, 4, 10, seed=24)
    again = PartitionPlan.from_json_dict(plan.to_json_dict())
    beta = 0.5 if mode == "dirichlet" else None
    assert (again.mode, again.beta, again.seed) == (mode, beta, 24)
    assert again.assignments == plan.assignments
