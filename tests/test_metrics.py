import numpy as np
import pytest
from oracles import double_loop_coverage, literal_icacs

from fedca.errors import ValidationError
from fedca.geometry import _gamma
from fedca.metrics import _lexicographic_order, comm_cost, cross_client_coverage, icacs, ruai
from fedca.store import EmbeddingStore
from fedca.synthetic import random_store, random_unit_vectors

E1 = np.array([1, 0, 0, 0], dtype=np.float32)
E2 = np.array([0, 1, 0, 0], dtype=np.float32)
E3 = np.array([0, 0, 1, 0], dtype=np.float32)
E4 = np.array([0, 0, 0, 1], dtype=np.float32)


def test_ruai_hand_checks():
    assert ruai([[1, 2], [3, 4]]) == 1.0
    assert ruai([[7]] * 10) == pytest.approx(0.1)
    assert ruai([[1, 2], [2, 3]]) == 0.75
    with pytest.raises(ValidationError):
        ruai([[], []])


def test_ruai_duplicate_and_fresh_id_effects():
    base = ruai([[1, 2], [3, 4]])
    assert ruai([[1, 2], [3, 4], [1]]) < base  # duplicate strictly decreases
    assert ruai([[1, 2], [3, 4, 5]]) >= base  # fresh id weakly increases


def test_icacs_identical_clients_is_one():
    vectors = np.stack([E1] * 5)
    assert icacs([vectors, vectors], k=1, seed=3) == pytest.approx(1.0, abs=1e-6)


def test_icacs_orthogonal_clients_is_zero():
    a = np.stack([E1] * 4)
    b = np.stack([E2] * 4)
    assert icacs([a, b], k=1, seed=3) == pytest.approx(0.0, abs=1e-7)


def test_icacs_hand_computed_cross_average():
    # each client's set is two tight singleton clusters, so k=2 recovers the
    # vectors themselves as centers; ICACS = mean of the 4 cross pairs
    mid = ((E1 + E2) / np.sqrt(2)).astype(np.float32)
    client_a = np.stack([E1, E2])
    client_b = np.stack([E3, mid])
    sims = []
    for u in (E1, E2):
        for v in (E3, mid):
            sims.append(float(np.dot(u.astype(np.float64), v.astype(np.float64))))
    expected = sum(sims) / 4.0
    assert icacs([client_a, client_b], k=2, seed=5) == pytest.approx(expected, abs=1e-6)


def test_icacs_invariant_to_client_order_and_permutation():
    rng = np.random.default_rng(6)
    a = random_unit_vectors(12, 5, rng)
    b = random_unit_vectors(12, 5, rng)
    base = icacs([a, b], k=3, seed=9)
    assert icacs([b, a], k=3, seed=9) == base
    assert icacs([a[::-1].copy(), b], k=3, seed=9) == base
    # but it is a function of the run seed
    assert icacs([a, b], k=3, seed=10) != base
    with pytest.raises(ValidationError):
        icacs([a], k=2, seed=0)
    # two rows that differ only in the sign of a zero are distinct rows
    z = a.astype(np.float64)
    z[:, 2] = 0.0
    z = (z / np.linalg.norm(z, axis=1, keepdims=True)).astype(np.float32)
    z[1] = z[0]
    z[1, 2] = -0.0
    for seed in range(5):
        assert icacs([z[::-1].copy(), b], k=3, seed=seed) == icacs([z, b], k=3, seed=seed)
    # shuffled and unshuffled sets with ties, duplicate rows and signed zeros
    for case in _row_order_cases():
        other = random_unit_vectors(20, case.shape[1], rng)
        shuffled = case[rng.permutation(len(case))]
        assert icacs([shuffled, other], k=4, seed=3) == icacs([case, other], k=4, seed=3)


def test_icacs_shrinks_k_for_small_clients(caplog):
    # 50 clients of 3 to 7 vectors and one of 12: one warning for the call
    small = [random_unit_vectors(3 + k % 5, 4, np.random.default_rng(7 + k)) for k in range(50)]
    b = random_unit_vectors(12, 4, np.random.default_rng(8))
    with caplog.at_level("WARNING"):
        value = icacs([*small, b], k=10, seed=1)
    shrinking = [r.getMessage() for r in caplog.records if "shrinking" in r.getMessage()]
    assert len(shrinking) == 1
    assert shrinking[0].startswith("50 clients have fewer than 10 vectors, the smallest 3;")
    assert -1.0 <= value <= 1.0


def _icacs_bound(sizes: list[int], dim: int) -> float:
    """A bound on |icacs - literal_icacs| for clients of ``sizes`` centers.

    Both cluster the same float32 rows at the same seed, so they share the
    centers c_i; |c_i| <= r = 1 + 2**-20 for unit-norm input. With A_a the
    sum of client a's |c_i| (coordinatewise), A their total, P the pair
    count and K the largest size, the pairs' sum is sum_a S_a . (S - S_a),
    and |S_a| . |S - S_a| <= A_a . (A - A_a), whose sum 2W is at most
    2P * r**2. ``icacs`` evaluates it within gamma_(d+2) * 2W, as its dot
    and the rounding of S - S_a take, plus gamma_(2K) * 2W for rounding the
    center sums S_a, u * V for rounding S, V = sum_a A_a . A_a <= sum_a
    k_a**2 * r**2 (it reads intra-client terms), and 2u for fsum and the
    division: gamma_(d+2K+8) * (2W + V) in all. The oracle's per-pair
    products, fsum and division stay within gamma_(d+3) * 2W. Both over 2P.
    """
    pairs = (sum(sizes) ** 2 - sum(s * s for s in sizes)) // 2
    r2 = (1 + 2.0**-20) ** 2
    two_w, v = 2 * pairs * r2, sum(s * s for s in sizes) * r2
    return (_gamma(dim + 2 * max(sizes) + 8) * (two_w + v) + _gamma(dim + 3) * two_w) / (2 * pairs)


def _cancelling_clients(n_clients: int, dim: int, rng) -> list[np.ndarray]:
    """Clients whose rows come in near-antipodal pairs around shared
    directions: every cross-client product is near +-1, and their mean
    cancels to about the noise squared."""
    base = random_unit_vectors(3, dim, rng).astype(np.float64)
    clients = []
    for _ in range(n_clients):
        rows = np.concatenate([base, -base]) + 1e-3 * rng.standard_normal((6, dim))
        clients.append((rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32))
    return clients


def _icacs_cases() -> dict[str, tuple[list[np.ndarray], int]]:
    rng = np.random.default_rng(30)
    dup = random_unit_vectors(8, 16, rng)
    return {
        "2 clients, d 1024": ([random_unit_vectors(40, 1024, rng) for _ in range(2)], 10),
        "12 clients": ([random_unit_vectors(30, 16, rng) for _ in range(12)], 10),
        "shrunk": ([random_unit_vectors(3 + c, 8, rng) for c in range(5)], 6),
        "float64": ([random_unit_vectors(25, 32, rng).astype(np.float64) for _ in range(3)], 4),
        "duplicates": ([np.concatenate([dup, dup, dup[:3]]), dup[[0, 0, 1, 1, 2]],
                        random_unit_vectors(12, 16, rng)], 5),
        "cancelling": (_cancelling_clients(4, 64, rng), 6),
    }


@pytest.mark.parametrize("case", sorted(_icacs_cases()))
def test_icacs_is_the_literal_mean_of_cross_client_center_products(case):
    clients, k = _icacs_cases()[case]
    got = icacs(clients, k=k, seed=11)
    want = literal_icacs(clients, k, 11)
    bound = _icacs_bound([min(k, len(c)) for c in clients], clients[0].shape[1])
    assert abs(got - want) <= bound, (got, want, bound)
    if case == "cancelling":
        assert abs(want) < 1e-4 and bound < 1e-13
    # the same bits for any client order and any row order within a client
    rng = np.random.default_rng(31)
    for _ in range(3):
        shuffled = [clients[i][rng.permutation(len(clients[i]))]
                    for i in rng.permutation(len(clients))]
        assert icacs(shuffled, k=k, seed=11) == got


def test_icacs_names_bad_client_sets():
    rng = np.random.default_rng(32)
    a = random_unit_vectors(6, 8, rng)
    with pytest.raises(ValidationError, match=r"^dimension mismatch: client 1 4 vs client 0 8$"):
        icacs([a, random_unit_vectors(6, 4, rng)])
    with pytest.raises(ValidationError, match=r"^client 0 must be a 2-d vector set, got ndim=1$"):
        icacs([a[0], a])
    with pytest.raises(ValidationError, match=r"^client 2 has no augmented vectors$"):
        icacs([a, a, a[:0]])


def test_comm_cost_arithmetic():
    assert comm_cost(10, 10, 1024, []) == (102_400, 0)
    class FakeResult:
        def __init__(self, n): self.hits = [(i, 0.0) for i in range(n)]
    assert comm_cost(10, 10, 1024, [FakeResult(1000)] * 10)[1] == 10_000
    assert comm_cost(2, 3, 4, [[('x', 0.0)] * 5, [('y', 0.0)] * 2]) == (24, 7)


def _universe_and_domain():
    dom_vecs = np.stack([E1, E2, E3])
    gen_vecs = np.stack([E4])
    universe = EmbeddingStore(
        4, [0, 1, 2, 3], ["med", "med", "med", "gen"],
        np.concatenate([dom_vecs, gen_vecs]),
    )
    domain = universe.subset_by_domain("med")
    return universe, domain


def test_cross_client_coverage_self_containment():
    universe, domain = _universe_and_domain()
    cov = cross_client_coverage(domain, [([0, 1], [2, 3])], universe)
    assert cov.value == pytest.approx(1.0, abs=1e-6)
    assert cov.reference_size == 3


def test_cross_client_coverage_against_double_loop():
    universe, domain = _universe_and_domain()
    # only one in-domain record in the client data; out-of-domain id 3 excluded
    cov = cross_client_coverage(domain, [([0], [3])], universe)
    expected = double_loop_coverage(domain.vectors, universe.vectors_for([0]))
    assert cov.value == pytest.approx(expected, abs=1e-12)


def test_cross_client_coverage_empty_intersection_errors():
    universe, domain = _universe_and_domain()
    with pytest.raises(ValidationError, match="empty intersection"):
        cross_client_coverage(domain, [([3], [3])], universe)


def test_cross_client_coverage_names_the_smallest_unknown_id():
    universe, domain = _universe_and_domain()
    with pytest.raises(ValidationError, match="^unknown record id 7$"):
        cross_client_coverage(domain, [([9, 0], [7, 3])], universe)


def test_cross_client_coverage_pools_each_id_once():
    universe = random_store(60, 8, seed=11, domain="med")
    mixed = EmbeddingStore(8, universe.ids, ["med" if i % 4 else "gen" for i in range(60)],
                           universe.vectors)
    domain = mixed.subset_by_domain("med")
    sets = [([0, 4, 5], [6, 5, 9]), ([9, 12], [13, 0, 40])]
    pooled = sorted({i for local, aug in sets for i in (*local, *aug) if i % 4})
    cov = cross_client_coverage(domain, sets, mixed)
    want = double_loop_coverage(domain.vectors, mixed.vectors_for(pooled))
    assert cov.value == pytest.approx(want, abs=1e-12)
    assert cov == cross_client_coverage(domain, [([], pooled)], mixed)


def test_cross_client_coverage_monotone_in_covering():
    universe = random_store(50, 6, seed=10, domain="med")
    domain = universe
    small = cross_client_coverage(domain, [([0, 1], [2])], universe)
    bigger = cross_client_coverage(domain, [([0, 1], [2, 5, 9])], universe)
    assert bigger.value >= small.value - 1e-12


def _lexsort_cases():
    rng = np.random.default_rng(31)
    groups = rng.integers(0, 5, size=300)
    tied_prefix = rng.standard_normal((300, 1024)).astype(np.float32)
    tied_prefix[:, :20] = tied_prefix[groups, :20]  # ties past the 8-column prefix
    tied_deep = tied_prefix.copy()
    tied_deep[:, :600] = tied_deep[groups, :600]  # ties over most columns
    dup_rows = rng.standard_normal((200, 1024)).astype(np.float32)
    dup_rows[100:] = dup_rows[rng.integers(0, 100, size=100)]
    signed_zero = rng.standard_normal((200, 64)).astype(np.float32)
    signed_zero[:, :12] = np.where(rng.random((200, 12)) < 0.5, -0.0, 0.0)
    with_nan = rng.standard_normal((100, 64)).astype(np.float32)
    with_nan[::3, 2] = np.nan
    with_nan[1::3, :9] = with_nan[0, :9]
    return [
        rng.standard_normal((1000, 1024)).astype(np.float32),
        rng.standard_normal((500, 64)).astype(np.float32),
        rng.integers(-1, 2, size=(300, 64)).astype(np.float32),
        rng.standard_normal((50, 5)).astype(np.float32),
        tied_prefix, tied_deep, dup_rows, signed_zero, with_nan,
    ]


@pytest.mark.parametrize("case", range(9))
def test_lexicographic_order_is_the_full_lexsort(case):
    # the full stable lexsort of each row's little-endian bytes, first byte first
    arr = np.ascontiguousarray(_lexsort_cases()[case], dtype="<f4")
    order = _lexicographic_order(arr)
    assert np.array_equal(order, np.lexsort(arr.view(np.uint8).T[::-1]))
    assert order.tolist() == sorted(range(len(arr)), key=lambda i: arr[i].tobytes())


def _row_order_cases():
    """The lexsort cases as unit rows, less the NaN case, which k-means
    rejects; duplicate rows and signed zeros survive the scaling."""
    return [(c / np.linalg.norm(c.astype(np.float64), axis=1, keepdims=True)).astype(np.float32)
            for c in _lexsort_cases()[:-1]]
