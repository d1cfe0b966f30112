"""Block-scored selection against per-candidate oracles, on near ties.

Each instance makes ``np.sum`` and ``math.fsum`` disagree somewhere: exact
ties summed in different orders, columns one ulp apart, duplicate
candidates and candidates that gain nothing.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from oracles import canonical_columns, dict_beam, literal_brute, literal_greedy
from probes import probe_digests

from fedca import geometry, selection
from fedca.clustering import CandidateCenters
from fedca.errors import ValidationError
from fedca.geometry import SimilarityMode, coverage
from fedca.selection import (
    CenterSelection,
    SelectionProblem,
    beam_select,
    brute_force_select,
    greedy_select,
)
from fedca.synthetic import random_selection_problem, random_unit_vectors

RAW = SimilarityMode.RAW_COSINE
AFFINE = SimilarityMode.AFFINE_SHIFTED


def _problem(client_vectors, reference, mode):
    candidates = [
        CandidateCenters(client_id=k, centers=np.asarray(vecs, dtype=np.float32))
        for k, vecs in enumerate(client_vectors)
    ]
    return SelectionProblem(candidates_per_client=candidates, reference=reference, mode=mode)


def _axis_reference(rng, dim, scales):
    """Rows ``a * e_k`` for every scale a and axis k, shuffled: each
    similarity is one rounded product, so permuting a candidate's
    coordinates permutes its column exactly, and the shuffle sends the
    permuted values to other places in ``np.sum``'s additions."""
    return rng.permutation(np.concatenate([a * np.eye(dim) for a in scales]))


def _orbit(vec):
    return [np.roll(vec, s) for s in range(len(vec))]


def _orbits(mode, clients, seed=28):
    # Subsets related by a coordinate shift tie exactly, but their maxima
    # rows are permutations of each other, which np.sum rounds differently.
    rng = np.random.default_rng(seed)
    ref = _axis_reference(rng, 4, rng.uniform(0.05, 1.0, 150))
    bases = random_unit_vectors(3, 4, rng)
    if clients == 1:
        return _problem([_orbit(bases[0]) + _orbit(bases[1])[:2]], ref, mode)
    return _problem([_orbit(bases[0]), _orbit(bases[1]), _orbit(bases[2])[:3]], ref, mode)


def _ulp_columns(mode, seed=28):
    # e_0 and e_1 read the first two reference coordinates, which differ by
    # one ulp up or down per row, with one more up than down.
    rng = np.random.default_rng(seed)
    m = 301
    a = rng.uniform(0.1, 0.9, m)
    steps = np.where(np.arange(m) % 2 == 0, np.inf, -np.inf)
    ref = np.zeros((m, 5))
    ref[:, 0] = a
    ref[:, 1] = np.nextafter(a, steps)
    ref[:, 2:] = rng.uniform(-0.3, 0.3, (m, 3))
    e = np.eye(5)
    others = random_unit_vectors(4, 5, rng)
    return _problem([[e[0], others[0], e[1]], [e[1], others[1]], [others[2], e[0], others[3]]],
                    ref, mode)


def _duplicates(mode):
    # Repeated candidates within and across clients; a repeat of a selected
    # candidate gains nothing. The reference is the pooled candidates.
    v = random_unit_vectors(5, 6, np.random.default_rng(3))
    return _problem([[v[0], v[1], v[0]], [v[1], v[2], v[3]], [v[0], v[4], v[2], v[2]]], None, mode)


def _no_gain(mode):
    # Most candidates lie inside a cap that one candidate covers better at
    # every reference row, so they gain nothing once it is selected.
    rng = np.random.default_rng(9)
    axis = np.zeros(8)
    axis[0] = 1.0
    ref = axis + 0.05 * rng.standard_normal((200, 8))
    ref /= np.linalg.norm(ref, axis=1, keepdims=True)
    far = -axis + 0.3 * rng.standard_normal((6, 8))
    far /= np.linalg.norm(far, axis=1, keepdims=True)
    return _problem([[axis, far[0], far[1]], [far[2], axis, far[3]], [far[4], far[5]]], ref, mode)


def _absorbed_gains(mode):
    # The parent e_0 starts every lane of np.sum's first two 128-value blocks
    # at 1.0. Adding e_1 gains t = 0.99 * 2**-53 at 240 rows of those blocks,
    # where each gain is rounded away; adding -e_1 gains t at 240 rows of the
    # last two blocks, where they add up. The two expansions tie exactly, but
    # np.sum puts the second 7 ulps ahead, which only the parent's own
    # sum|maxima| in the error bound covers.
    t = 0.99 * 2.0**-53
    ref = np.zeros((512, 2))
    for start in (0, 128):
        ref[start : start + 8, 0] = 1.0
        ref[start + 8 : start + 128, 1] = t
    ref[256:496, 1] = -t
    return _problem([[[1.0, 0.0]], [[0.0, 1.0], [0.0, -1.0]]], ref, mode)


def _cancelled_screen(mode):
    # Each reference row is 1, 2**-60 and -1 in three coordinates that one
    # candidate reads. Both candidates' canonical values tie at 2**-61, but
    # with OpenBLAS 0.3.31 the screen rounds the small term away for the
    # first candidate only, so only the screen term of the error bound keeps
    # the tie open.
    t = 2.0**-60
    ref = np.zeros((2, 32))
    ref[0, [7, 9, 13]] = [1.0, t, -1.0]
    ref[1, [31, 20, 17]] = [1.0, t, -1.0]
    halves = np.zeros((2, 32))
    halves[0, :16] = 1.0
    halves[1, 16:] = 1.0
    return _problem([halves], ref, mode)


def _screen_tied_maxima(mode):
    # Reference row k is e_2k + 2**-50 e_2k+1. Client 0 offers e_2k + e_2k+1
    # and client 1 e_2k - e_2k+1, so a pair with equal k holds row k's
    # canonical values 1 + 2**-50 and 1 - 2**-50: a gap far inside a d = 32
    # DGEMM screen's error bound, so a screen within the bound may put
    # either on top and only the rescoring of every member near the top
    # keeps the true maximum. Greedy starts on such a pair.
    ref = np.zeros((4, 32))
    up = np.zeros((4, 32))
    down = np.zeros((4, 32))
    for k in range(4):
        ref[k, [2 * k, 2 * k + 1]] = [1.0, 2.0**-50]
        up[k, [2 * k, 2 * k + 1]] = [1.0, 1.0]
        down[k, [2 * k, 2 * k + 1]] = [1.0, -1.0]
    return _problem([up, down], ref, mode)


INSTANCES = {
    "absorbed-gains": _absorbed_gains,
    "cancelled-screen": _cancelled_screen,
    "screen-tied-maxima": _screen_tied_maxima,
    "orbits-one-client": lambda mode: _orbits(mode, 1),
    "orbits": lambda mode: _orbits(mode, 3),
    "ulp-columns": _ulp_columns,
    "duplicates": _duplicates,
    "no-gain": _no_gain,
}


@pytest.mark.parametrize("mode", [RAW, AFFINE], ids=["raw", "affine"])
@pytest.mark.parametrize("kind", sorted(INSTANCES))
def test_selection_equals_per_candidate_oracles_on_near_ties(kind, mode):
    problem = INSTANCES[kind](mode)
    pool = problem.pool()
    clients = [c.client for c in pool]
    vectors = [c.vector for c in pool]
    ref = problem.reference_matrix()
    affine = mode is AFFINE

    def expected(indices, passes, swaps, trace):
        slots = [pool[i] for i in indices]
        cov = coverage(ref, np.stack([s.vector for s in slots]), mode)
        return CenterSelection(slots, cov, passes, swaps, trace).to_json_dict()

    for init, options in itertools.product(
        ("first", "random"), ({}, {"per_client_slots": True}, {"literal_termination": True})
    ):
        got = greedy_select(problem, 3, init=init, **options).to_json_dict()
        oracle = literal_greedy(clients, vectors, ref, affine, seed=3, init=init, **options)
        assert got == expected(*oracle), (init, options)
    full = math.comb(len(pool), problem.n_clients)
    for width in (1, 7, full):
        state, val = dict_beam(vectors, ref, problem.n_clients, width, affine)
        assert beam_select(problem, width).to_json_dict() == expected(state, 0, 0, [val]), width
    state, val = literal_brute(vectors, ref, problem.n_clients, affine)
    assert brute_force_select(problem).to_json_dict() == expected(state, 0, 0, [val])


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("mode", [RAW, AFFINE], ids=["raw", "affine"])
@pytest.mark.parametrize("kind", sorted(INSTANCES))
def test_selection_equals_oracles_with_few_rows_per_block(kind, mode, rows, monkeypatch):
    # At the default size every instance fits one scoring block. One and
    # three rows per block split a parent's expansions, beam parent chunks
    # and brute-force prefix runs across blocks, so both the broadcast and
    # the gather of parent rows run.
    m = INSTANCES[kind](mode).reference_matrix().shape[0]
    monkeypatch.setattr(selection, "_BLOCK_BYTES", 8 * m * rows)
    test_selection_equals_per_candidate_oracles_on_near_ties(kind, mode)


def test_non_finite_vectors_are_rejected():
    problem = random_selection_problem(3, 2, 4, seed=1)
    for bad_value in (np.nan, np.inf):
        ref = np.array(problem.reference_matrix())
        ref[2, 1] = bad_value
        nan_problem = SelectionProblem(problem.candidates_per_client, reference=ref)
        for search in (greedy_select, lambda p: beam_select(p, 4), brute_force_select):
            with pytest.raises(ValidationError, match="reference has non-finite"):
                search(nan_problem)
    bad = [CandidateCenters(c.client_id, c.centers.copy()) for c in problem.candidates_per_client]
    bad[1].centers[0, 0] = np.inf
    with pytest.raises(ValidationError, match="client 1 has non-finite"):
        SelectionProblem(bad)


def test_beam_memory_does_not_grow_with_width_times_reference():
    rng = np.random.default_rng(2)
    candidates = [CandidateCenters(k, random_unit_vectors(10, 16, rng)) for k in range(6)]
    problem = SelectionProblem(candidates, reference=random_unit_vectors(300, 16, rng))
    problem.reference_matrix()
    width, n, m = 2048, 60, 300
    tracemalloc.start()
    try:
        beam_select(problem, width)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Keeping every expansion's maxima would take 2048 * 60 * 300 floats, ~295 MB.
    assert peak <= (width + n) * m * 8 + (4 << 20)


_THREAD_PROBE = """
import hashlib, json
import numpy as np
from fedca.clustering import CandidateCenters
from fedca.selection import SelectionProblem, beam_select, brute_force_select, greedy_select
rng = np.random.default_rng(4)
def unit(n):
    x = rng.standard_normal((n, 1024))
    return x / np.linalg.norm(x, axis=1, keepdims=True)
clients = [CandidateCenters(k, unit(43).astype(np.float32)) for k in range(7)]
ref = unit(400)
problem = SelectionProblem(clients, reference=ref)
small = SelectionProblem([CandidateCenters(c.client_id, c.centers[:4]) for c in clients[:4]],
                         reference=ref)
out = [greedy_select(problem), beam_select(problem, 64), brute_force_select(small)]
print(hashlib.sha256(json.dumps([s.to_json_dict() for s in out]).encode()).hexdigest())
"""


def test_selection_is_invariant_to_blas_threads():
    # With OpenBLAS 0.3.31, one GEMM of all 301 columns of this instance differs
    # at 1 and 2 threads; canonical scores must not.
    digests = probe_digests(_THREAD_PROBE, threads=(1, 2, 3, 4))
    assert len(set(digests)) == 1, digests


# Candidates span the first 512 coordinates and every reference row but two
# (500 and 1,000) spans the rest, so each trace value is the exact sum of
# those two rows' maxima over m and shows a one-ulp change in either. With
# OpenBLAS 0.3.31 the screen GEMM of this instance gives those two rows
# other bits at 2 threads than at 1, and so did one GEMV per candidate.
_GREEDY_THREAD_PROBE = """
import hashlib, json
import numpy as np
from fedca.clustering import CandidateCenters
from fedca.selection import SelectionProblem, greedy_select
rng = np.random.default_rng(13)
def unit(n, lo, hi):
    x = np.zeros((n, 1024))
    x[:, lo:hi] = rng.standard_normal((n, hi - lo))
    return x / np.linalg.norm(x, axis=1, keepdims=True)
reference = unit(1001, 512, 1024)
reference[[500, 1000]] = unit(2, 0, 1024)
clients = [CandidateCenters(client_id=k, centers=unit(10, 0, 512)) for k in range(10)]
selection = greedy_select(SelectionProblem(clients, reference=reference))
print(hashlib.sha256(json.dumps(selection.to_json_dict()).encode()).hexdigest())
"""


def test_greedy_on_split_rows_is_invariant_to_blas_threads():
    digests = probe_digests(_GREEDY_THREAD_PROBE, threads=(1, 2, 3, 4))
    assert len(set(digests)) == 1, digests


@pytest.mark.parametrize("mode", [RAW, AFFINE], ids=["raw", "affine"])
def test_rescored_entries_equal_per_pair_values(mode, monkeypatch):
    # Every entry a search rescored holds the per-pair einsum value, and
    # every entry left from the screen lies within its bound of that value.
    # Each search reads the reference once for its norms.
    rng = np.random.default_rng(17)
    clients = [CandidateCenters(k, random_unit_vectors(5, 64, rng)) for k in range(4)]
    problem = SelectionProblem(clients, reference=random_unit_vectors(500, 64, rng), mode=mode)
    scorers = []
    norm_passes = []
    row_norms = geometry._row_norms

    def counted(x):
        norm_passes.append(x.shape)
        return row_norms(x)

    monkeypatch.setattr(geometry, "_row_norms", counted)

    class Recording(selection._CoverageScorer):
        def __init__(self, problem):
            super().__init__(problem)
            scorers.append(self)

    monkeypatch.setattr(selection, "_CoverageScorer", Recording)
    greedy_select(problem)
    beam_select(problem, 8)
    brute_force_select(problem)
    ref = problem.reference_matrix()
    vectors = np.stack([c.vector for c in problem.pool()]).astype(np.float64)
    want = np.array(canonical_columns(vectors, ref))
    d = ref.shape[1]
    gamma = (d + 1) * 2.0**-53 / (1 - (d + 1) * 2.0**-53)
    bound = 2 * gamma * np.outer(np.linalg.norm(vectors, axis=1), np.linalg.norm(ref, axis=1))
    assert len(scorers) == 3
    assert norm_passes.count(ref.shape) == 3
    for scorer in scorers:
        assert scorer.canonical.any()
        assert np.array_equal(scorer.columns[scorer.canonical], want[scorer.canonical])
        assert np.all(np.abs(scorer.columns - want) <= bound)


@pytest.mark.parametrize("mode", [RAW, AFFINE], ids=["raw", "affine"])
def test_trace_ends_at_recomputed_coverage_bit_for_bit(mode):
    # Trace values are canonical, so the last one is geometry.coverage of
    # the selected slots to the last bit, and so is the reported coverage.
    for seed in range(40):
        problem = random_selection_problem(3 + seed % 2, 3, 16, seed=seed, mode=mode)
        ref = problem.reference_matrix()
        for found in (greedy_select(problem), beam_select(problem, 4), brute_force_select(problem)):
            want = coverage(ref, found.slot_vectors(), mode).value
            assert (found.trace[-1], found.coverage.value) == (want, want), seed
