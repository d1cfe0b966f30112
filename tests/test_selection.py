import math

import numpy as np
import pytest
from oracles import exhaustive_best_subset

from fedca import selection
from fedca.clustering import CandidateCenters
from fedca.errors import BudgetExceededError, ValidationError
from fedca.geometry import SimilarityMode, coverage
from fedca.selection import (
    ApproximationReport,
    CenterSelection,
    SelectionProblem,
    approximation_report,
    beam_select,
    brute_force_select,
    greedy_select,
)
from fedca.synthetic import random_selection_problem, random_unit_vectors

AFFINE = SimilarityMode.AFFINE_SHIFTED

E1 = np.array([1, 0, 0, 0], dtype=np.float32)
E2 = np.array([0, 1, 0, 0], dtype=np.float32)
E3 = np.array([0, 0, 1, 0], dtype=np.float32)


def _problem(client_vectors, reference=None, mode=SimilarityMode.RAW_COSINE):
    candidates = [
        CandidateCenters(client_id=k, centers=np.stack(vecs))
        for k, vecs in enumerate(client_vectors)
    ]
    return SelectionProblem(candidates_per_client=candidates, reference=reference, mode=mode)


def test_single_client_single_candidate():
    problem = _problem([[E1]])
    result = greedy_select(problem)
    assert [s.identity for s in result.slots] == [(0, 0)]
    assert result.passes == 1
    assert result.swaps == 0


def test_small_instance_attains_brute_force_optimum():
    # clients {e1, e2} and {e1, e3}, reference = pooled candidates
    problem = _problem([[E1, E2], [E1, E3]])
    greedy = greedy_select(problem)
    brute = brute_force_select(problem)
    pool_vecs = [c.vector for c in problem.pool()]
    oracle_val, oracle_combo = exhaustive_best_subset(pool_vecs, problem.reference_matrix(), 2)
    assert brute.coverage.value == pytest.approx(oracle_val, abs=1e-12)
    assert tuple(problem.pool().index(s) for s in brute.slots) == oracle_combo
    assert greedy.coverage.value == pytest.approx(oracle_val, abs=1e-12)


def test_greedy_trace_is_strictly_increasing():
    rng = np.random.default_rng(0)
    for seed in range(20):
        problem = random_selection_problem(3, 3, 8, seed=seed, mode=AFFINE)
        result = greedy_select(problem)
        for a, b in zip(result.trace, result.trace[1:]):
            assert b > a
        # reported coverage equals a from-scratch recompute
        recomputed = coverage(
            problem.reference_matrix(), result.slot_vectors(), problem.mode
        )
        assert result.coverage.value == recomputed.value


def test_greedy_coverage_at_least_initialization():
    for seed in range(10):
        problem = random_selection_problem(4, 3, 6, seed=100 + seed, mode=AFFINE)
        pool = problem.pool()
        by_client = {}
        for idx, cand in enumerate(pool):
            by_client.setdefault(cand.client, idx)
        init_vectors = np.stack([pool[i].vector for i in by_client.values()])
        init_cov = coverage(problem.reference_matrix(), init_vectors, problem.mode).value
        assert greedy_select(problem).coverage.value >= init_cov - 1e-12


def test_greedy_idempotent_on_own_output():
    problem = random_selection_problem(3, 3, 8, seed=5, mode=AFFINE)
    first = greedy_select(problem)
    # re-run with the converged slots as the initialization: zero swaps
    slot_ids = [s.identity for s in first.slots]
    candidates = []
    for k, cand in enumerate(sorted(problem.candidates_per_client, key=lambda c: c.client_id)):
        order = [c for c in range(cand.k)]
        picked = [cl for (client, cl) in slot_ids if client == cand.client_id]
        reordered = picked + [c for c in order if c not in picked]
        candidates.append(CandidateCenters(client_id=cand.client_id,
                                           centers=cand.centers[reordered]))
    reproblem = SelectionProblem(
        candidates_per_client=candidates,
        reference=np.asarray(problem.reference_matrix()),
        mode=problem.mode,
    )
    second = greedy_select(reproblem)
    assert second.swaps == 0
    assert second.coverage.value == pytest.approx(first.coverage.value, abs=1e-12)


def test_greedy_scale_invariance_under_reference_duplication():
    problem = random_selection_problem(3, 2, 6, seed=9, mode=AFFINE)
    ref = np.asarray(problem.reference_matrix())
    doubled = SelectionProblem(
        candidates_per_client=problem.candidates_per_client,
        reference=np.concatenate([ref, ref]),
        mode=problem.mode,
    )
    a = greedy_select(problem)
    b = greedy_select(doubled)
    assert [s.identity for s in a.slots] == [s.identity for s in b.slots]
    assert a.coverage.value == b.coverage.value


def test_greedy_near_optimality_random_suite():
    rng = np.random.default_rng(77)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        xi = int(rng.integers(2, 4))
        problem = random_selection_problem(n, xi, 8, seed=int(rng.integers(2**31)), mode=AFFINE)
        greedy = greedy_select(problem)
        optimum = brute_force_select(problem)
        assert greedy.coverage.value >= (1 - 1 / math.e) * optimum.coverage.value
        assert greedy.passes <= 3 * n


def test_greedy_random_init_and_literal_termination_run():
    problem = random_selection_problem(3, 3, 8, seed=4, mode=AFFINE)
    default = greedy_select(problem)
    random_init = greedy_select(problem, seed=11, init="random")
    literal = greedy_select(problem, literal_termination=True)
    assert random_init.coverage.value <= default.coverage.value + 1e-9
    assert literal.coverage.value <= default.coverage.value + 1e-12
    assert literal.passes >= 1


@pytest.mark.parametrize("literal", [False, True])
def test_greedy_stops_once_every_slot_is_idle(literal, monkeypatch):
    # The last swap of this instance is the second sweep's scan of slot 0. A
    # slot's scan depends only on the other slots, so the search stops after
    # n_slots idle scans (one with literal termination), not at a sweep's end.
    problem = random_selection_problem(3, 4, 6, seed=2)
    n_slots = problem.n_clients
    scans = []
    scan_slot = selection._scan_slot

    def recording(scorer, slot_indices, i, *rest):
        scans.append((i, list(slot_indices)))
        return scan_slot(scorer, slot_indices, i, *rest)

    monkeypatch.setattr(selection, "_scan_slot", recording)
    result = greedy_select(problem, literal_termination=literal)
    last_swap = max(j for j in range(len(scans) - 1) if scans[j + 1][1] != scans[j][1])
    assert (last_swap, scans[last_swap][0], result.swaps) == (n_slots, 0, 4)
    assert len(scans) == last_swap + 1 + (1 if literal else n_slots)
    assert result.passes == -(-len(scans) // n_slots)


def test_per_client_slots_restricts_origins():
    problem = random_selection_problem(4, 3, 8, seed=8, mode=AFFINE)
    constrained = greedy_select(problem, per_client_slots=True)
    assert sorted(s.client for s in constrained.slots) == [0, 1, 2, 3]
    unconstrained = greedy_select(problem)
    assert unconstrained.coverage.value >= constrained.coverage.value - 1e-12


def test_brute_force_budget_refusal_names_count():
    candidates = [
        CandidateCenters(client_id=k, centers=random_unit_vectors(10, 4, np.random.default_rng(k)))
        for k in range(10)
    ]
    problem = SelectionProblem(candidates_per_client=candidates)
    with pytest.raises(BudgetExceededError, match="17310309456440"):
        brute_force_select(problem)  # C(100, 10) ~ 1.73e13 over the 1e7 default


def _unreachable(*args, **kwargs):
    raise AssertionError("the beam was allocated")


def test_beam_refuses_expansions_beyond_the_budget_before_allocating(monkeypatch):
    candidates = [
        CandidateCenters(client_id=k, centers=random_unit_vectors(10, 4, np.random.default_rng(k)))
        for k in range(10)
    ]
    problem = SelectionProblem(candidates_per_client=candidates)
    small = random_selection_problem(3, 2, 6, seed=4)
    # P = 6, N = 3, width 2: 1 * 6 + 2 * 5 + 2 * 4 = 24 expansions
    assert approximation_report(small, [2], brute_budget=24).beam_coverage[2] > 0
    with pytest.raises(BudgetExceededError, match="beam refused: 24 expansions"):
        approximation_report(small, [2], brute_budget=23)
    monkeypatch.setattr(selection, "_CoverageScorer", _unreachable)
    monkeypatch.setattr(selection, "_beam_level", _unreachable)
    monkeypatch.setattr(selection, "greedy_select", _unreachable)
    # 100 + 100 * 99 + C(100, 2) * 98 + C(100, 3) * 97 + 10**6 * (96 + ... + 91)
    with pytest.raises(BudgetExceededError, match="577180000 expansions"):
        beam_select(problem, 10**6)
    with pytest.raises(BudgetExceededError, match="577180000 expansions"):
        approximation_report(problem, [2, 10**6])


def test_brute_force_degenerate_identical_candidates():
    vec = E1
    problem = _problem([[vec, vec], [vec, vec]])
    result = brute_force_select(problem)
    single = coverage(problem.reference_matrix(), vec[None, :]).value
    assert result.coverage.value == pytest.approx(single, abs=1e-12)
    # lexicographically first subset wins the tie
    assert [s.identity for s in result.slots] == [(0, 0), (0, 1)]


def test_beam_width_one_is_sequential_greedy():
    problem = _problem([[E1, E2], [E1, E3]])
    result = beam_select(problem, width=1)
    # level 1 picks (0,0) (ties lex), level 2 adds (0,1) for coverage 0.75
    assert [s.identity for s in result.slots] == [(0, 0), (0, 1)]
    assert result.coverage.value == pytest.approx(0.75, abs=1e-12)


def test_beam_full_width_equals_brute_force():
    rng = np.random.default_rng(31)
    for _ in range(15):
        problem = random_selection_problem(
            int(rng.integers(2, 4)), 2, 6, seed=int(rng.integers(2**31)), mode=AFFINE
        )
        width = math.comb(len(problem.pool()), problem.n_clients)
        beam = beam_select(problem, width)
        brute = brute_force_select(problem)
        assert beam.coverage.value == brute.coverage.value
        assert [s.identity for s in beam.slots] == [s.identity for s in brute.slots]


def test_beam_coverage_mostly_non_decreasing_in_width():
    # Width-monotonicity is a strong statistical regularity, not a theorem:
    # a wider beam can crowd out a narrower beam's chain with partial states
    # whose completions are worse (e.g. the instance from seed 1228853484,
    # where width 2 scores 0.8258 against width 1's 0.8568). Assert the
    # regularity over a frozen suite instead of per instance.
    rng = np.random.default_rng(32)
    violations = 0
    for _ in range(40):
        problem = random_selection_problem(3, 3, 8, seed=int(rng.integers(2**31)), mode=AFFINE)
        covs = [beam_select(problem, w).coverage.value for w in (1, 2, 4, 8)]
        if any(b < a - 1e-12 for a, b in zip(covs, covs[1:])):
            violations += 1
    assert violations <= 6  # observed: 4 of 40 on this frozen suite


def test_beam_rejects_bad_width():
    with pytest.raises(ValidationError):
        beam_select(_problem([[E1]]), width=0)


def test_approximation_report_ratio_definition():
    problem = random_selection_problem(3, 2, 6, seed=2, mode=AFFINE)
    report = approximation_report(problem, widths=[1, 4, 64])
    assert isinstance(report, ApproximationReport)
    assert report.best_beam_coverage == max(report.beam_coverage.values())
    assert report.ratio_to_beam_percent == pytest.approx(
        100.0 * report.greedy_coverage / report.best_beam_coverage
    )
    # tiny instance: brute force fits the budget, optimum reported
    assert report.optimum_coverage is not None
    assert report.ratio_to_optimum_percent <= 100.0 + 1e-9
    # greedy finds the optimum here: ratio 100%
    assert report.ratio_to_optimum_percent == pytest.approx(100.0, abs=1e-6)
    # every ratio respects the 1 - 1/e bound
    assert report.ratio_to_beam_percent >= (1 - 1 / math.e) * 100.0


def test_selection_json_round_trip():
    problem = random_selection_problem(3, 2, 5, seed=3, mode=AFFINE)
    result = greedy_select(problem)
    again = CenterSelection.from_json_dict(result.to_json_dict())
    assert [s.identity for s in again.slots] == [s.identity for s in result.slots]
    assert again.coverage.value == result.coverage.value
    assert again.trace == result.trace
    np.testing.assert_array_equal(again.slot_vectors(), result.slot_vectors())


def test_reference_matrix_leaves_the_callers_array_writeable():
    problem = random_selection_problem(3, 2, 5, seed=4)
    reference = problem.reference_matrix().copy()  # writeable float64
    problem = SelectionProblem(problem.candidates_per_client, reference=reference)
    greedy_select(problem)
    assert reference.flags.writeable
    assert not problem.reference_matrix().flags.writeable
    assert np.shares_memory(problem.reference_matrix(), reference)


def test_problem_validation():
    with pytest.raises(ValidationError, match="at least one client"):
        SelectionProblem(candidates_per_client=[])
    with pytest.raises(ValidationError, match="dimensions differ"):
        _problem([[E1], [np.array([1, 0], dtype=np.float32)]])
    with pytest.raises(ValidationError, match="duplicate client"):
        SelectionProblem(candidates_per_client=[
            CandidateCenters(client_id=0, centers=E1[None, :]),
            CandidateCenters(client_id=0, centers=E2[None, :]),
        ])
