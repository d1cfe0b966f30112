"""Built-in property suite, runnable from the CLI.

Each property generates its own seeded instances and checks the
implementation against an independently coded oracle or a structural
invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

import numpy as np

from . import geometry
from .geometry import SimilarityMode
from .selection import beam_select, brute_force_select, greedy_select
from .synthetic import random_selection_problem, random_store, random_unit_vectors

APPROX_BOUND = 1.0 - 1.0 / np.e


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str = ""


def _double_loop_coverage(reference: np.ndarray, covering: np.ndarray) -> float:
    per_point = []
    for r in reference.astype(np.float64):
        per_point.append(max(float(np.einsum("i,i->", r, c)) for c in covering.astype(np.float64)))
    return fsum(per_point) / len(per_point)


def _check_coverage_oracle(rng: np.random.Generator, trials: int) -> PropertyResult:
    worst = 0.0
    for _ in range(trials):
        dim = int(rng.integers(2, 9))
        ref = random_unit_vectors(int(rng.integers(1, 20)), dim, rng)
        cov = random_unit_vectors(int(rng.integers(1, 20)), dim, rng)
        got = geometry.coverage(ref, cov).value
        want = _double_loop_coverage(ref, cov)
        worst = max(worst, abs(got - want))
    return PropertyResult(
        "coverage_matches_double_loop_oracle", worst <= 1e-9, f"max |diff| = {worst:.3e}"
    )


def _check_monotonicity(rng: np.random.Generator, trials: int) -> PropertyResult:
    worst = float("inf")
    for _ in range(trials):
        dim = int(rng.integers(2, 9))
        ref = random_unit_vectors(int(rng.integers(1, 15)), dim, rng)
        base = random_unit_vectors(int(rng.integers(1, 6)), dim, rng)
        extra = random_unit_vectors(1, dim, rng)
        before = geometry.facility_value(ref, base, SimilarityMode.AFFINE_SHIFTED)
        after = geometry.facility_value(
            ref, np.concatenate([base, extra]), SimilarityMode.AFFINE_SHIFTED
        )
        worst = min(worst, after - before)
    return PropertyResult(
        "facility_value_monotone_affine", worst >= -1e-9, f"min gain = {worst:.3e}"
    )


def _check_submodularity(rng: np.random.Generator, trials: int) -> PropertyResult:
    worst = float("inf")
    for _ in range(trials):
        dim = int(rng.integers(2, 9))
        ref = random_unit_vectors(int(rng.integers(1, 15)), dim, rng)
        small = random_unit_vectors(int(rng.integers(1, 4)), dim, rng)
        grown = np.concatenate([small, random_unit_vectors(int(rng.integers(1, 4)), dim, rng)])
        x = random_unit_vectors(1, dim, rng)[0]
        gain_small = geometry.marginal_gain(ref, small, x, SimilarityMode.AFFINE_SHIFTED)
        gain_grown = geometry.marginal_gain(ref, grown, x, SimilarityMode.AFFINE_SHIFTED)
        worst = min(worst, gain_small - gain_grown)
    return PropertyResult(
        "marginal_gain_submodular_affine", worst >= -1e-9, f"min slack = {worst:.3e}"
    )


def _check_greedy_bound(rng: np.random.Generator, trials: int) -> PropertyResult:
    worst = float("inf")
    for _ in range(trials):
        seed = int(rng.integers(2**31))
        problem = random_selection_problem(
            n_clients=int(rng.integers(2, 4)), xi=2, dim=6, seed=seed,
            mode=SimilarityMode.AFFINE_SHIFTED,
        )
        greedy = greedy_select(problem).coverage.value
        optimum = brute_force_select(problem).coverage.value
        worst = min(worst, greedy / optimum)
    return PropertyResult(
        "greedy_within_1_minus_1_over_e_of_optimum",
        worst >= APPROX_BOUND,
        f"min ratio = {worst:.4f}",
    )


def _check_beam_exhaustive(rng: np.random.Generator, trials: int) -> PropertyResult:
    import math

    ok = True
    for _ in range(trials):
        seed = int(rng.integers(2**31))
        problem = random_selection_problem(
            n_clients=2, xi=2, dim=5, seed=seed, mode=SimilarityMode.AFFINE_SHIFTED
        )
        width = math.comb(len(problem.pool()), problem.n_clients)
        beam = beam_select(problem, width)
        brute = brute_force_select(problem)
        same = beam.coverage.value == brute.coverage.value and [
            s.identity for s in beam.slots
        ] == [s.identity for s in brute.slots]
        ok = ok and same
    return PropertyResult("beam_at_full_width_matches_brute_force", ok)


def _check_retrieval_oracle(rng: np.random.Generator, trials: int) -> PropertyResult:
    from .augment import retrieve_topk

    ok = True
    for t in range(trials):
        pool = random_store(30, 6, seed=int(rng.integers(2**31)))
        query = random_unit_vectors(1, 6, rng)[0]
        got = retrieve_topk(pool, query, 7)
        sims = [(float(np.einsum("i,i->", query.astype(np.float64), v.astype(np.float64))), int(i))
                for i, v in zip(pool.ids, pool.vectors)]
        want = sorted(sims, key=lambda p: (-p[0], p[1]))[:7]
        ok = ok and [i for _, i in want] == got.ids()
    return PropertyResult("retrieval_matches_sort_oracle", ok)


def run_selfcheck(seed: int = 2024) -> list[PropertyResult]:
    rng = np.random.default_rng(seed)
    results = [
        _check_coverage_oracle(rng, trials=100),
        _check_monotonicity(rng, trials=200),
        _check_submodularity(rng, trials=200),
        _check_greedy_bound(rng, trials=30),
        _check_beam_exhaustive(rng, trials=10),
        _check_retrieval_oracle(rng, trials=50),
    ]
    return results
