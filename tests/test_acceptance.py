"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances and runtime budgets are asserted, not advisory.
"""

import json
import math
import time

import numpy as np
import pytest
from oracles import double_loop_coverage, full_sort_retrieval

from fedca.augment import retrieve_topk
from fedca.cli import main
from fedca.fedsim import ExperimentConfig, compare_strategies, heterogeneity_sweep
from fedca.geometry import SimilarityMode, coverage, facility_value, marginal_gain
from fedca.metrics import comm_cost, icacs, ruai
from fedca.selection import beam_select, brute_force_select, greedy_select
from fedca.store import write_binary
from fedca.synthetic import (
    planted_cluster_pool,
    random_selection_problem,
    random_store,
    random_unit_vectors,
)

AFFINE = SimilarityMode.AFFINE_SHIFTED
APPROX_BOUND = 1.0 - 1.0 / math.e


def _sign_test_p(successes: int, trials: int) -> float:
    """One-sided binomial tail P(X >= successes) under p = 1/2."""
    return sum(math.comb(trials, k) for k in range(successes, trials + 1)) / 2.0**trials


def _report(criterion: int, text: str) -> None:
    print(f"criterion {criterion:2d}: PASS - {text}")


# -------------------------------------------------------------- criteria 1-2


def test_criterion_01_coverage_exactness():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 17))
        ref = random_unit_vectors(int(rng.integers(1, 51)), dim, rng)
        cov = random_unit_vectors(int(rng.integers(1, 51)), dim, rng)
        got = coverage(ref, cov).value
        want = double_loop_coverage(ref, cov)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, f"1000 instances within 1e-9 of the double-loop oracle "
               f"(max diff {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_submodularity_and_monotonicity():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    min_slack = math.inf
    for _ in range(1000):
        dim = int(rng.integers(2, 13))
        ref = random_unit_vectors(int(rng.integers(1, 20)), dim, rng)
        small = random_unit_vectors(int(rng.integers(1, 5)), dim, rng)
        grown = np.concatenate([small, random_unit_vectors(int(rng.integers(1, 5)), dim, rng)])
        x = random_unit_vectors(1, dim, rng)
        gain_small = marginal_gain(ref, small, x[0], AFFINE)
        gain_grown = marginal_gain(ref, grown, x[0], AFFINE)
        assert gain_small >= gain_grown - 1e-9
        min_slack = min(min_slack, gain_small - gain_grown)
        for base in (small, grown):
            assert facility_value(ref, np.concatenate([base, x]), AFFINE) >= \
                facility_value(ref, base, AFFINE) - 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"1000 nested triples submodular and monotone "
               f"(min slack {min_slack:.2e}, {elapsed:.1f}s)")


# -------------------------------------------------------------- criteria 3-5


@pytest.fixture(scope="module")
def greedy_suite():
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    records = []
    for _ in range(200):
        n = int(rng.integers(2, 5))
        xi = int(rng.integers(2, 4))
        problem = random_selection_problem(
            n, xi, dim=8, seed=int(rng.integers(2**31)), mode=AFFINE
        )
        greedy = greedy_select(problem)
        optimum = brute_force_select(problem)
        records.append({
            "n": n,
            "ratio": greedy.coverage.value / optimum.coverage.value,
            "passes": greedy.passes,
        })
    return {"records": records, "elapsed": time.perf_counter() - start}


def test_criterion_03_greedy_near_optimality(greedy_suite):
    records = greedy_suite["records"]
    ratios = [r["ratio"] for r in records]
    assert all(r >= APPROX_BOUND for r in ratios)
    share_090 = sum(r >= 0.90 for r in ratios) / len(ratios)
    assert share_090 >= 0.95
    assert greedy_suite["elapsed"] < 60.0
    _report(3, f"200 instances: min ratio {min(ratios):.4f} (bound {APPROX_BOUND:.4f}), "
               f"{share_090:.1%} at >= 0.90x optimum ({greedy_suite['elapsed']:.1f}s)")


def test_criterion_04_beam_brute_equivalence():
    rng = np.random.default_rng(1004)
    start = time.perf_counter()
    for _ in range(50):
        n = int(rng.integers(2, 4))
        xi = 2 if n == 3 else int(rng.integers(2, 4))
        problem = random_selection_problem(
            n, xi, dim=6, seed=int(rng.integers(2**31)), mode=AFFINE
        )
        width = math.comb(len(problem.pool()), problem.n_clients)
        beam = beam_select(problem, width)
        brute = brute_force_select(problem)
        assert beam.coverage.value == brute.coverage.value
        assert [s.identity for s in beam.slots] == [s.identity for s in brute.slots]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(4, f"50 instances: full-width beam equals brute force exactly ({elapsed:.1f}s)")


def test_criterion_05_convergence_boundedness(greedy_suite):
    records = greedy_suite["records"]
    assert all(r["passes"] <= 3 * r["n"] for r in records)
    median_excess = float(np.median([r["passes"] - 2 * r["n"] for r in records]))
    assert median_excess <= 0
    max_ratio = max(r["passes"] / r["n"] for r in records)
    _report(5, f"all runs within 3N passes (max {max_ratio:.2f}N); "
               f"median within 2N")


# ---------------------------------------------------------------- criterion 6


def test_criterion_06_retrieval_exactness_and_threshold():
    rng = np.random.default_rng(1006)
    pool = random_store(300, 12, seed=106)
    start = time.perf_counter()
    for _ in range(500):
        query = random_unit_vectors(1, 12, rng)[0]
        k = int(rng.integers(1, 40))
        got = retrieve_topk(pool, query, k)
        want = full_sort_retrieval(pool.ids, pool.vectors, query, k)
        assert got.ids() == [i for _, i in want]
        filtered = retrieve_topk(pool, query, k, threshold=0.7)
        assert all(s <= 0.7 + 1e-7 for s in filtered.sims())
    elapsed = time.perf_counter() - start
    _report(6, f"500 queries match the full-sort oracle; alpha=0.7 respected ({elapsed:.1f}s)")


# ------------------------------------------------------------- criteria 7-8


@pytest.fixture(scope="module")
def planted_pool():
    pool, _ = planted_cluster_pool(
        n_clusters=10, per_cluster=200, out_records=4000, dim=32, seed=5,
        noise=0.18, direction_correlation=0.6,
    )
    return pool


def _planted_config(seed: int, **overrides) -> ExperimentConfig:
    base = dict(
        pool_path="in-memory", domain_label="dom", n_clients=10,
        per_client_local=50, per_client_aug=200, xi=5, alpha=0.7,
        beta_or_mode=0.1, rounds=1, clients_per_round=1, seed=seed,
        strategy="feddca", pseudo_label_clusters=10,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_criterion_07_strategy_ordering_on_planted_data(planted_pool):
    start = time.perf_counter()
    ordered = 0
    for seed in range(10):
        rows = compare_strategies(_planted_config(seed), ("feddca", "direct", "random"),
                                  pool=planted_pool)
        cov = {r["strategy"]: r["domain_coverage"] for r in rows}
        ordered += cov["feddca"] > cov["direct"] > cov["random"]
    assert ordered >= 9
    elapsed = time.perf_counter() - start
    _report(7, f"coverage strictly ordered feddca > direct > random on "
               f"{ordered}/10 seeds ({elapsed:.1f}s)")


def test_criterion_08_heterogeneity_sweep_shape(planted_pool):
    betas = [0.01, 0.1, 1.0, 10.0]
    start = time.perf_counter()
    direct_decreasing = 0
    random_stable = 0
    for seed in range(20):
        rows = heterogeneity_sweep(
            _planted_config(seed), betas, strategies=("direct", "random"),
            pool=planted_pool,
        )
        direct = {r["beta"]: r["domain_coverage"] for r in rows if r["strategy"] == "direct"}
        random_cov = [r["domain_coverage"] for r in rows if r["strategy"] == "random"]
        direct_decreasing += direct[0.01] > direct[10.0]
        random_stable += (max(random_cov) - min(random_cov)) < 0.01
    p_direct = _sign_test_p(direct_decreasing, 20)
    p_random = _sign_test_p(random_stable, 20)
    assert p_direct < 0.05
    assert p_random < 0.05
    elapsed = time.perf_counter() - start
    _report(8, f"direct coverage decreasing on {direct_decreasing}/20 seeds "
               f"(sign test p={p_direct:.1e}); random spread < 0.01 on "
               f"{random_stable}/20 (p={p_random:.1e}) ({elapsed:.0f}s)")


# ---------------------------------------------------------------- criterion 9


def test_criterion_09_metric_hand_checks():
    assert ruai([[1, 2], [2, 3]]) == 0.75
    e1 = np.array([1, 0, 0, 0], dtype=np.float32)
    identical = np.stack([e1] * 5)
    assert icacs([identical, identical], k=1, seed=0) == pytest.approx(1.0, abs=1e-6)
    assert comm_cost(10, 10, 1024, [])[0] == 102_400
    _report(9, "ruai({a,b},{b,c}) = 0.75; identical-client icacs = 1.0; "
               "upload(10, 10, 1024) = 102,400 floats")


# --------------------------------------------------------------- criterion 10


def test_criterion_10_end_to_end_replay(tmp_path, capsys):
    pool, _ = planted_cluster_pool(
        n_clusters=10, per_cluster=600, out_records=14_000, dim=64, seed=10,
        noise=0.2, direction_correlation=0.5,
    )
    write_binary(pool, tmp_path / "pool.fdca")
    config = {
        "version": 1, "pool_path": str(tmp_path / "pool.fdca"), "domain_label": "dom",
        "n_clients": 10, "per_client_local": 100, "per_client_aug": 1000, "xi": 10,
        "alpha": 0.7, "beta_or_mode": 0.1, "rounds": 30, "clients_per_round": 2,
        "seed": 42, "strategy": "feddca", "pseudo_label_clusters": 100,
    }
    (tmp_path / "exp.json").write_text(json.dumps(config))
    start = time.perf_counter()
    outs = []
    for run in ("r1", "r2"):
        rc = main(["run", "--config", str(tmp_path / "exp.json"),
                   "--out", str(tmp_path / run)])
        assert rc == 0
        outs.append(json.loads(capsys.readouterr().out))
    elapsed = time.perf_counter() - start
    assert all(o["messages"] == 10 + 1 + 10 + 30 for o in outs)
    logs = [
        (tmp_path / run / outs[i]["run_dir"].split("/")[-1] / "log.jsonl").read_bytes()
        for i, run in enumerate(("r1", "r2"))
    ]
    assert logs[0] == logs[1]
    assert elapsed < 120.0
    _report(10, f"two runs byte-identical with 51 protocol messages "
                f"({elapsed:.0f}s for both, pool 20k x dim 64)")
