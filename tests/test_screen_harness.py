"""Adversarial screens: every screen GEMM returns values anywhere within the
bound on ``geometry._screen_blocks``, and no output byte moves.

That bound needs only that each screen value lies within 2e of its pair's
canonical value, e = gamma_d(u) * |x_i| * max_j |y_j| with u the screen's
unit roundoff (2**-24 for float32 operands, 2**-53 otherwise). Whatever a
BLAS library does at any thread count, it stays within e of the exact
product. The fake screens below replace every binding of
``geometry._screen_gemm`` by canonical values moved by
``amplitude * gamma_d(u) * |x_i| * |y_j|`` in the direction an adversary
picks. At amplitude 1.8 the 0.2e left over covers the float32 rounding of
the returned values at d >= 3, so every output must equal the real
screen's; a halved slack or a larger amplitude must show up somewhere, or
the near-tie instances would prove nothing. Coverage and k-means
assignment (``clustering._assign``) take the same k = 1 decision,
``geometry._screened_argmax``, on a blocked screen and on one screen of
all points, so their instances check that one decision on both. k-means
assignment screens float32 points against float64 centers, a zero center
among them, which the real ``_screen_gemm`` rounds to float32; its fakes
move the canonical values of the unrounded centers, and the same bound
covers that rounding on top.
"""

import json
import sys

import numpy as np
import pytest
from oracles import per_pair_best_similarity
from test_augment import NEAR_TIE_BUDGETS, _near_tie_retrieval, _repeat_retrieval
from test_clustering import _near_tie_assignment, _planted
from test_geometry import _near_tie_covering, _screens_used
from test_selection_exact import INSTANCES

from fedca import geometry
from fedca.augment import augments_to_json, direct_retrieval_augment
from fedca.clustering import assign_labels, kmeans
from fedca.fedsim import STRATEGIES, ExperimentConfig, run_experiment
from fedca.geometry import SimilarityMode, best_similarity
from fedca.selection import beam_select, brute_force_select, greedy_select
from fedca.store import write_binary
from fedca.synthetic import planted_cluster_pool, random_unit_vectors


def _top_down(canon: np.ndarray, axis: int) -> np.ndarray:
    """-1 at each row's (axis 1) or column's (axis 0) largest values, +1 elsewhere."""
    return np.where(canon == canon.max(axis=axis, keepdims=True), -1.0, 1.0)


ADVERSARIES = {
    "rows": lambda canon, rng: _top_down(canon, 1),
    "columns": lambda canon, rng: _top_down(canon, 0),
    "random": lambda canon, rng: rng.choice([-1.0, 1.0], size=canon.shape),
}


def _adversarial_screen(monkeypatch, adversary: str, amplitude: float = 1.8) -> list:
    """Replace every binding of ``geometry._screen_gemm`` by a fake that
    returns per-pair canonical values moved by ``amplitude * gamma_d(u) *
    |x_i| * |y_j|``, each up or down as the adversary picks. The returned
    list gets the shape of every screen the fake makes."""
    rng = np.random.default_rng(2024)
    original = geometry._screen_gemm
    screens = []

    def fake(rows: np.ndarray, others: np.ndarray) -> np.ndarray:
        screens.append((len(rows), len(others)))
        a, b = geometry._wide(rows), geometry._wide(others)
        canon = np.stack([geometry._row_dots(np.broadcast_to(x, b.shape), b) for x in a])
        u = geometry._SINGLE_ROUNDOFF if rows.dtype == np.float32 else geometry._UNIT_ROUNDOFF
        reach = amplitude * geometry._gamma(rows.shape[1], u)
        move = reach * np.outer(geometry._row_norms(a), geometry._row_norms(b))
        return (canon + ADVERSARIES[adversary](canon, rng) * move).astype(rows.dtype)

    bound = 0
    for name, module in list(sys.modules.items()):
        if name == "fedca" or name.startswith("fedca."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, fake)
                    bound += 1
    assert bound >= 2  # geometry's own and selection's
    return screens


def _halve_slack(monkeypatch) -> None:
    """Halve every binding of ``geometry._screen_slack``: the screens' and
    k-means assignment's."""
    slack = geometry._screen_slack
    for name, module in list(sys.modules.items()):
        if (name == "fedca" or name.startswith("fedca.")) and vars(module).get(
                "_screen_slack") is slack:
            monkeypatch.setattr(module, "_screen_slack", lambda dim, u: 0.5 * slack(dim, u))


def _coverage_cases() -> list[tuple[np.ndarray, np.ndarray]]:
    cases = []
    for dim in (3, 64, 1024):
        for dtype in (np.float64, np.float32):
            rng = np.random.default_rng(25 + dim)
            ref = random_unit_vectors(12, dim, rng).astype(dtype)
            cases.append((ref, _near_tie_covering(ref, rng, copies=24)))
    return cases


def _coverage_outputs() -> list[bytes]:
    return [best_similarity(ref, cov).tobytes() for ref, cov in _coverage_cases()]


def _certified_cases() -> list[tuple[np.ndarray, np.ndarray]]:
    """Float32 references of 24 rows whose covering set holds rows 12 to 23
    bit for bit, so those are certified without a screen, and near ties of
    rows 0 to 11, which are screened."""
    cases = []
    for dim in (3, 64, 1024):
        rng = np.random.default_rng(45 + dim)
        ref = random_unit_vectors(24, dim, rng)
        cases.append((ref, np.concatenate([ref[12:], _near_tie_covering(ref[:12], rng, 6)])))
    return cases


def _retrieval_outputs() -> list[str]:
    out = []
    for dim in (3, 64, 1024):
        pool, clients = _near_tie_retrieval(dim)
        out += [json.dumps(augments_to_json(direct_retrieval_augment(pool, clients, k)))
                for k in NEAR_TIE_BUDGETS]
        out += [json.dumps(augments_to_json(direct_retrieval_augment(pool, clients, k)))
                for pool, clients, k in _repeat_retrieval(dim)]
    return out


def _assignment_outputs() -> list[bytes]:
    """Labels of near-tie points against float64 centers (rounded to float32
    for a float32 screen) and against float32 centers, then the centers and
    cluster sizes of k-means on planted points, then labels of float32
    near-tie points against float64 centers with a zero row appended, which
    keep the float32 screen."""
    out = []
    for dim in (3, 64, 1024):
        for dtype in (np.float64, np.float32):
            pts, centers = _near_tie_assignment(12, dim, dtype, 5 + dim)
            out += [assign_labels(pts, c).tobytes() for c in (centers, centers.astype(np.float32))]
    for dtype in (np.float64, np.float32):
        result = kmeans(_planted(120, 16, 5, 0.3, dtype, 9), 6, seed=3)
        out.append(result.centers.tobytes() + result.cluster_sizes.tobytes())
    for dim in (3, 64, 1024):
        pts, centers = _near_tie_assignment(12, dim, np.float32, 5 + dim)
        out.append(assign_labels(pts, np.concatenate([centers, np.zeros((1, dim))])).tobytes())
    return out


def _selection_output(kind: str, mode: SimilarityMode) -> str:
    problem = INSTANCES[kind](mode)
    runs = [greedy_select(problem, 3, init=init, **options)
            for init in ("first", "random")
            for options in ({}, {"per_client_slots": True}, {"literal_termination": True})]
    runs += [beam_select(problem, width) for width in (1, 7, 10**6)]
    runs.append(brute_force_select(problem))
    return json.dumps([r.to_json_dict() for r in runs])


def _selection_outputs() -> dict:
    return {(kind, mode): _selection_output(kind, mode)
            for kind in sorted(INSTANCES) for mode in SimilarityMode}


@pytest.fixture(scope="module")
def pool_path(tmp_path_factory):
    store, _ = planted_cluster_pool(n_clusters=6, per_cluster=30, out_records=120, dim=16,
                                    seed=3, noise=0.18, direction_correlation=0.6)
    path = tmp_path_factory.mktemp("harness") / "pool.fdca"
    write_binary(store, path)
    return path


def _run_outputs(pool_path, out_dir) -> dict:
    """Every file of one run per strategy but its wall times, by name."""
    out = {}
    for strategy in STRATEGIES:
        cfg = ExperimentConfig(
            pool_path=str(pool_path), domain_label="dom", n_clients=3, per_client_local=12,
            per_client_aug=15, xi=3, alpha=0.7, beta_or_mode=0.1, rounds=2,
            clients_per_round=1, seed=1, strategy=strategy, pseudo_label_clusters=6)
        run_dir = run_experiment(cfg, out_dir=out_dir / strategy).run_dir
        out.update({f"{strategy}/{f.name}": f.read_bytes()
                    for f in sorted(run_dir.iterdir()) if f.name != "timing.json"})
    return out


@pytest.fixture(scope="module")
def real():
    """Outputs under the real screen."""
    return {"coverage": _coverage_outputs(), "retrieval": _retrieval_outputs(),
            "selection": _selection_outputs(), "assignment": _assignment_outputs()}


@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
def test_outputs_hold_under_any_screen_within_the_bound(adversary, real, monkeypatch):
    screens = _adversarial_screen(monkeypatch, adversary)
    assert _coverage_outputs() == real["coverage"]
    assert _retrieval_outputs() == real["retrieval"]
    assert _selection_outputs() == real["selection"]
    # retrieval: one screen per call, two for the 300 centroids of _repeat_retrieval
    assert len(screens) == 6 + 3 * (2 * len(NEAR_TIE_BUDGETS) + 2) + 2 * 10 * len(INSTANCES)


@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
def test_assignment_holds_under_any_screen_within_the_bound(adversary, real, monkeypatch):
    screens = _adversarial_screen(monkeypatch, adversary)
    used = _screens_used(monkeypatch)
    assert _assignment_outputs() == real["assignment"]
    # one screen per labelling, then one per k-means assignment, then the
    # three SGEMMs against centers with a zero row
    assert screens[:12] == [(12, 24)] * 12 and len(screens) > 17
    assert screens[-3:] == [(12, 25)] * 3
    assert used[-3:] == [geometry._SINGLE_ROUNDOFF] * 3


@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
def test_runs_hold_under_any_screen_within_the_bound(adversary, pool_path, tmp_path,
                                                     monkeypatch):
    want = _run_outputs(pool_path, tmp_path / "real")
    assert {name.split("/")[0] for name in want} == set(STRATEGIES)
    screens = _adversarial_screen(monkeypatch, adversary)
    assert _run_outputs(pool_path, tmp_path / "fake") == want
    assert screens


@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
def test_certified_rows_hold_under_any_screen_within_the_bound(adversary, monkeypatch):
    cases = _certified_cases()
    want = [best_similarity(ref, cov) for ref, cov in cases]
    for (ref, cov), best in zip(cases, want):
        assert np.array_equal(best, per_pair_best_similarity(ref, cov))
    screens = _adversarial_screen(monkeypatch, adversary)
    got = [best_similarity(ref, cov) for ref, cov in cases]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    # at dim 3 a near tie of rows 0 to 11 may also sit near rows 12 to 23
    assert screens[0][0] >= 12 and [rows for rows, _ in screens[1:]] == [12, 12]


def _changed(got: list, want: list) -> int:
    return sum(g != w for g, w in zip(got, want))


def test_halved_slack_shows_under_the_harness(real, monkeypatch):
    _halve_slack(monkeypatch)
    assert _coverage_outputs() == real["coverage"]  # the real screen is far inside
    _adversarial_screen(monkeypatch, "rows")
    assert _changed(_coverage_outputs(), real["coverage"]) >= 1
    monkeypatch.undo()
    _halve_slack(monkeypatch)
    _adversarial_screen(monkeypatch, "columns")
    for mode in SimilarityMode:
        got = _selection_output("screen-tied-maxima", mode)
        assert got != real["selection"]["screen-tied-maxima", mode], mode
    monkeypatch.undo()
    _halve_slack(monkeypatch)
    assert _assignment_outputs() == real["assignment"]
    _adversarial_screen(monkeypatch, "rows")
    assert _changed(_assignment_outputs()[:12], real["assignment"][:12]) >= 1


def test_amplitude_beyond_the_bound_shows_under_the_harness(real, monkeypatch):
    _adversarial_screen(monkeypatch, "rows", amplitude=4.0)
    assert _changed(_coverage_outputs(), real["coverage"]) >= 1
    assert _changed(_assignment_outputs()[:12], real["assignment"][:12]) >= 1
