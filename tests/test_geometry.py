import json
import tracemalloc

import numpy as np
import pytest
from oracles import double_loop_coverage, double_loop_facility, per_pair_best_similarity
from probes import probe_digests

from fedca import geometry
from fedca.clustering import assign_labels, kmeans
from fedca.errors import ValidationError
from fedca.geometry import (
    SimilarityMode,
    _distinct_top,
    _gemv_spans,
    best_similarity,
    cosine,
    coverage,
    facility_value,
    marginal_gain,
)
from fedca.synthetic import random_unit_vectors

RAW = SimilarityMode.RAW_COSINE
AFFINE = SimilarityMode.AFFINE_SHIFTED

E1 = np.array([1, 0, 0, 0], dtype=np.float32)
E2 = np.array([0, 1, 0, 0], dtype=np.float32)


def test_cosine_identity_orthogonal_antipodal():
    assert cosine(E1, E1) == 1.0
    assert cosine(E1, E2) == 0.0
    assert cosine(E1, -E1) == -1.0


def test_cosine_is_the_canonical_pair_value():
    rng = np.random.default_rng(21)
    a, b = random_unit_vectors(2, 1024, rng).astype(np.float64)
    for x, y in ((a, b), (b, a), (a * 3.0, b / 7.0)):
        assert cosine(x, y) == float(np.einsum("i,i->", x, y))


def test_cosine_dimension_mismatch():
    with pytest.raises(ValidationError, match="dimension mismatch"):
        cosine(E1, np.array([1.0, 0.0]))


def test_coverage_self_is_one():
    assert coverage(np.stack([E1]), np.stack([E1]), RAW).value == 1.0


def test_coverage_orthogonal_raw_and_affine():
    assert coverage(np.stack([E1]), np.stack([E2]), RAW).value == 0.0
    assert coverage(np.stack([E1]), np.stack([E2]), AFFINE).value == 0.5


def test_coverage_hand_value_against_oracle():
    # S1 = {e1, (e1+e2)/sqrt(2)}, S2 = {e1}: (1 + 1/sqrt(2)) / 2
    mid = ((E1 + E2) / np.sqrt(2.0)).astype(np.float32)
    ref = np.stack([E1, mid])
    got = coverage(ref, np.stack([E1]), RAW).value
    assert got == pytest.approx(double_loop_coverage(ref, np.stack([E1])), abs=1e-12)
    assert got == pytest.approx(0.853553, abs=5e-7)


def test_coverage_matches_double_loop_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        ref = random_unit_vectors(int(rng.integers(1, 30)), dim, rng)
        cov = random_unit_vectors(int(rng.integers(1, 30)), dim, rng)
        for mode, affine in ((RAW, False), (AFFINE, True)):
            got = coverage(ref, cov, mode).value
            assert got == pytest.approx(double_loop_coverage(ref, cov, affine), abs=1e-9)


def test_coverage_errors_on_empty_sets():
    with pytest.raises(ValidationError, match="empty"):
        coverage(np.empty((0, 4)), np.stack([E1]))
    with pytest.raises(ValidationError, match="empty"):
        coverage(np.stack([E1]), np.empty((0, 4)))


_FLAT = np.array([1.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("call, error", [
    (lambda: cosine(E1[None], E1), "a must be a 1-d vector"),
    (lambda: cosine(E1, E1[None]), "b must be a 1-d vector"),
    (lambda: best_similarity(E1, E1[None]), "reference must be a 2-d vector"),
    (lambda: best_similarity(E1[None], E1), "covering must be a 2-d vector"),
    (lambda: marginal_gain(E1, E1[None], E2), "reference must be a 2-d vector"),
    (lambda: marginal_gain(E1[None], E1[None], E2[None]), "candidate must be a 1-d vector"),
    (lambda: kmeans(_FLAT, 1, seed=0), "points must be a 2-d vector"),
    (lambda: assign_labels(_FLAT, E1[None]), "points must be a 2-d vector"),
    (lambda: assign_labels(E1[None], _FLAT), "centers must be a 2-d vector"),
    (lambda: assign_labels(E1[None], E1[None][:0]), "centers set is empty"),
    (lambda: assign_labels(E1[None][:0], E1[None]), None),  # no points: no labels
    (lambda: assign_labels(E1[None][:0], E1[None][:, :3]), "dimension mismatch"),
    (lambda: assign_labels(E1[None][:0], E1[None][:0]), "centers set is empty"),
], ids=["cosine-a", "cosine-b", "best_similarity-reference", "best_similarity-covering",
        "marginal_gain-reference", "marginal_gain-candidate", "kmeans-points",
        "assign_labels-points", "assign_labels-centers", "assign_labels-no-centers",
        "assign_labels-no-points", "assign_labels-no-points-wrong-width",
        "assign_labels-no-points-no-centers"])
def test_bad_input_is_rejected_naming_the_argument(call, error):
    if error is None:
        assert call().tolist() == []
        return
    with pytest.raises(ValidationError, match=f"^{error}"):
        call()


def test_facility_value_is_coverage_times_reference_size():
    rng = np.random.default_rng(7)
    ref = random_unit_vectors(4, 6, rng)
    sel = random_unit_vectors(2, 6, rng)
    cov = coverage(ref, sel, RAW)
    assert facility_value(ref, sel, RAW) == cov.value * 4


def test_facility_value_definitional_cases():
    ref = random_unit_vectors(5, 8, np.random.default_rng(3))
    # selected = reference: every point matches itself
    assert facility_value(ref, ref, RAW) == pytest.approx(5.0, abs=1e-5)
    got = facility_value(ref, ref[:2], RAW)
    assert got == pytest.approx(double_loop_facility(ref, ref[:2]), abs=1e-9)


def test_marginal_gain_duplicate_candidate_is_zero():
    rng = np.random.default_rng(5)
    ref = random_unit_vectors(6, 4, rng)
    sel = random_unit_vectors(3, 4, rng)
    assert marginal_gain(ref, sel, sel[1], RAW) == 0.0
    assert marginal_gain(ref, sel, sel[1], AFFINE) == 0.0


def test_marginal_gain_empty_selected_affine_floor():
    assert marginal_gain(np.stack([E1]), [], E1, AFFINE) == 1.0
    # raw floor is -1: gain of e1 over a single reference e1 is 1 - (-1) = 2
    assert marginal_gain(np.stack([E1]), [], E1, RAW) == 2.0


def test_marginal_gain_matches_facility_difference():
    rng = np.random.default_rng(11)
    for _ in range(50):
        dim = int(rng.integers(2, 10))
        ref = random_unit_vectors(int(rng.integers(1, 20)), dim, rng)
        sel = random_unit_vectors(int(rng.integers(1, 6)), dim, rng)
        x = random_unit_vectors(1, dim, rng)[0]
        for mode in (RAW, AFFINE):
            grown = np.concatenate([sel, x[None, :]])
            diff = facility_value(ref, grown, mode) - facility_value(ref, sel, mode)
            assert marginal_gain(ref, sel, x, mode) == pytest.approx(diff, abs=1e-9)


def test_monotonicity_affine_random_instances():
    rng = np.random.default_rng(21)
    for _ in range(300):
        dim = int(rng.integers(2, 10))
        ref = random_unit_vectors(int(rng.integers(1, 15)), dim, rng)
        sel = random_unit_vectors(int(rng.integers(1, 5)), dim, rng)
        x = random_unit_vectors(1, dim, rng)
        before = facility_value(ref, sel, AFFINE)
        after = facility_value(ref, np.concatenate([sel, x]), AFFINE)
        assert after >= before - 1e-12


def test_submodularity_nested_pairs():
    rng = np.random.default_rng(22)
    for _ in range(300):
        dim = int(rng.integers(2, 10))
        ref = random_unit_vectors(int(rng.integers(1, 15)), dim, rng)
        small = random_unit_vectors(int(rng.integers(1, 4)), dim, rng)
        grown = np.concatenate([small, random_unit_vectors(int(rng.integers(1, 4)), dim, rng)])
        x = random_unit_vectors(1, dim, rng)[0]
        for mode in (RAW, AFFINE):
            assert marginal_gain(ref, small, x, mode) >= marginal_gain(ref, grown, x, mode) - 1e-9


def test_affine_shift_preserves_argmax_and_ranking():
    rng = np.random.default_rng(23)
    ref = random_unit_vectors(10, 6, rng)
    candidates = random_unit_vectors(8, 6, rng)
    raw_scores = [coverage(ref, candidates[i : i + 1], RAW).value for i in range(8)]
    aff_scores = [coverage(ref, candidates[i : i + 1], AFFINE).value for i in range(8)]
    assert int(np.argmax(raw_scores)) == int(np.argmax(aff_scores))
    assert np.argsort(raw_scores).tolist() == np.argsort(aff_scores).tolist()


def test_chunked_max_reduction_is_bit_identical():
    rng = np.random.default_rng(24)
    ref = random_unit_vectors(37, 9, rng)
    cov = random_unit_vectors(23, 9, rng)
    full = best_similarity(ref, cov)
    for chunk in (1, 2, 5, 7, 23):
        parts = [best_similarity(ref, cov[i : i + chunk]) for i in range(0, 23, chunk)]
        merged = parts[0]
        for p in parts[1:]:
            merged = np.maximum(merged, p)
        assert np.array_equal(merged, full)
    # reference chunking composes exactly too
    ref_parts = np.concatenate([best_similarity(ref[:10], cov), best_similarity(ref[10:], cov)])
    assert np.array_equal(ref_parts, full)


def _near_tie_covering(ref: np.ndarray, rng: np.random.Generator, copies: int) -> np.ndarray:
    """Exact duplicates of reference rows, copies nudged by a few ulps of the
    reference's dtype, and noise, all in that dtype."""
    rows = np.arange(ref.shape[0])[:, None]
    nudged = []
    for _ in range(copies):
        v = ref.copy()
        cols = rng.integers(0, ref.shape[1], size=(ref.shape[0], 3))
        direction = np.where(rng.random(cols.shape) < 0.5, -np.inf, np.inf).astype(ref.dtype)
        for _ in range(int(rng.integers(1, 4))):
            v[rows, cols] = np.nextafter(v[rows, cols], direction)
        nudged.append(v)
    noise = random_unit_vectors(ref.shape[0], ref.shape[1], rng).astype(ref.dtype)
    return np.concatenate([ref, *nudged, noise])


@pytest.mark.parametrize("dim", [3, 64, 1024])
def test_best_similarity_equals_per_pair_oracle_on_near_ties(dim):
    rng = np.random.default_rng(25 + dim)
    ref = random_unit_vectors(12, dim, rng).astype(np.float64)
    cov = _near_tie_covering(ref, rng, copies=24)
    want = per_pair_best_similarity(ref, cov)
    assert np.array_equal(best_similarity(ref, cov), want)
    for _ in range(3):
        assert np.array_equal(best_similarity(ref, cov[rng.permutation(len(cov))]), want)


def test_best_similarity_is_row_local_across_screen_blocks():
    # 5,200 covering rows split the 400 reference rows over several screen blocks.
    rng = np.random.default_rng(26)
    ref = random_unit_vectors(400, 8, rng).astype(np.float64)
    cov = _near_tie_covering(ref, rng, copies=11)
    full = best_similarity(ref, cov)
    rowwise = np.concatenate([best_similarity(ref[i : i + 1], cov) for i in range(len(ref))])
    assert np.array_equal(full, rowwise)
    assert np.array_equal(full[::40], per_pair_best_similarity(ref[::40], cov))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_nan_rows_give_nan_maxima(dtype):
    rng = np.random.default_rng(29)
    ref = random_unit_vectors(6, 16, rng).astype(dtype)
    cov = random_unit_vectors(9, 16, rng).astype(dtype)
    bad_ref = ref.copy()
    bad_ref[2, 5] = np.nan
    got = best_similarity(bad_ref, cov)
    assert np.isnan(got[2])
    rest = [0, 1, 3, 4, 5]
    assert np.array_equal(got[rest], per_pair_best_similarity(ref[rest], cov))
    bad_cov = cov.copy()
    bad_cov[4, 0] = np.nan
    assert np.isnan(best_similarity(ref, bad_cov)).all()


def test_best_similarity_screen_memory_is_bounded_per_row_block():
    rng = np.random.default_rng(32)
    ref = random_unit_vectors(3_000, 16, rng).astype(np.float64)
    cov = random_unit_vectors(2_000, 16, rng).astype(np.float64)
    tracemalloc.start()
    try:
        got = best_similarity(ref, cov)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One screen of all rows would hold 3,000 x 2,000 floats, 48 MB.
    assert peak < 12 << 20
    assert np.array_equal(got[::250], per_pair_best_similarity(ref[::250], cov))


def _screened_rows(monkeypatch) -> list[np.ndarray]:
    """The rows each ``geometry._screen_gemm`` call screens while the
    returned list is live, widened to float64."""
    screened = []
    screen = geometry._screen_gemm

    def spy(rows, others):
        screened.append(rows.astype(np.float64))
        return screen(rows, others)

    monkeypatch.setattr(geometry, "_screen_gemm", spy)
    return screened


def test_best_similarity_screens_only_rows_without_a_copy(monkeypatch):
    # Random unit rows at dim 64 lie far apart, so every reference row with a
    # copy in the covering set is certified and only the others are screened.
    rng = np.random.default_rng(40)
    ref = random_unit_vectors(300, 64, rng)
    order = rng.permutation(300)
    cov = np.concatenate([ref[order[:200]], random_unit_vectors(40, 64, rng)])
    screened = _screened_rows(monkeypatch)
    got = best_similarity(ref, cov)
    rest = np.sort(order[200:])
    assert np.array_equal(np.concatenate(screened), ref[rest].astype(np.float64))
    own = ref[order[:200]].astype(np.float64)
    assert np.array_equal(got[order[:200]], np.einsum("ij,ij->i", own, own))
    assert np.array_equal(got[::7], per_pair_best_similarity(ref[::7], cov))


def _rescored_pairs(monkeypatch) -> list[int]:
    """Pairs each ``geometry._canonical_dots`` call rescores while the list
    is live."""
    pairs = []
    dots = geometry._canonical_dots

    def counted(rows, at, *args):
        pairs.append(len(at))
        return dots(rows, at, *args)

    monkeypatch.setattr(geometry, "_canonical_dots", counted)
    return pairs


def test_coverage_rescores_one_pair_per_screened_row_without_near_ties(monkeypatch):
    # Random float64 rows: each screened row keeps one column, takes it
    # unrescored and is rescored once, with that column.
    rng = np.random.default_rng(49)
    ref = random_unit_vectors(600, 64, rng).astype(np.float64)
    cov = np.concatenate([ref[:100], random_unit_vectors(50, 64, rng).astype(np.float64)])
    screened = _screened_rows(monkeypatch)
    pairs = _rescored_pairs(monkeypatch)
    got = best_similarity(ref, cov)
    assert sum(pairs) == len(np.concatenate(screened)) == 500
    assert np.array_equal(got[::10], per_pair_best_similarity(ref[::10], cov))


def test_coverage_rescores_at_most_the_kept_pairs_of_open_rows(monkeypatch):
    # Near-tie covering rows keep many columns per row. Each row is rescored
    # with its column, plus every kept pair of a row that keeps more than one.
    rng = np.random.default_rng(50)
    ref = random_unit_vectors(300, 64, rng).astype(np.float64)
    cov = _near_tie_covering(ref[:12], rng, copies=4)
    screened = _screened_rows(monkeypatch)
    pairs = _rescored_pairs(monkeypatch)
    got = best_similarity(ref, cov)
    rescored = sum(pairs)
    rows = np.concatenate(screened)
    monkeypatch.undo()
    at = [i for i, x in enumerate(ref) if np.all(rows == x, axis=1).any()]
    kept = np.concatenate([
        np.count_nonzero(~(screen < geometry._floor(screen.max(axis=1), slack,
                                                    screen.dtype)[:, None]), axis=1)
        for _, screen, slack, _ in geometry._screen_blocks(
            geometry._screen_rows(ref, "reference"), geometry._screen_rows(cov, "covering"),
            subset=np.array(at))
    ])
    assert len(at) == len(rows) and kept[:12].min() > 1
    assert len(rows) < rescored <= len(rows) + kept[kept > 1].sum()
    assert np.array_equal(got, per_pair_best_similarity(ref, cov))


def test_float32_reference_against_float64_copies_is_certified_by_value(monkeypatch):
    # A float32 reference against a float64 covering set: rows 0 to 9 have
    # copies of equal value, row 3's differing only in the sign of a zero.
    # Equal values give equal canonical products, so all ten are certified,
    # and the other rows screen in float32 without a cast of either operand.
    rng = np.random.default_rng(47)
    ref = random_unit_vectors(40, 64, rng)
    ref[3, 5] = 0.0
    copies = ref[:10].astype(np.float64)
    copies[3, 5] = -0.0
    cov = np.concatenate([copies, random_unit_vectors(30, 64, rng).astype(np.float64)])
    cov = cov[rng.permutation(len(cov))]
    screened = _screened_rows(monkeypatch)
    used = _screens_used(monkeypatch)
    got = best_similarity(ref, cov)
    assert np.array_equal(got, per_pair_best_similarity(ref, cov))
    assert np.array_equal(np.concatenate(screened), ref[10:].astype(np.float64))
    assert used == [geometry._SINGLE_ROUNDOFF]
    own = ref[:10].astype(np.float64)
    assert np.array_equal(got[:10], np.einsum("ij,ij->i", own, own))


def test_an_sgemm_screen_rounds_float64_others_once(monkeypatch):
    # 600 float32 reference rows screen in three blocks against a float64
    # covering set of unrelated rows; each block's SGEMM reads the same
    # float32 rounding of the covering set, made once for the whole screen.
    rng = np.random.default_rng(48)
    ref = random_unit_vectors(600, 64, rng)
    cov = random_unit_vectors(50, 64, rng).astype(np.float64)
    seen = []
    screen = geometry._screen_gemm

    def spy(rows, others):
        seen.append(others)
        return screen(rows, others)

    monkeypatch.setattr(geometry, "_screen_gemm", spy)
    got = best_similarity(ref, cov)
    assert len(seen) == 3
    assert all(others.dtype == np.float32 and others is seen[0] for others in seen)
    assert np.array_equal(seen[0], cov.astype(np.float32))
    assert np.array_equal(got, per_pair_best_similarity(ref, cov))


def _self_covered_cases(dim: int, rng: np.random.Generator) -> dict:
    """(reference, covering, reference rows the screen must see) per case.
    The covering set holds rows 0 to 29 of a float32 reference once each,
    row 5 being zero, shuffled with 30 random rows; the cases add to it."""
    ref = random_unit_vectors(40, dim, rng)
    ref[5] = 0.0
    cov = np.concatenate([ref[:30], random_unit_vectors(30, dim, rng)])[rng.permutation(60)]
    uncovered = list(range(30, 40))
    nan = cov.copy()
    nan[3, 1] = np.nan
    # row 0's first 8 bytes (two float32 coordinates), the rest negated: far
    # from row 0 however its coordinates are chosen
    collision = np.concatenate([ref[0, :2], -ref[0, 2:]])
    # row 0's copy replaced by a neighbour within its reach that is not a copy
    lone = cov.copy()
    lone[np.all(cov == ref[0], axis=1)] = ref[0] * np.float32(1 - 2.0**-22)
    cases = {
        "duplicate": (ref, np.concatenate([cov, ref[:1]]), [0, 5, *uncovered]),
        # a copy scaled by 1 + 2**-20 beats row 0's own value
        "scaled": (ref, np.concatenate([cov, ref[:1] * np.float32(1 + 2.0**-20)]),
                   [0, 5, *uncovered]),
        "float64-reference": (ref.astype(np.float64), cov, [5, *uncovered]),
        "nan": (ref, nan, list(range(40))),
        "key-collision": (ref, np.concatenate([cov, collision[None]]), [5, *uncovered]),
        "lone-neighbour": (ref, lone, [0, 5, *uncovered]),
    }
    # One infinite coordinate in uncovered reference row 35, in an added
    # covering row, or in both at the same coordinate, with row 5 and its copy
    # made nonzero so that no pair multiplies zero by infinity: every value
    # is finite or infinite, never NaN. An infinite covering norm turns the
    # self-covered check off.
    finite_ref, finite_cov = ref.copy(), cov.copy()
    finite_ref[5] = finite_cov[np.all(cov == 0, axis=1)] = random_unit_vectors(1, dim, rng)[0]
    added = random_unit_vectors(1, dim, rng)
    for sign in "+-":
        for where in ("reference", "covering", "both"):
            inf_ref, inf_cov = finite_ref.copy(), np.concatenate([finite_cov, added])
            if where != "covering":
                inf_ref[35, 1] = float(f"{sign}inf")
            if where != "reference":
                inf_cov[-1, 1] = float(f"{sign}inf")
            screen = uncovered if where == "reference" else list(range(40))
            for dtype in ("float32", "float64"):
                cases[f"{sign}inf-{where}-{dtype}"] = (
                    inf_ref.astype(dtype), inf_cov.astype(dtype), screen)
    return cases


INFINITE_CASES = [f"{sign}inf-{where}-{dtype}" for sign in "+-"
                  for where in ("reference", "covering", "both")
                  for dtype in ("float32", "float64")]


@pytest.mark.parametrize("dim", [3, 64, 1024])
@pytest.mark.parametrize("case", ["duplicate", "scaled", "float64-reference", "nan",
                                  "key-collision", "lone-neighbour", *INFINITE_CASES])
def test_self_covered_rows_equal_the_per_pair_oracle(case, dim, monkeypatch):
    ref, cov, must_screen = _self_covered_cases(dim, np.random.default_rng(41 + dim))[case]
    screened = _screened_rows(monkeypatch)
    got = best_similarity(ref, cov)
    if case == "nan":
        assert np.isnan(got).all()
    else:
        assert np.array_equal(got, per_pair_best_similarity(ref, cov))
    seen = np.concatenate(screened)
    rows = {i for i, x in enumerate(ref.astype(np.float64)) if np.all(seen == x, axis=1).any()}
    # at dim 3 a near neighbour may send more rows to the screen
    assert rows == set(must_screen) if dim > 3 else rows >= set(must_screen)
    if case == "scaled":
        x = ref[0].astype(np.float64)
        assert got[0] > np.einsum("i,i->", x, x)


def test_reference_rows_longer_than_every_covering_row_raise_nothing():
    # Row 0 is twice as long as any covering row, so no covering row can be
    # its copy and the check must not take the root of a negative reach.
    rng = np.random.default_rng(43)
    ref = random_unit_vectors(40, 64, rng)
    ref[0] *= 2
    cov = np.concatenate([ref[1:30], random_unit_vectors(30, 64, rng)])
    with np.errstate(invalid="raise"):
        got = best_similarity(ref, cov)
    assert np.array_equal(got, per_pair_best_similarity(ref, cov))


def test_best_similarity_takes_each_operands_squared_norms_once(monkeypatch):
    rng = np.random.default_rng(44)
    ref = random_unit_vectors(300, 64, rng)
    cov = np.concatenate([ref[:200], random_unit_vectors(40, 64, rng)])
    passes = []
    squared_norms = geometry._squared_norms

    def spy(x):
        passes.append(x.shape[0])
        return squared_norms(x)

    monkeypatch.setattr(geometry, "_squared_norms", spy)
    screened = _screened_rows(monkeypatch)
    got = best_similarity(ref, cov)
    # both the check and the screen ran, on one norm pass per operand
    assert sorted(passes) == [240, 300]
    assert sum(len(rows) for rows in screened) == 100
    assert np.array_equal(got, per_pair_best_similarity(ref, cov))


def test_self_covered_check_reads_no_coordinates_without_a_copy(monkeypatch):
    # No reference row has a copy among the covering rows: no squared norm
    # matches, and the check returns before it sorts the covering rows.
    rng = np.random.default_rng(45)
    ref = random_unit_vectors(2_000, 64, rng)
    cov = random_unit_vectors(10, 64, rng)
    sorted_sets = []
    spread_coords = geometry._spread_coords

    def spy(b):
        sorted_sets.append(b.shape[0])
        return spread_coords(b)

    monkeypatch.setattr(geometry, "_spread_coords", spy)
    assert np.array_equal(best_similarity(ref, cov), per_pair_best_similarity(ref, cov))
    assert sorted_sets == []
    # one copy brings the check back, and it certifies that copy
    screened = _screened_rows(monkeypatch)
    cov = np.concatenate([cov, ref[7:8]])
    assert np.array_equal(best_similarity(ref, cov), per_pair_best_similarity(ref, cov))
    assert sorted_sets == [11]
    assert sum(len(rows) for rows in screened) == 1_999


def _traced_peak(call):
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_self_covered_check_memory_is_bounded_per_row_block():
    # One covering row of norm 10 widens every row's window to the whole
    # covering set; each window is then too wide to check, not held.
    rng = np.random.default_rng(42)
    ref = random_unit_vectors(3_000, 16, rng).astype(np.float64)
    cov = np.concatenate([ref[:2_000], 10.0 * ref[2_000:2_001]])
    got, peak = _traced_peak(lambda: best_similarity(ref, cov))
    assert peak < 12 << 20
    assert np.array_equal(got[::250], per_pair_best_similarity(ref[::250], cov))
    # A few certified rows: the other rows are screened where they lie, and
    # no copy of the 20 MB reference is made.
    ref = random_unit_vectors(40_000, 64, rng).astype(np.float64)
    got, peak = _traced_peak(lambda: best_similarity(ref, ref[:10]))
    assert peak < 4 << 20
    assert np.array_equal(got[:10], np.einsum("ij,ij->i", ref[:10], ref[:10]))
    assert np.array_equal(got[::4_000], per_pair_best_similarity(ref[::4_000], ref[:10]))


_THREAD_PROBE = """
import hashlib
import numpy as np
from fedca.geometry import best_similarity
rng = np.random.default_rng(7)
def unit(n):
    x = rng.standard_normal((n, 1024))
    return (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.{dtype})
ref, cov = unit(400), unit(301)
print(hashlib.sha256(best_similarity(ref, cov).tobytes()).hexdigest())
"""


def test_best_similarity_is_invariant_to_blas_threads():
    # With OpenBLAS 0.3.31, raw GEMM row maxima of this instance differ at 1 and 2 threads.
    digests = probe_digests(_THREAD_PROBE.format(dtype="float64"), threads=(1, 2, 3, 4))
    assert len(set(digests)) == 1


def test_best_similarity_float32_is_invariant_to_blas_threads():
    # The SGEMM screen. With OpenBLAS 0.3.31 on x86-64 its raw row maxima of
    # this instance were the same at 1 and 2 threads, so this guards BLAS
    # builds whose SGEMM splits its sums by thread.
    digests = probe_digests(_THREAD_PROBE.format(dtype="float32"), threads=(1, 2, 3, 4))
    assert len(set(digests)) == 1


def _screens_used(monkeypatch) -> list[float]:
    """Unit roundoffs of the screens run while the returned list is live."""
    used = []
    choose = geometry._screen_roundoff

    def spy(*args):
        used.append(choose(*args))
        return used[-1]

    monkeypatch.setattr(geometry, "_screen_roundoff", spy)
    return used


def _pool(rows: np.ndarray) -> geometry._ScreenRows:
    """The pool's half of ``_distinct_top``'s screens."""
    return geometry._screen_rows(rows, "pool")


def _ranking(pool: np.ndarray, query: np.ndarray, ties: np.ndarray) -> tuple[list, np.ndarray]:
    """Every pool row by per-pair canonical value descending, ties by
    ``ties`` ascending, and those values."""
    canon = np.array([np.einsum("i,i->", x, query) for x in pool.astype(np.float64)])
    return np.lexsort((ties, -canon)).tolist(), canon


def _own_top(pool: np.ndarray, queries: np.ndarray, quotas: list) -> list:
    """``_distinct_top`` with every query its own group, ties by row."""
    return _distinct_top(_pool(pool), queries, quotas, range(len(quotas)), np.arange(len(pool)))


def _orbit_covering(ref: np.ndarray, rng: np.random.Generator, per_row: int) -> np.ndarray:
    """float32 rows on a circle around each reference row: c * x + s * w with
    w a random unit vector orthogonal to x, so every row of x's orbit has the
    same exact cosine c with x up to the float32 rounding of the row, while
    the directions, and so the screen's rounding errors, differ."""
    rows = []
    for x in ref.astype(np.float64):
        c = rng.uniform(0.3, 0.95)
        w = rng.standard_normal((per_row, ref.shape[1]))
        w -= np.outer(w @ x, x) / (x @ x)
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        rows.append(c * x / np.linalg.norm(x) + np.sqrt(1.0 - c * c) * w)
    return np.concatenate(rows).astype(np.float32)


@pytest.mark.parametrize("dim", [3, 64, 1024])
def test_float32_input_equals_its_float64_widening(dim, monkeypatch):
    rng = np.random.default_rng(30 + dim)
    ref = random_unit_vectors(40, dim, rng)
    instances = [
        (ref, random_unit_vectors(57, dim, rng)),
        (ref[:12], _near_tie_covering(ref[:12], rng, copies=24)),
        (ref[:12], _orbit_covering(ref[:12], rng, per_row=16)),
    ]
    used = _screens_used(monkeypatch)
    for ref32, cov32 in instances:
        ref64, cov64 = ref32.astype(np.float64), cov32.astype(np.float64)
        want = per_pair_best_similarity(ref64, cov64)
        assert np.array_equal(best_similarity(ref64, cov64), want)
        assert np.array_equal(best_similarity(ref32, cov32), want)
        quotas = [1, 4, 9, len(cov32) - 1] * (len(ref32) // 4)
        wide = _own_top(cov64, ref64[: len(quotas)], quotas)
        narrow = _own_top(cov32, ref32[: len(quotas)], quotas)
        for (rows64, sims64), (rows32, sims32), q, k in zip(wide, narrow, ref64, quotas):
            ranking, canon = _ranking(cov64, q, np.arange(len(cov64)))
            assert rows32.tolist() == rows64.tolist() == ranking[:k]
            assert np.array_equal(sims32, canon[rows32])
            assert np.array_equal(sims64, canon[rows64])
    assert used == [geometry._UNIT_ROUNDOFF, geometry._SINGLE_ROUNDOFF] * 6


@pytest.mark.parametrize("scale", [2.0**40, 2.0**-40])
def test_float32_norms_out_of_range_take_the_float64_screen(scale, monkeypatch):
    rng = np.random.default_rng(31)
    ref = random_unit_vectors(12, 64, rng)
    # powers of two scale exactly: near ties stay near ties
    ref, cov = ref * np.float32(scale), _near_tie_covering(ref, rng, copies=6) * np.float32(scale)
    used = _screens_used(monkeypatch)
    got = best_similarity(ref, cov)
    found = _own_top(cov, ref, [3] * len(ref))
    assert used == [geometry._UNIT_ROUNDOFF] * 2
    assert np.array_equal(got, per_pair_best_similarity(ref, cov))
    assert np.array_equal(got, best_similarity(ref.astype(np.float64), cov.astype(np.float64)))
    for (rows, sims), q in zip(found, ref.astype(np.float64)):
        ranking, canon = _ranking(cov, q, np.arange(len(cov)))
        assert rows.tolist() == ranking[:3]
        assert np.array_equal(sims, canon[rows])


def test_float32_screen_applies_only_within_the_norm_range():
    single, double, unit = np.dtype(np.float32), np.dtype(np.float64), np.ones(4)

    def half(dtype, norms):
        norms = np.asarray(norms, dtype=np.float64)
        return geometry._screen_rows(np.ones((len(norms), 1), dtype), "half", norms)

    def roundoff(dtypes, norms, others_norms):
        return geometry._screen_roundoff(half(dtypes[0], norms), half(dtypes[1], others_norms))

    assert roundoff((single, single), unit, unit) == 2.0**-24
    assert roundoff((double, double), unit, unit) == 2.0**-53
    for norms, top in [(unit, 2.0**61), (unit, 2.0**-61), (unit * np.nan, 1.0),
                       (unit, np.inf), (np.array([1.0, 2.0**-70]), 1.0)]:
        assert roundoff((single, single), norms, [top]) == 2.0**-53
    # a zero row has exact zero products, whatever the screen
    for norms in [np.array([0.0, 1.0]), np.zeros(2)]:
        assert roundoff((single, single), norms, unit) == 2.0**-24
    # float64 others of float32 rows are rounded to float32 only when every
    # nonzero norm of theirs lies in the range too. A zero row of float64
    # others rounds to float32 exactly, as a zero row of the rows is exact,
    # so it no longer sends the screen to float64.
    for others in [[2.0**-50, 1.0], [0.0, 1.0]]:
        assert roundoff((single, double), unit, others) == 2.0**-24
    for norms, others in [(unit, [2.0**-70, 1.0]), (unit * 2.0**-40, [1.0, 2.0**61]),
                          (unit, [np.nan, 1.0]), (unit, [0.0, np.nan])]:
        assert roundoff((single, double), norms, others) == 2.0**-53
    rng = np.random.default_rng(32)
    rows, others = random_unit_vectors(5, 8, rng), random_unit_vectors(3, 8, rng)
    for tiny, dtypes in [(1.0, (single, double)), (0.0, (single, double)),
                         (2.0**-70, (double, double))]:
        wide = others.astype(np.float64) * np.array([[1.0], [1.0], [tiny]])
        a, b, _ = geometry._screen_operands(
            geometry._screen_rows(rows, "rows"), geometry._screen_rows(wide, "others"))
        assert (a.dtype, b.dtype) == dtypes
        assert np.array_equal(b, wide)  # rescoring reads the others unrounded
        assert np.array_equal(geometry._screen_gemm(a, b), a @ wide.astype(a.dtype).T)


def test_distinct_top_walks_each_groups_canonical_ranking():
    rng = np.random.default_rng(27)
    pool = _near_tie_covering(random_unit_vectors(30, 64, rng).astype(np.float64), rng, copies=6)
    queries = np.concatenate([pool[:5], pool[:2], random_unit_vectors(3, 64, rng)])
    quotas = [1, 3, 7, 20, 31, 100, 9, len(pool), 5 * len(pool), 4]
    # descending ties: exact duplicates in the pool rank by this key, not by row
    ties = np.arange(len(pool))[::-1].copy()
    for groups in (range(len(quotas)), [0, 0, 0, 1, 1, 1, 1, 2, 3, 3]):
        found = _distinct_top(_pool(pool), queries, quotas, groups, ties)
        taken = {}
        for q, k, group, (rows, sims) in zip(queries, quotas, groups, found):
            ranking, canon = _ranking(pool, q, ties)
            seen = taken.setdefault(group, set())
            want = [r for r in ranking if r not in seen][:k]
            seen.update(want)
            assert rows.tolist() == want
            assert np.array_equal(sims, canon[rows])


def test_distinct_top_screen_memory_is_bounded_per_query_block():
    rng = np.random.default_rng(28)
    pool = random_unit_vectors(2_000, 16, rng).astype(np.float64)
    queries = random_unit_vectors(3_000, 16, rng).astype(np.float64)
    tracemalloc.start()
    try:
        found = _own_top(pool, queries, [4] * len(queries))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One screen of all queries would hold 3,000 x 2,000 floats, 48 MB.
    assert peak < 12 << 20
    for j in (0, 255, 256, 2_999):
        rows, sims = found[j]
        ranking, canon = _ranking(pool, queries[j], np.arange(len(pool)))
        assert rows.tolist() == ranking[:4]
        assert np.array_equal(sims, canon[rows])


_GEMV_CASES = [(n, dim, dtype) for n in (1, 2, 3, 5, 11, 12, 13, 1_001, 4_097, 10_001)
               for dim in (3, 64, 1024) for dtype in ("float32", "float64")]

# Prints, per case, the sha256 of ``_gemv_rows`` and of one GEMV per vector
# over the whole matrix.
_GEMV_PROBE = """
import hashlib, json, sys
import numpy as np
from fedca.geometry import _gemv_rows
for n, dim, dtype in json.loads(sys.argv[1]):
    rng = np.random.default_rng([n, dim])
    matrix = rng.standard_normal((n, dim)).astype(dtype)
    vectors = rng.standard_normal((3, dim))
    out = _gemv_rows(matrix, vectors)
    assert out.shape == (3, n) and out.dtype == np.float64
    want = np.stack([matrix.astype(np.float64) @ v for v in vectors])
    print(hashlib.sha256(out.tobytes()).hexdigest(), hashlib.sha256(want.tobytes()).hexdigest())
"""


def test_gemv_rows_equals_single_threaded_gemv_bit_for_bit():
    # The vectors are float64, so products round and the BLAS kernels that
    # handle groups of four rows and the tail rows give different bits. The
    # kernel's bits are promised at 1 and 2 BLAS threads only, so both sides
    # run in subprocesses pinned to those counts, never at this process's.
    one, two = (out.splitlines() for out in probe_digests(_GEMV_PROBE, json.dumps(_GEMV_CASES)))
    want = [line.split()[1] for line in one]
    assert len(want) == len(_GEMV_CASES)
    for lines in (one, two):
        got = [line.split()[0] for line in lines]
        assert [case for case, g, w in zip(_GEMV_CASES, got, want, strict=True) if g != w] == []


@pytest.mark.parametrize("dim", [1, 3, 64, 1024, 10_000])
def test_gemv_spans_follow_the_span_rule(dim):
    for n in (0, 1, 11, 12, 13, 19, 20, 100, 515, 1_001, 4_097, 60_003, 200_001):
        spans = _gemv_spans(n, dim)
        assert spans[0][0] == 0 and spans[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        sizes = [hi - lo for lo, hi in spans]
        if n < 12:
            assert sizes == [n]
            continue
        assert all(size == sizes[0] and size % 64 == 0 for size in sizes[:-2])
        assert all(size % 8 == 0 for size in sizes[:-1])
        assert 4 <= sizes[-1] <= 11

