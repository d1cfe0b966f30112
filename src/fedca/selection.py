"""Server-side center selection with exact oracles.

Given the candidate centers uploaded by every client, `greedy_select` runs a
coordinate-ascent swap search: slots are visited cyclically, each slot's
center is tentatively replaced by every unused candidate, and the best
strictly-improving replacement is kept. The objective is the coverage of a
reference vector set (by default, the pooled candidates themselves) by the
selected centers.

`brute_force_select` enumerates every N-subset (refusing instances beyond an
evaluation budget) and `beam_select` keeps the best `width` partial subsets
per slot; at full width it degenerates to exhaustive search. All three share
one scoring path, so their coverage values are directly comparable, and the
reported coverage always equals `geometry.coverage` recomputed from scratch.

Determinism: candidate scans run in ascending (client, cluster) order, value
ties break toward the lexicographically smallest identity, and a swap is
accepted only when it improves coverage by more than ``IMPROVEMENT_EPS``, so
runs are reproducible and cannot cycle on ties.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from math import fsum

import numpy as np

from .clustering import CandidateCenters
from .errors import BudgetExceededError, ValidationError, json_field
from .geometry import CoverageValue, SimilarityMode, coverage

IMPROVEMENT_EPS = 1e-12
DEFAULT_BRUTE_BUDGET = 10_000_000


@dataclass(frozen=True)
class SelectedCenter:
    """One selected slot: which client/cluster it came from, and its vector."""

    client: int
    cluster: int
    vector: np.ndarray  # (dim,) float32

    @property
    def identity(self) -> tuple[int, int]:
        return (self.client, self.cluster)


@dataclass
class CenterSelection:
    """Result of a selection run.

    ``trace`` holds the coverage value at initialization and after every
    accepted swap (oracles log their single final value).
    """

    slots: list[SelectedCenter]
    coverage: CoverageValue
    passes: int
    swaps: int
    trace: list[float]

    def slot_vectors(self) -> np.ndarray:
        return np.stack([s.vector for s in self.slots])

    def to_json_dict(self) -> dict:
        return {
            "slots": [
                {"client": s.client, "cluster": s.cluster, "vector": [float(x) for x in s.vector]}
                for s in self.slots
            ],
            "coverage": self.coverage.value,
            "reference_size": self.coverage.reference_size,
            "passes": self.passes,
            "swaps": self.swaps,
            "trace": list(self.trace),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CenterSelection":
        number = (int, float)
        slots = []
        for k, s in enumerate(json_field(obj, "slots", (list,), "selection")):
            owner = f"selection slot {k}"
            slots.append(SelectedCenter(
                client=json_field(s, "client", (int,), owner),
                cluster=json_field(s, "cluster", (int,), owner),
                vector=np.asarray(json_field(s, "vector", (list,), owner, items=number),
                                  dtype=np.float32),
            ))
        return cls(
            slots=slots,
            coverage=CoverageValue(
                float(json_field(obj, "coverage", number, "selection")),
                json_field(obj, "reference_size", (int,), "selection", default=0),
            ),
            passes=json_field(obj, "passes", (int,), "selection", default=0),
            swaps=json_field(obj, "swaps", (int,), "selection", default=0),
            trace=[float(x) for x in
                   json_field(obj, "trace", (list,), "selection", items=number, default=[])],
        )


@dataclass
class SelectionProblem:
    """A selection instance: per-client candidates, scoring reference, mode.

    ``reference`` defaults to the pooled candidate vectors themselves (the
    server-side core that needs no public dataset); pass a domain store's
    vectors to score against an explicit reference instead.
    """

    candidates_per_client: list[CandidateCenters]
    reference: np.ndarray | None = None
    mode: SimilarityMode = SimilarityMode.RAW_COSINE

    _pool: list[SelectedCenter] = field(init=False, repr=False, default_factory=list)
    _reference64: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if len(self.candidates_per_client) < 1:
            raise ValidationError("at least one client is required")
        dims = set()
        seen_clients = set()
        for cand in self.candidates_per_client:
            if cand.k < 1:
                raise ValidationError(f"client {cand.client_id} contributes no candidates")
            if cand.client_id in seen_clients:
                raise ValidationError(f"duplicate client id {cand.client_id}")
            seen_clients.add(cand.client_id)
            dims.add(cand.dim)
        if len(dims) != 1:
            raise ValidationError(f"candidate dimensions differ: {sorted(dims)}")
        self._dim = dims.pop()
        if self.reference is not None:
            ref = np.asarray(self.reference)
            if ref.ndim != 2 or ref.shape[1] != self._dim:
                raise ValidationError(
                    f"reference must have shape (m, {self._dim}), got {ref.shape}"
                )
            if ref.shape[0] == 0:
                raise ValidationError("reference set is empty")
        ordered = sorted(self.candidates_per_client, key=lambda c: c.client_id)
        for cand in ordered:
            for j in range(cand.k):
                self._pool.append(
                    SelectedCenter(client=cand.client_id, cluster=j, vector=cand.centers[j])
                )

    @property
    def n_clients(self) -> int:
        return len(self.candidates_per_client)

    @property
    def dim(self) -> int:
        return self._dim

    def pool(self) -> list[SelectedCenter]:
        """All candidates, sorted by (client, cluster)."""
        return list(self._pool)

    def reference_matrix(self) -> np.ndarray:
        """The scoring reference as a cached C-contiguous float64 matrix."""
        if self._reference64 is None:
            src = (
                self.reference
                if self.reference is not None
                else np.stack([c.vector for c in self._pool])
            )
            ref = np.ascontiguousarray(src, dtype=np.float64)
            ref.flags.writeable = False
            self._reference64 = ref
        return self._reference64


class _CoverageScorer:
    """Scores candidate subsets against a fixed reference.

    Caches one similarity column per candidate (a GEMV over the reference);
    subset coverage is the mean (exact fsum) of the per-reference maxima over
    the member columns. GEMV values can differ from the canonical values of
    `geometry.best_similarity` in the last bits, so a scorer value can differ
    from `geometry.coverage` on the same subset by a few ulps. Scorer values
    rank swaps and fill ``trace``; the coverage a selection reports is always
    `geometry.coverage`.
    """

    def __init__(self, reference64: np.ndarray, pool: list[SelectedCenter], mode: SimilarityMode):
        self._mode = mode
        self._m = reference64.shape[0]
        self.columns = [reference64 @ np.ascontiguousarray(c.vector, dtype=np.float64) for c in pool]
        self._neg_inf = np.full(self._m, -np.inf)

    def best_over(self, indices) -> np.ndarray:
        best = self._neg_inf
        for i in indices:
            best = np.maximum(best, self.columns[i])
        return best

    def value_of_best(self, best: np.ndarray) -> float:
        return fsum(self._mode.apply(best).tolist()) / self._m

    def value(self, indices) -> float:
        return self.value_of_best(self.best_over(indices))


def _build_selection(
    problem: SelectionProblem,
    slot_indices: list[int],
    passes: int,
    swaps: int,
    trace: list[float],
) -> CenterSelection:
    pool = problem.pool()
    slots = [pool[i] for i in slot_indices]
    cov = coverage(problem.reference_matrix(), np.stack([s.vector for s in slots]), problem.mode)
    return CenterSelection(slots=slots, coverage=cov, passes=passes, swaps=swaps, trace=trace)


def _scan_slot(
    scorer: _CoverageScorer,
    slot_indices: list[int],
    i: int,
    allowed: range | list[int],
) -> tuple[float, int | None]:
    """Best replacement for slot ``i``: (value, pool index), lex-first on ties."""
    others = slot_indices[:i] + slot_indices[i + 1 :]
    occupied = set(others)
    others_best = scorer.best_over(others)
    best_val = -math.inf
    best_idx: int | None = None
    for idx in allowed:
        if idx in occupied:
            continue
        val = scorer.value_of_best(np.maximum(others_best, scorer.columns[idx]))
        if val > best_val:
            best_val, best_idx = val, idx
    return best_val, best_idx


def greedy_select(
    problem: SelectionProblem,
    seed: int = 0,
    *,
    init: str = "first",
    per_client_slots: bool = False,
    literal_termination: bool = False,
) -> CenterSelection:
    """Coordinate-ascent swap search over the candidate pool.

    Initialization places one center per client: the lowest cluster index
    with ``init="first"`` (the default), or a seeded random pick with
    ``init="random"``. Slots are then swept cyclically; each slot may take a
    replacement from any client's candidates unless ``per_client_slots``
    restricts slot i to client i's own candidates.

    Termination: by default the search stops after a full sweep of all N
    slots accepts no swap. ``literal_termination`` stops at the first slot
    whose scan finds no improvement (the stricter rule can stop early at one
    locally-stuck slot; passes are then reported as started sweeps).
    """
    pool = problem.pool()
    ref = problem.reference_matrix()
    scorer = _CoverageScorer(ref, pool, problem.mode)

    by_client: dict[int, list[int]] = {}
    for idx, cand in enumerate(pool):
        by_client.setdefault(cand.client, []).append(idx)
    client_order = sorted(by_client)
    n_slots = len(client_order)

    if init == "first":
        slot_indices = [by_client[c][0] for c in client_order]
    elif init == "random":
        rng = np.random.default_rng(seed)
        slot_indices = [by_client[c][int(rng.integers(len(by_client[c])))] for c in client_order]
    else:
        raise ValidationError(f"unknown init {init!r} (expected 'first' or 'random')")

    def allowed_for(i: int):
        return by_client[client_order[i]] if per_client_slots else range(len(pool))

    current = scorer.value(slot_indices)
    trace = [current]
    swaps = 0

    if literal_termination:
        scans = 0
        i = 0
        while True:
            scans += 1
            best_val, best_idx = _scan_slot(scorer, slot_indices, i, allowed_for(i))
            if best_idx is None or best_val <= current + IMPROVEMENT_EPS:
                break
            slot_indices[i] = best_idx
            current = best_val
            swaps += 1
            trace.append(current)
            i = (i + 1) % n_slots
        passes = -(-scans // n_slots)
    else:
        passes = 0
        while True:
            passes += 1
            pass_swaps = 0
            for i in range(n_slots):
                best_val, best_idx = _scan_slot(scorer, slot_indices, i, allowed_for(i))
                if best_idx is None or best_val <= current + IMPROVEMENT_EPS:
                    continue
                slot_indices[i] = best_idx
                current = best_val
                swaps += 1
                pass_swaps += 1
                trace.append(current)
            if pass_swaps == 0:
                break

    return _build_selection(problem, slot_indices, passes, swaps, trace)


def brute_force_select(
    problem: SelectionProblem,
    budget: int = DEFAULT_BRUTE_BUDGET,
) -> CenterSelection:
    """Exact optimum over all N-subsets of the candidate pool.

    Refuses to run (raising :class:`BudgetExceededError`) when the number of
    subsets exceeds ``budget``. Ties break toward the lexicographically
    smallest subset of (client, cluster) identities.
    """
    pool = problem.pool()
    n_slots = problem.n_clients
    total = math.comb(len(pool), n_slots)
    if total > budget:
        raise BudgetExceededError(
            f"brute force refused: {total} candidate subsets exceed the budget of {budget}"
        )
    scorer = _CoverageScorer(problem.reference_matrix(), pool, problem.mode)
    best_val = -math.inf
    best_combo: tuple[int, ...] | None = None
    for combo in itertools.combinations(range(len(pool)), n_slots):
        val = scorer.value(combo)
        if val > best_val:
            best_val, best_combo = val, combo
    assert best_combo is not None
    return _build_selection(problem, list(best_combo), passes=0, swaps=0, trace=[best_val])


def beam_select(problem: SelectionProblem, width: int) -> CenterSelection:
    """Beam search over subsets, filling one slot per level.

    Every beam state is expanded with every unused candidate; duplicate
    subsets reached along different orders are merged; the top ``width``
    states survive, ranked by coverage (ties: lexicographically smallest
    identity tuple). ``width=1`` is sequential greedy-by-slot; width at
    least C(pool, N) is exhaustive and matches `brute_force_select`.
    """
    if width < 1:
        raise ValidationError(f"beam width must be >= 1, got {width}")
    pool = problem.pool()
    n_slots = problem.n_clients
    scorer = _CoverageScorer(problem.reference_matrix(), pool, problem.mode)

    beam: list[tuple[tuple[int, ...], np.ndarray]] = [((), np.full(scorer._m, -np.inf))]
    for _ in range(n_slots):
        expanded: dict[tuple[int, ...], np.ndarray] = {}
        for state, best in beam:
            members = set(state)
            for idx in range(len(pool)):
                if idx in members:
                    continue
                new_state = tuple(sorted(state + (idx,)))
                if new_state in expanded:
                    continue
                expanded[new_state] = np.maximum(best, scorer.columns[idx])
        scored = [
            (scorer.value_of_best(best), state, best) for state, best in expanded.items()
        ]
        scored.sort(key=lambda item: (-item[0], item[1]))
        beam = [(state, best) for _, state, best in scored[:width]]

    best_state, best_arr = beam[0]
    final_val = scorer.value_of_best(best_arr)
    return _build_selection(problem, list(best_state), passes=0, swaps=0, trace=[final_val])


@dataclass
class ApproximationReport:
    """Greedy coverage relative to beam-search (and, when feasible, exact) optima."""

    greedy_coverage: float
    greedy_passes: int
    beam_coverage: dict[int, float]
    best_beam_coverage: float
    ratio_to_beam_percent: float | None
    optimum_coverage: float | None
    ratio_to_optimum_percent: float | None

    def to_json_dict(self) -> dict:
        return {
            "greedy_coverage": self.greedy_coverage,
            "greedy_passes": self.greedy_passes,
            "beam_coverage": {str(w): v for w, v in self.beam_coverage.items()},
            "best_beam_coverage": self.best_beam_coverage,
            "ratio_to_beam_percent": self.ratio_to_beam_percent,
            "optimum_coverage": self.optimum_coverage,
            "ratio_to_optimum_percent": self.ratio_to_optimum_percent,
        }


def approximation_report(
    problem: SelectionProblem,
    widths: list[int],
    seed: int = 0,
    brute_budget: int = DEFAULT_BRUTE_BUDGET,
) -> ApproximationReport:
    """Run greedy and each beam width; report greedy/best-beam as a percentage.

    When exhaustive enumeration fits ``brute_budget``, the ratio to the true
    optimum is reported as well.
    """
    if not widths:
        raise ValidationError("widths must be nonempty")
    greedy = greedy_select(problem, seed)
    beam_cov = {w: beam_select(problem, w).coverage.value for w in widths}
    best_beam = max(beam_cov.values())
    ratio = 100.0 * greedy.coverage.value / best_beam if best_beam > 0 else None

    optimum = None
    ratio_opt = None
    if math.comb(len(problem.pool()), problem.n_clients) <= brute_budget:
        optimum = brute_force_select(problem, brute_budget).coverage.value
        if optimum > 0:
            ratio_opt = 100.0 * greedy.coverage.value / optimum
    return ApproximationReport(
        greedy_coverage=greedy.coverage.value,
        greedy_passes=greedy.passes,
        beam_coverage=beam_cov,
        best_beam_coverage=best_beam,
        ratio_to_beam_percent=ratio,
        optimum_coverage=optimum,
        ratio_to_optimum_percent=ratio_opt,
    )
