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

Scoring: a subset's value is the exact ``fsum`` mean of its canonical
per-reference maxima (see the value contract in the ``geometry`` module
docstring), so it equals `geometry.coverage` of the subset bit for bit and
no selection, beam, brute-force or trace value depends on the BLAS thread
count. One DGEMM screens every candidate against the reference; only the
entries that may hold a maximum are rescored canonically, once each. All
three searches score a candidate as an expansion of a parent subset
(greedy's other slots, a beam state, a brute-force subset's first N - 1
members) through one builder, ``_CoverageScorer.intervals``, in blocks of
at most 1 MB of rows: ``np.sum`` of the screened maxima gives each row's
sum within a rigorous bound on its rounding and screen errors, and only
rows whose bounds overlap a decision are settled canonically, so every
comparison and tie-break is the one exact per-candidate sums of canonical
values would give. The beam keeps states as index rows, not maxima, so its
memory does not grow with width times reference size.

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
from .errors import BudgetExceededError, ValidationError, check_number, json_field
from .geometry import (
    _UNIT_ROUNDOFF,
    CoverageValue,
    SimilarityMode,
    _canonical_dots,
    _gamma,
    _screen_gemm,
    _screen_operands,
    _screen_rows,
)

IMPROVEMENT_EPS = 1e-12
DEFAULT_BRUTE_BUDGET = 10_000_000
# Bytes of maxima rows per scoring block; a beam chunk holds two such
# blocks beside the candidates' columns.
_BLOCK_BYTES = 1 << 20


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

        def count(name: str) -> int:
            value = json_field(obj, name, (int,), "selection", default=0)
            if value < 0:
                raise ValidationError(f"selection field {name!r} must be >= 0, got {value}")
            return value

        slots = []
        for k, s in enumerate(json_field(obj, "slots", (list,), "selection")):
            owner = f"selection slot {k}"
            values = json_field(s, "vector", (list,), owner, items=number)
            try:
                with np.errstate(over="ignore"):  # beyond float32 range reads as inf
                    vector = np.asarray(values, dtype=np.float32)
                finite = np.isfinite(vector).all()
            except OverflowError:  # an integer beyond float64 range
                finite = False
            if not finite:
                raise ValidationError(
                    f"{owner} field 'vector' holds a value that is not a finite float32")
            slots.append(SelectedCenter(
                client=json_field(s, "client", (int,), owner),
                cluster=json_field(s, "cluster", (int,), owner),
                vector=vector,
            ))
        return cls(
            slots=slots,
            coverage=CoverageValue(
                check_number(json_field(obj, "coverage", number, "selection"),
                             "selection field 'coverage'"),
                count("reference_size"),
            ),
            passes=count("passes"),
            swaps=count("swaps"),
            trace=[check_number(x, f"selection field 'trace'[{i}]") for i, x in enumerate(
                json_field(obj, "trace", (list,), "selection", items=number, default=[]))],
        )


@dataclass
class SelectionProblem:
    """A selection instance: per-client candidates, scoring reference, mode.

    ``reference`` defaults to the pooled candidate vectors themselves (the
    server-side core that needs no public dataset); pass a domain store's
    vectors to score against an explicit reference instead. Non-finite
    candidate vectors are rejected here; a non-finite reference is rejected
    by every search, which reads the whole reference anyway, so building a
    problem over a large reference stays cheap.
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
            if not np.isfinite(cand.centers).all():
                raise ValidationError(f"client {cand.client_id} has non-finite candidate vectors")
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
            # a view, so a float64 reference passed in keeps its own flag
            ref = np.ascontiguousarray(src, dtype=np.float64).view()
            ref.flags.writeable = False
            self._reference64 = ref
        return self._reference64


class _CoverageScorer:
    """Scores candidate subsets against a fixed reference.

    ``columns`` holds one raw similarity row per candidate (P x m for P
    candidates and m reference rows): one ``geometry._screen_gemm`` of the
    candidates, widened to float64, against the reference, set up by
    ``geometry._screen_operands`` with the reference as the screened rows
    and the candidates as the others, each half made by ``_screen_rows``;
    the reference's one norm pass gives ``near[r]``, the slack of
    reference row r, and rejects a non-finite reference. By the bound on
    ``geometry._screen_blocks`` (k = 1, read per reference row), the
    canonical maximum of a row over a subset is among the members whose
    entry lies within ``near[r]`` of the row's largest entry. ``best``
    rescores only those members, once each, through
    ``geometry._canonical_dots``: a rescored entry is overwritten in place by
    its canonical value and marked in ``canonical``. Every exact value is
    therefore canonical, the ``fsum`` mean of the mode-applied canonical
    maxima, and equals `geometry.coverage` of the subset bit for bit at any
    BLAS thread count.

    ``intervals``, the one place that bounds sums, rebuilds each block's
    parent maxima from their members. A block of maxima rows is summed with
    ``np.sum``, which lies within ``gamma_(m-1) * sum|v|`` of the exact sum
    of its entries in any order of its additions (Higham, *Accuracy and
    Stability of Numerical Algorithms*, sec. 4.2). Each entry lies within
    ``near[r] / 2`` of its canonical maximum, so the entries lie within
    ``spread``, half the ``fsum`` of ``near``, in total (the units beyond d
    in ``near``'s ``gamma_(d+2)`` outweigh the roundings of ``near`` and of
    the ``fsum``). ``slack`` adds ``18u`` to the first factor, covering the
    roundings of the exact sum, of the division by m, of the affine map and
    of the interval ends, so a row whose interval lies wholly below
    another's has a strictly smaller canonical value. Only rows whose
    intervals leave a decision open are settled canonically; every decision,
    tie-breaks included, is the one a per-candidate scan of canonical values
    would make. A block holds at most ``_BLOCK_BYTES`` of rows, so scoring
    adds a few blocks and a P x m mask to the columns.
    """

    def __init__(self, problem: SelectionProblem):
        rows = _screen_rows(problem.reference_matrix(), "reference")
        ref, self.vectors, self.near = _screen_operands(
            rows, _screen_rows(np.stack([c.vector for c in problem.pool()]), "candidates"))
        if not np.isfinite(rows.norms).all():
            raise ValidationError("reference has non-finite vectors" if not np.isfinite(
                ref).all() else "reference has a row whose norm overflows float64")
        self.m = ref.shape[0]
        self.mode = problem.mode
        self.reference = ref
        self.columns = _screen_gemm(self.vectors, ref)
        self.canonical = np.zeros(self.columns.shape, dtype=bool)
        self.spread = 0.5 * fsum(self.near.tolist())
        self.abs_sums = np.abs(self.mode.apply(self.columns)).sum(axis=1)
        self.rows = max(1, _BLOCK_BYTES // (8 * self.m))
        self.slack = _gamma(self.m - 1) + 18 * _UNIT_ROUNDOFF

    def best_over(self, members) -> np.ndarray:
        """Per-reference maxima of the entries over the last axis of
        ``members``; -inf for none."""
        members = np.asarray(members, dtype=np.intp)
        best = np.full((*members.shape[:-1], self.m), -np.inf)
        for j in range(members.shape[-1]):
            np.maximum(best, self.columns[members[..., j]], out=best)
        return best

    def best(self, members, base: np.ndarray | None = None) -> np.ndarray:
        """Canonical per-reference maxima over ``members`` and, when given,
        the canonical maxima row ``base``."""
        members = np.asarray(members, dtype=np.intp)
        if members.size == 0:
            return np.full(self.m, -np.inf) if base is None else base.copy()
        cols = self.columns[members]
        top = cols.max(axis=0)
        if base is not None:
            np.maximum(top, base, out=top)
        near = cols >= top - self.near
        todo = near & ~self.canonical[members]
        for k in np.flatnonzero(todo.any(axis=1)):
            rows = np.flatnonzero(todo[k])
            self._rescore(int(members[k]), rows)
            cols[k, rows] = self.columns[members[k], rows]
        cols[~near] = -np.inf
        best = cols.max(axis=0)
        return best if base is None else np.maximum(best, base, out=best)

    def _rescore(self, j: int, rows: np.ndarray) -> None:
        """Overwrite candidate j's entries at ``rows`` by canonical values."""
        self.columns[j, rows] = _canonical_dots(self.reference, rows, self.vectors[j])
        self.canonical[j, rows] = True

    def value_of_best(self, best: np.ndarray) -> float:
        return fsum(self.mode.apply(best).tolist()) / self.m

    def value(self, indices) -> float:
        return self.value_of_best(self.best(indices))

    def intervals(
        self, parents: np.ndarray, parent_of: np.ndarray, added: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bounds on the exact sum of each expansion's canonical maxima
        row: expansion e adds column ``added[e]`` to the members of
        ``parents[parent_of[e]]`` (``parent_of`` ascending). A block whose
        expansions share one parent broadcasts its row. ``slack`` times the
        parent's ``sum|maxima|`` plus the column's ``abs_sums`` bounds the
        error of the row's ``np.sum``, and ``spread`` that of its entries.
        """
        lo = np.empty(added.size)
        hi = np.empty(added.size)
        held = None
        for start in range(0, added.size, self.rows):
            part = slice(start, start + self.rows)
            owner = parent_of[part]
            first, last = int(owner[0]), int(owner[-1])
            if held != (first, last):
                held = (first, last)
                base = self.best_over(parents[first : last + 1])
                base_abs = (np.abs(self.mode.apply(base)).sum(axis=1) if parents.shape[1]
                            else np.zeros(len(base)))
            w = 0 if first == last else owner - first
            block = self.columns[added[part]]
            np.maximum(base[w], block, out=block)
            sums = self.mode.apply(block).sum(axis=1)
            errs = self.slack * (base_abs[w] + self.abs_sums[added[part]]) + self.spread
            lo[part] = sums - errs
            hi[part] = sums + errs
        return lo, hi


def _top(lo: np.ndarray, hi: np.ndarray, k: int, exact, keys=None) -> np.ndarray:
    """Positions of the ``k`` largest exact values, ties to the lowest key
    (``keys``, by default the position).

    Row i's exact sum lies in ``[lo[i], hi[i]]``, with the margin
    `_CoverageScorer` describes. A row is out when k rows have lower ends
    above its upper end, and in when at most k rows, itself included, have
    upper ends above its lower end. ``exact(positions)`` gives the exact
    values of the rows left between, which fill the remaining places.
    """
    n = lo.size
    if k >= n:
        return np.arange(n)
    cut = np.partition(lo, n - k)[n - k]
    above = np.partition(hi, n - k - 1)[n - k - 1]
    sure = lo > above
    open_ = np.flatnonzero((hi >= cut) & ~sure)
    vals = np.array(exact(open_), dtype=np.float64)
    ties = open_ if keys is None else keys[open_]
    picked = open_[np.lexsort((ties, -vals))[: k - np.count_nonzero(sure)]]
    return np.concatenate([np.flatnonzero(sure), picked])


def _leader(lo: np.ndarray, hi: np.ndarray, exact) -> tuple[int, float]:
    """Position and exact value of the largest exact value, lowest position on ties."""
    known: dict[int, float] = {}

    def settle(positions):
        vals = exact(positions)
        known.update(zip(positions.tolist(), vals))
        return vals

    pos = int(_top(lo, hi, 1, settle)[0])
    return pos, known[pos] if pos in known else exact(np.array([pos]))[0]


def _build_selection(
    problem: SelectionProblem,
    slot_indices: list[int],
    passes: int,
    swaps: int,
    trace: list[float],
) -> CenterSelection:
    """``trace[-1]``, the canonical value of the slots, is their coverage."""
    pool = problem.pool()
    cov = CoverageValue(trace[-1], problem.reference_matrix().shape[0])
    return CenterSelection(slots=[pool[i] for i in slot_indices], coverage=cov, passes=passes,
                           swaps=swaps, trace=trace)


def _scan_slot(
    scorer: _CoverageScorer,
    slot_indices: list[int],
    i: int,
    allowed: range | list[int],
    current: float,
) -> tuple[float, int]:
    """Best replacement for slot ``i``: (value, pool index), lex-first on ties.

    The occupant is always a candidate, and its value is ``current``, the
    value of ``slot_indices``; the other slots' canonical maxima are built
    only when another candidate's exact value is needed.
    """
    occupant = slot_indices[i]
    others = slot_indices[:i] + slot_indices[i + 1 :]
    occupied = set(others)
    cand = np.array([idx for idx in allowed if idx not in occupied], dtype=np.intp)
    lo, hi = scorer.intervals(np.array([others], dtype=np.intp), np.zeros_like(cand), cand)
    others_best = None
    unchanged: list[float] = []

    def exact(positions):
        nonlocal others_best
        vals = []
        for idx in cand[positions]:
            if idx == occupant:
                vals.append(current)
                continue
            if others_best is None:
                others_best = scorer.best(others)
            best = scorer.best([idx], others_best)
            if np.array_equal(best, others_best):  # gains nothing: all share one value
                if not unchanged:
                    unchanged.append(scorer.value_of_best(others_best))
                vals.append(unchanged[0])
            else:
                vals.append(scorer.value_of_best(best))
        return vals

    pos, val = _leader(lo, hi, exact)
    return val, int(cand[pos])


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
    ``init="random"``, the only reader of ``seed`` (under the default the
    seed changes no output). Slots are then swept cyclically; each slot may
    take a replacement from any client's candidates unless
    ``per_client_slots`` restricts slot i to client i's own candidates.

    Termination: the search stops after consecutive scans that find no
    improvement: N of them by default, one with ``literal_termination`` (the
    stricter rule can stop early at one locally-stuck slot). A slot's scan
    depends only on the other slots, so once N scans in a row are idle every
    later scan would be too; the default rule gives the slots, swaps and
    trace of a search that stops after a whole sweep without a swap, but
    skips that sweep's redundant tail. ``passes`` counts started sweeps of N
    scans in both modes, so it also equals that search's sweep count.
    """
    pool = problem.pool()
    scorer = _CoverageScorer(problem)

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
    swaps = scans = idle = 0
    idle_limit = 1 if literal_termination else n_slots
    while idle < idle_limit:
        i = scans % n_slots
        scans += 1
        best_val, best_idx = _scan_slot(scorer, slot_indices, i, allowed_for(i), current)
        if best_val <= current + IMPROVEMENT_EPS:
            idle += 1
            continue
        slot_indices[i] = best_idx
        current = best_val
        swaps += 1
        idle = 0
        trace.append(current)

    return _build_selection(problem, slot_indices, -(-scans // n_slots), swaps, trace)


def brute_force_select(
    problem: SelectionProblem,
    budget: int = DEFAULT_BRUTE_BUDGET,
) -> CenterSelection:
    """Exact optimum over all N-subsets of the candidate pool.

    Refuses to run (raising :class:`BudgetExceededError`) when the number of
    subsets exceeds ``budget``. Ties break toward the lexicographically
    smallest subset of (client, cluster) identities. Subsets are scored in
    blocks of the scorer's size, each as an expansion of its first N - 1
    members (runs of equal prefixes in ``itertools.combinations`` order),
    the leader so far carried into each block.
    """
    pool = problem.pool()
    n_slots = problem.n_clients
    total = math.comb(len(pool), n_slots)
    if total > budget:
        raise BudgetExceededError(
            f"brute force refused: {total} candidate subsets exceed the budget of {budget}"
        )
    scorer = _CoverageScorer(problem)
    subsets = itertools.combinations(range(len(pool)), n_slots)
    lead = np.empty((0, n_slots), dtype=np.intp)
    lead_lo = lead_hi = np.empty(0)
    while True:
        flat = itertools.chain.from_iterable(itertools.islice(subsets, scorer.rows))
        combos = np.fromiter(flat, dtype=np.intp).reshape(-1, n_slots)
        if combos.size == 0:
            break
        prefixes = combos[:, :-1]
        new = np.ones(len(combos), dtype=bool)
        new[1:] = np.any(prefixes[1:] != prefixes[:-1], axis=1)
        lo, hi = scorer.intervals(prefixes[new], np.cumsum(new) - 1, combos[:, -1])
        combos = np.concatenate([lead, combos])
        lo = np.concatenate([lead_lo, lo])
        hi = np.concatenate([lead_hi, hi])
        pos, best_val = _leader(lo, hi, lambda pos: [scorer.value(combos[p]) for p in pos])
        lead, lead_lo, lead_hi = combos[pos : pos + 1], lo[pos : pos + 1], hi[pos : pos + 1]
    return _build_selection(problem, lead[0].tolist(), passes=0, swaps=0, trace=[best_val])


def _check_beam(problem: SelectionProblem, width: int, budget: int) -> None:
    """Raise unless ``width`` is at least 1 and a beam of that width over
    ``problem`` fits ``budget``: its expansions, sum over levels l < N of
    min(width, C(P, l)) * (P - l) for a pool of P candidates."""
    if width < 1:
        raise ValidationError(f"beam width must be >= 1, got {width}")
    n = len(problem.pool())
    expansions = sum(min(width, math.comb(n, level)) * (n - level)
                     for level in range(problem.n_clients))
    if expansions > budget:
        raise BudgetExceededError(
            f"beam refused: {expansions} expansions at width {width} exceed the budget of {budget}"
        )


def beam_select(
    problem: SelectionProblem,
    width: int,
    budget: int = DEFAULT_BRUTE_BUDGET,
) -> CenterSelection:
    """Beam search over subsets, filling one slot per level.

    Refuses to run (raising :class:`BudgetExceededError`) before any
    allocation when its expansions exceed ``budget`` (``_check_beam``).

    Every beam state is expanded with every unused candidate; duplicate
    subsets reached along different orders are merged; the top ``width``
    states survive, ranked by coverage (ties: lexicographically smallest
    identity tuple). ``width=1`` is sequential greedy-by-slot; width at
    least C(pool, N) is exhaustive and matches `brute_force_select`.

    States are sorted rows of pool indices. Expansions are scored by
    ``_CoverageScorer.intervals`` from their parent states, and only the
    states survive a level, so memory holds the P x m columns,
    a few dozen bytes per expansion and a few scoring blocks, but no maxima
    row per state.
    """
    _check_beam(problem, width, budget)
    n_slots = problem.n_clients
    n = len(problem.pool())
    scorer = _CoverageScorer(problem)

    states = np.empty((1, 0), dtype=np.min_scalar_type(n))
    for level in range(n_slots):
        states = _beam_level(scorer, states, width if level < n_slots - 1 else 1)
    best_state = states[0].tolist()
    return _build_selection(problem, best_state, passes=0, swaps=0,
                            trace=[scorer.value(best_state)])


def _beam_level(scorer: _CoverageScorer, states: np.ndarray, keep: int) -> np.ndarray:
    """The ``keep`` best distinct states one candidate larger than ``states``."""
    n = len(scorer.columns)
    # Expansion e adds added[e] to states[e // per]; grown holds them sorted.
    per = n - states.shape[1]
    fresh = np.ones((len(states), n), dtype=bool)
    fresh[np.arange(len(states))[:, None], states] = False
    added = np.broadcast_to(np.arange(n, dtype=states.dtype), fresh.shape)[fresh]
    grown = np.concatenate([np.repeat(states, per, axis=0), added[:, None]], axis=1)
    grown.sort(axis=1)
    # Each distinct subset is scored once, from its first expansion, and
    # ranked among equal values by its lexicographic rank.
    order = np.lexsort(grown.T[::-1])
    ordered = grown[order]
    first = np.ones(len(grown), dtype=bool)
    first[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    del ordered
    firsts = order[first]
    del order, first
    rank = np.argsort(firsts)
    unique = firsts[rank]
    del firsts
    if unique.size > keep:
        lo, hi = scorer.intervals(states, unique // per, added[unique])

        def exact(positions):
            return [scorer.value(grown[e]) for e in unique[positions]]

        unique = unique[_top(lo, hi, keep, exact, keys=rank)]
    return grown[unique]


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
    brute_budget: int = DEFAULT_BRUTE_BUDGET,
) -> ApproximationReport:
    """Run greedy and each beam width; report greedy/best-beam as a percentage.

    Every beam runs under ``brute_budget`` (:func:`beam_select`), and every
    width is checked against it before greedy or any beam runs. When
    exhaustive enumeration fits it, the ratio to the true optimum is
    reported as well. Greedy starts from each client's first
    candidate (``init="first"``), so no seed is read.
    """
    if not widths:
        raise ValidationError("widths must be nonempty")
    for width in widths:
        _check_beam(problem, width, brute_budget)
    greedy = greedy_select(problem)
    beam_cov = {w: beam_select(problem, w, brute_budget).coverage.value for w in widths}
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
