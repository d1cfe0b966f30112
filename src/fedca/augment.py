"""Instruction augmentation: exact dense retrieval plus baseline samplers.

All retrieval is exact over the whole pool (cosine on unit vectors), with
hits ordered by similarity descending and ties by id ascending. A
similarity threshold, when given, excludes pool records whose similarity to
the query exceeds it *before* the top-k cut, so filtered records never
consume budget; if fewer than k records survive, the shortfall is reported
rather than raised.

Similarities follow the value contract stated in the ``geometry`` module
docstring. ``direct_retrieval_augment`` and the logging sims of
``random_sampling_augment`` are canonical values, the same at any BLAS
thread count. ``retrieve_topk``, ``feddca_augment`` and ``data_select``
rank by ``geometry._gemv_rows`` values, the same at one and two BLAS
threads; ``feddca_augment`` reads the pool once for up to 256 selected
centers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import CandidateCenters
from .errors import ValidationError, check_json, check_number, json_field
from .geometry import (_QUERY_BLOCK, _canonical_dots, _distinct_top, _gemv_rows, _row_norms,
                       _screen_rows)
from .selection import CenterSelection
from .store import EmbeddingStore


@dataclass
class RetrievalResult:
    """Hits returned for one query center (or one sampled batch)."""

    client_id: int
    hits: list[tuple[int, float]]  # (record id, similarity), sim desc then id asc
    requested: int

    @property
    def shortfall(self) -> int:
        return self.requested - len(self.hits)

    def ids(self) -> list[int]:
        return [h[0] for h in self.hits]

    def sims(self) -> list[float]:
        return [h[1] for h in self.hits]

    def to_json_dict(self) -> dict:
        return {
            "client": self.client_id,
            "ids": self.ids(),
            "sims": self.sims(),
            "shortfall": self.shortfall,
        }


def _ranked_hits(ids: np.ndarray, sims: np.ndarray, k: int) -> list[tuple[int, float]]:
    """The first ``k`` records by similarity descending, ties by id ascending.

    Only records at least as similar as the k-th largest similarity are
    sorted, so every record tied at the cut competes on id as in a full sort.
    """
    cut = sims.shape[0] - k
    if cut > 0:
        kth = np.partition(sims, cut)[cut]
        keep = np.flatnonzero(sims >= kth)
        ids, sims = ids[keep], sims[keep]
    order = np.lexsort((ids, -sims))[:k]
    return list(zip(ids[order].tolist(), sims[order].tolist()))


def _retrieve(
    pool: EmbeddingStore, queries: list, k: int, threshold: float | None, clients: list[int]
) -> list[RetrievalResult]:
    """Threshold-filtered top-k of the pool for each query, from one
    ``_gemv_rows`` pass over the pool per ``_QUERY_BLOCK`` queries."""
    if len(pool) == 0:
        raise ValidationError("pool is empty")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if threshold is not None:
        check_number(threshold, "threshold", finite=False, minimum=-1.0)
    for j, query in enumerate(queries):
        if np.ndim(query) != 1 or np.shape(query)[0] != pool.dim:
            raise ValidationError(f"query must be a vector of dimension {pool.dim}")
        if not np.isfinite(query).all():
            raise ValidationError(f"query {j} has non-finite values")
    results = []
    for lo in range(0, len(queries), _QUERY_BLOCK):
        block = queries[lo : lo + _QUERY_BLOCK]
        sims_block = _gemv_rows(pool.vectors, np.stack(block))
        for client, sims in zip(clients[lo:], sims_block):
            if threshold is not None:
                keep = sims <= threshold
                ids, sims = pool.ids[keep], sims[keep]
            else:
                ids = pool.ids
            results.append(RetrievalResult(client, _ranked_hits(ids, sims, k), k))
    return results


def retrieve_topk(
    pool: EmbeddingStore,
    query,
    k: int,
    threshold: float | None = None,
    *,
    client_id: int = 0,
) -> RetrievalResult:
    """Exact top-k scan of the pool for one query vector.

    Records with similarity strictly greater than ``threshold`` are excluded
    before ranking; an infinite threshold excludes nothing, a NaN one or one
    below -1 (which would exclude every record) is rejected. Returns all
    survivors when fewer than ``k`` remain. Similarities are
    ``geometry._gemv_rows`` values (see the module docstring).
    """
    return _retrieve(pool, [query], k, threshold, [client_id])[0]


def feddca_augment(
    pool: EmbeddingStore,
    selection: CenterSelection,
    per_client: int,
    threshold: float | None = 0.7,
) -> list[RetrievalResult]:
    """One threshold-filtered top-k retrieval per selected center.

    Each result equals ``retrieve_topk`` for its slot, but the pool is read
    once for up to 256 slots instead of once per slot. Results are keyed by
    each slot's client of origin; duplicate ids across clients are kept
    (redundancy is measured downstream, not removed).
    """
    if per_client < 1:
        raise ValidationError(f"per_client must be >= 1, got {per_client}")
    if not selection.slots:
        raise ValidationError("selection has no slots")
    return _retrieve(pool, [slot.vector for slot in selection.slots], per_client, threshold,
                     [slot.client for slot in selection.slots])


def direct_retrieval_augment(
    pool: EmbeddingStore,
    client_centers: list[CandidateCenters],
    per_client: int,
) -> list[RetrievalResult]:
    """Independent per-centroid retrieval, one aggregated result per client.

    Each client's budget is split over its centroids: floor(per_client / k)
    hits per centroid, with the first per_client mod k centroids taking one
    extra. The per-client union is deduplicated by id; a centroid that loses
    a duplicate backfills from its own next-ranked hits, so the result holds
    per_client unique ids whenever the pool permits.

    Similarities are canonical values from ``geometry._distinct_top``,
    which screens the store's float32 rows once per block of up to 256
    centroids, with the pool's half of the set-up made from ``pool.norms``
    (no norm pass over the pool); hits equal a full-pool scan ranked by
    canonical value. Each centroid rescores only the pairs that may rank
    among the first k positions of its ranking, for the least k that, less
    the client's earlier picks among those pairs, leaves its quota; k is
    the quota when the centroid's neighbours are new, and at most the quota
    plus the client's earlier picks. The SGEMM screen holds one float32 per
    pool row for each centroid of one block, so its memory is bounded by
    256 times the pool size (24 MB for the paper's 100 centroids over
    60,000 rows, at most 61 MB for any number of centroids over that pool;
    twice that for a DGEMM screen).
    """
    if per_client < 1:
        raise ValidationError(f"per_client must be >= 1, got {per_client}")
    if len(pool) == 0:
        raise ValidationError("pool is empty")
    # One query per centroid with a quota, grouped by client.
    owners: list[int] = []
    quotas: list[int] = []
    queries = []
    for idx, cand in enumerate(client_centers):
        if cand.dim != pool.dim:
            raise ValidationError(
                f"dimension mismatch: centers {cand.dim} vs pool {pool.dim}"
            )
        if not np.isfinite(cand.centers).all():
            raise ValidationError(f"client {cand.client_id} has non-finite centroids")
        base, extra = divmod(per_client, cand.k)
        for j in range(cand.k):
            quota = base + 1 if j < extra else base
            if quota == 0:
                continue
            queries.append(cand.centers[j])
            owners.append(idx)
            quotas.append(quota)
    found = _distinct_top(
        _screen_rows(pool.vectors, "pool", pool.norms),
        np.array(queries).reshape(-1, pool.dim),
        quotas,
        owners,
        pool.ids,
    )
    picks: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in client_centers]
    for idx, pair in zip(owners, found):
        picks[idx].append(pair)
    results = []
    for cand, pairs in zip(client_centers, picks):
        rows, sims = (np.concatenate(part) for part in zip(*pairs))
        results.append(RetrievalResult(cand.client_id,
                                       _ranked_hits(pool.ids[rows], sims, len(rows)), per_client))
    return results


def random_sampling_augment(
    pool: EmbeddingStore,
    n_clients: int,
    per_client: int,
    seed: int,
) -> list[RetrievalResult]:
    """Uniform without-replacement sample per client, independent across clients.

    The similarity field is the canonical cosine to the (normalized) pool
    mean, kept for logging only.
    """
    if per_client < 1 or n_clients < 1:
        raise ValidationError("n_clients and per_client must be >= 1")
    if per_client > len(pool):
        raise ValidationError(
            f"per_client={per_client} exceeds pool size {len(pool)}"
        )
    mean = pool.vectors.mean(axis=0, dtype=np.float64)
    norm = float(_row_norms(mean[None])[0])
    center = mean / norm if norm > 0 else mean
    results = []
    for client in range(n_clients):
        rng = np.random.default_rng([seed, client])
        pos = rng.choice(len(pool), size=per_client, replace=False)
        sims = _canonical_dots(pool.vectors, pos, center)
        results.append(RetrievalResult(client, _ranked_hits(pool.ids[pos], sims, per_client),
                                       per_client))
    return results


def data_select(
    local_pools: list[EmbeddingStore],
    selection: CenterSelection,
    per_client: int,
) -> list[RetrievalResult]:
    """Rank each client's own pool against that client's selected center.

    Local pools are matched to selection slots by position. No threshold is
    applied (this selects existing data rather than augmenting it).
    """
    if len(local_pools) != len(selection.slots):
        raise ValidationError(
            f"{len(local_pools)} local pools for {len(selection.slots)} selection slots"
        )
    results = []
    for k, (store, slot) in enumerate(zip(local_pools, selection.slots)):
        if len(store) == 0:
            raise ValidationError(f"client {k} has an empty local pool")
        results.append(retrieve_topk(store, slot.vector, per_client, None, client_id=k))
    return results


def augments_to_json(results: list[RetrievalResult]) -> list[dict]:
    return [r.to_json_dict() for r in results]


def augset_ids_from_json(obj: list[dict]) -> list[list[int]]:
    """Per-client record ids from the list ``augments_to_json`` writes."""
    check_json(obj, (list,), "augsets")
    return [
        json_field(entry, "ids", (list,), f"augsets entry {k}", items=(int,))
        for k, entry in enumerate(obj)
    ]
