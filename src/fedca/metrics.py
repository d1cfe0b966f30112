"""Measured quantities over augmented runs: coverage, ICACS, RUAI, comm cost.

* cross-client domain coverage: the coverage of the in-domain portion of the
  pooled client data (local plus augmented) over a domain reference set;
* ICACS: mean pairwise cosine between different clients' augmented-set
  cluster centers (never intra-client pairs) -- lower means more distinct
  augmentation. Each client's rows are put in byte order and clustered at
  the ICACS seed itself, one seed for every client, so the value does not
  depend on client or row order; the pairs are summed through each
  client's center sum, sum_a S_a . (S - S_a) / 2, without a pair product;
* RUAI: unique / total ids across the pooled augmented sets -- higher means
  less redundancy;
* communication accounting: floats uploaded as candidate centers, record
  references sent back as augmented sets.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import fsum

import numpy as np

from .clustering import kmeans
from .errors import ValidationError
from .geometry import CoverageValue, _row_dots, _vectors, coverage
from .store import EmbeddingStore

logger = logging.getLogger(__name__)

ICACS_DEFAULT_CENTERS = 10


@dataclass
class MetricsReport:
    domain_coverage: CoverageValue
    icacs: float | None
    ruai: float | None
    comm_upload_floats: int
    comm_download_records: int
    convergence_passes: int

    def to_json_dict(self) -> dict:
        return {
            "domain_coverage": self.domain_coverage.value,
            "reference_size": self.domain_coverage.reference_size,
            "icacs": self.icacs,
            "ruai": self.ruai,
            "comm_upload_floats": self.comm_upload_floats,
            "comm_download_records": self.comm_download_records,
            "convergence_passes": self.convergence_passes,
        }


def cross_client_coverage(
    domain_ref: EmbeddingStore,
    client_sets: list[tuple[list[int], list[int]]],
    universe: EmbeddingStore,
) -> CoverageValue:
    """Coverage of the in-domain pooled client data over the reference store.

    ``client_sets`` pairs each client's local ids with its augmented ids;
    every id must resolve in ``universe`` (the error names the smallest that
    does not). The pooled ids, sorted and without repeats, are intersected
    with the reference store's domain labels before scoring; an empty
    intersection (all client data out-of-domain) is an error. Both sets are
    the stores' float32 rows, so ``best_similarity`` screens them with SGEMM;
    the coverage is the same canonical value a float64 screen gives. Pooled
    records that are also reference records make up most of the covering
    set, and ``best_similarity`` gives the reference rows they copy their own
    squared norm without a screen when no other covering row can come
    closer (``geometry._self_covered``). The similarity is raw cosine.
    """
    if len(domain_ref) == 0:
        raise ValidationError("domain reference store is empty")
    pooled = np.unique(np.asarray(
        [i for local_ids, augmented_ids in client_sets for i in (*local_ids, *augmented_ids)]
    ))
    pos = universe.positions(pooled)
    index = universe.domain_index
    allowed = [index[d] for d in domain_ref.domain_index if d in index]
    in_domain = pos[np.isin(universe.ids[pos], np.concatenate(allowed))] if allowed else []
    if len(in_domain) == 0:
        raise ValidationError(
            "cross-client data has an empty intersection with the reference domain"
        )
    return coverage(domain_ref.vectors, universe.vectors[in_domain])


def _lexicographic_order(rows: np.ndarray) -> np.ndarray:
    """Stable lexicographic order of the rows' bytes, as ``sorted`` by ``row.tobytes()``.

    ``rows`` is a C-contiguous 2-D array; each row is viewed as one void
    scalar, which numpy sorts bytewise, so rows that differ only in a zero's
    sign or a NaN's payload are distinct and equal rows keep their order.
    """
    return np.argsort(rows.view(f"V{rows.itemsize * rows.shape[1]}").ravel(), kind="stable")


def icacs(
    per_client_augmented: list[np.ndarray],
    k: int = ICACS_DEFAULT_CENTERS,
    seed: int = 0,
) -> float:
    """Inter-client augmented-centroid similarity.

    Clusters each client's augmented embeddings (k-means) and averages the
    cosine over every cross-client pair of centers. Each client's rows are
    put in byte order (a stable argsort of their little-endian float32
    bytes, as ``sorted`` by ``row.tobytes()``) and clustered at ``seed``
    itself, the same seed for every client, so a client's centers depend
    only on its own rows: the value is invariant to row order within a
    client and to client order, which a seed per client index would break.
    A client with fewer vectors than ``k`` is clustered with k shrunk to its
    size; one warning per call counts such clients. A set that is empty,
    not 2-D or of another width than client 0's is a ValidationError
    naming the client.

    No pair product is formed. With S_a client a's center sum (its float32
    centers widened to float64, ``np.add.reduce`` in k-means order) and S
    the sum of every S_a (a correctly rounded ``fsum`` per coordinate, so it
    does not depend on client order), the cross-client pairs sum to
    sum_a S_a . (S - S_a) / 2. Each term is a canonical ``_row_dots`` value
    and the terms meet in ``fsum``, so, given its centers, the value does
    not depend on client order or on the BLAS thread count.
    """
    if len(per_client_augmented) < 2:
        raise ValidationError("ICACS requires at least 2 clients")
    sums, sizes = [], []
    for idx, vectors in enumerate(per_client_augmented):
        rows = _vectors(vectors, f"client {idx}", dtype="<f4")
        if 0 in rows.shape:
            raise ValidationError(f"client {idx} has no augmented vectors")
        if sums and rows.shape[1] != sums[0].shape[0]:
            raise ValidationError(f"dimension mismatch: client {idx} {rows.shape[1]} "
                                  f"vs client 0 {sums[0].shape[0]}")
        k_eff = min(k, rows.shape[0])
        centers = kmeans(rows[_lexicographic_order(rows)], k_eff, seed=seed, client_id=idx).centers
        sums.append(np.add.reduce(centers, axis=0, dtype=np.float64))
        sizes.append(k_eff)
    shrunk = [s for s in sizes if s < k]
    if shrunk:
        logger.warning("%d clients have fewer than %d vectors, the smallest %d; shrinking "
                       "ICACS k to each one's size", len(shrunk), k, min(shrunk))
    pairs = (sum(sizes) ** 2 - sum(s * s for s in sizes)) // 2
    sums = np.stack(sums)
    total = np.array([fsum(column) for column in sums.T.tolist()])
    return fsum(_row_dots(sums, total - sums).tolist()) / (2 * pairs)


def ruai(client_sets: list[list[int]]) -> float:
    """Ratio of unique ids across the pooled per-client augmented id lists."""
    total = sum(len(ids) for ids in client_sets)
    if total == 0:
        raise ValidationError("RUAI is undefined for empty augmented sets")
    unique = set()
    for ids in client_sets:
        unique.update(int(i) for i in ids)
    return len(unique) / total


def comm_cost(n_clients: int, xi: int, dim: int, augsets: list) -> tuple[int, int]:
    """(floats uploaded as centers, record references downloaded).

    Upload is n_clients * xi * dim floats; download counts every hit in every
    augmented set. ``augsets`` entries may be RetrievalResults or plain hit
    lists. ``fedsim.assemble_metrics`` counts uploads per client instead: a
    client with fewer than xi local records uploads one center per record.
    """
    upload = n_clients * xi * dim
    download = 0
    for entry in augsets:
        hits = entry.hits if hasattr(entry, "hits") else entry
        download += len(hits)
    return upload, download
