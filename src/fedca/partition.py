"""Construct per-client local datasets at controlled heterogeneity.

Three modes, all deterministic for a fixed seed and all producing disjoint
per-client id assignments:

* ``dirichlet``: per client, cluster proportions are drawn from a symmetric
  Dirichlet over the pseudo-label set, turned into integer quotas by
  largest-remainder rounding, and filled by sampling without replacement
  from each cluster's remaining ids. An exhausted cluster spills its
  residual quota to the client's most-probable cluster that still has ids;
  if everything is exhausted the shortfall is recorded, not raised.
* ``iid``: one uniform without-replacement sample, shuffled and split into
  equal shards.
* ``distinct``: each client takes records from its own private group of
  clusters (cluster groups are disjoint across clients).

All three modes run one check of the source and the client counts;
``dirichlet`` and ``distinct`` share one grouping of the ids by label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_json, check_number, json_field
from .store import EmbeddingStore


@dataclass
class PartitionPlan:
    """Per-client record assignments plus the settings that produced them.

    ``shortfalls[k]`` is how many records client k's quota lacked; only
    ``dirichlet`` can fall short, and a plan read from JSON has none.
    """

    mode: str
    beta: float | None
    seed: int
    assignments: list[list[int]]
    shortfalls: list[int]

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "beta": self.beta,
            "seed": self.seed,
            "clients": [list(a) for a in self.assignments],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PartitionPlan":
        clients = json_field(obj, "clients", (list,), "plan")
        for k, ids in enumerate(clients):
            check_json(ids, (list,), f"plan client {k}", items=(int,))
        beta = json_field(obj, "beta", (int, float, type(None)), "plan", default=None)
        return cls(
            mode=json_field(obj, "mode", (str,), "plan"),
            beta=None if beta is None else float(beta),
            seed=json_field(obj, "seed", (int,), "plan"),
            assignments=clients,
            shortfalls=[0] * len(clients),
        )


def _check_counts(source: EmbeddingStore, n_clients: int, per_client: int) -> None:
    if len(source) == 0:
        raise ValidationError("source store is empty")
    if n_clients < 1 or per_client < 1:
        raise ValidationError("n_clients and per_client must be >= 1")


def _ids_by_label(source: EmbeddingStore, labels) -> dict:
    """Each label's ids, sorted, keyed in sorted label order."""
    lab = np.asarray(labels)
    if lab.shape[0] != len(source):
        raise ValidationError(
            f"labels length {lab.shape[0]} does not match store size {len(source)}"
        )
    return {
        name: np.sort(source.ids[lab == name]).astype(np.uint64)
        for name in sorted(set(lab.tolist()))
    }


def _largest_remainder_quotas(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer quotas summing to ``total``; ties go to the lowest cluster index."""
    raw = proportions * total
    base = np.floor(raw).astype(int)
    rem = total - int(base.sum())
    frac = raw - base
    if rem > 0:
        order = np.lexsort((np.arange(len(frac)), -frac))
        base[order[:rem]] += 1
    return base


def _draw_dirichlet(rng: np.random.Generator, beta: float, size: int) -> np.ndarray:
    # tiny concentrations can underflow to an all-zero draw; redraw keeps
    # the stream deterministic
    for _ in range(100):
        p = rng.dirichlet(np.full(size, beta))
        if np.all(np.isfinite(p)) and p.sum() > 0:
            return p
    raise ValidationError(f"could not draw a finite Dirichlet sample for beta={beta}")


def dirichlet_partition(
    source: EmbeddingStore,
    labels,
    n_clients: int,
    per_client: int,
    beta: float,
    seed: int,
) -> PartitionPlan:
    """Heterogeneity-controlled split: Dir(beta) over pseudo-label clusters."""
    _check_counts(source, n_clients, per_client)
    if check_number(beta, "beta") <= 0:
        raise ValidationError(f"beta must be > 0, got {beta}")
    if n_clients > len(source):  # the client loop is bounded by the records
        raise ValidationError(
            f"n_clients {n_clients} exceeds the {len(source)} records to partition"
        )
    remaining = _ids_by_label(source, labels)
    names = list(remaining)
    rng = np.random.default_rng([seed])

    assignments: list[list[int]] = []
    shortfalls: list[int] = []
    for _ in range(n_clients):
        probs = _draw_dirichlet(rng, beta, len(names))
        quotas = _largest_remainder_quotas(probs, per_client)
        takes = {
            name: min(int(quotas[c]), len(remaining[name]))
            for c, name in enumerate(names)
        }
        residual = per_client - sum(takes.values())
        while residual > 0:
            open_clusters = [
                (c, name)
                for c, name in enumerate(names)
                if len(remaining[name]) - takes[name] > 0
            ]
            if not open_clusters:
                break
            c, name = max(open_clusters, key=lambda cn: (probs[cn[0]], -cn[0]))
            add = min(residual, len(remaining[name]) - takes[name])
            takes[name] += add
            residual -= add
        shortfalls.append(residual)

        chosen: list[int] = []
        for name in names:
            t = takes[name]
            if t == 0:
                continue
            # the draws of rng.choice(ids, ...), which takes ids at these positions
            at = rng.choice(len(remaining[name]), size=t, replace=False)
            chosen.extend(remaining[name][at].tolist())
            keep = np.ones(len(remaining[name]), dtype=bool)
            keep[at] = False
            remaining[name] = remaining[name][keep]
        assignments.append(sorted(chosen))

    return PartitionPlan("dirichlet", beta, seed, assignments, shortfalls)


def iid_partition(
    source: EmbeddingStore,
    n_clients: int,
    per_client: int,
    seed: int,
) -> PartitionPlan:
    """Uniform sample of n_clients * per_client ids, split into equal shards."""
    _check_counts(source, n_clients, per_client)
    need = n_clients * per_client
    if need > len(source):
        raise ValidationError(
            f"insufficient records: need {need}, store has {len(source)}"
        )
    rng = np.random.default_rng([seed])
    pos = rng.choice(len(source), size=need, replace=False)
    ids = source.ids[pos]
    assignments = [
        sorted(int(x) for x in ids[k * per_client : (k + 1) * per_client])
        for k in range(n_clients)
    ]
    return PartitionPlan("iid", None, seed, assignments, [0] * n_clients)


def distinct_cluster_partition(
    source: EmbeddingStore,
    labels,
    n_clients: int,
    per_client: int,
    seed: int,
) -> PartitionPlan:
    """Each client samples from its own randomly chosen, disjoint cluster group."""
    _check_counts(source, n_clients, per_client)
    ids_by_cluster = _ids_by_label(source, labels)
    names = list(ids_by_cluster)
    rng = np.random.default_rng([seed])
    order = [names[i] for i in rng.permutation(len(names))]

    assignments: list[list[int]] = []
    cursor = 0
    for _ in range(n_clients):
        group: list[np.ndarray] = []
        available = 0
        while available < per_client:
            if cursor >= len(order):
                raise ValidationError(
                    "not enough distinct clusters to serve all clients"
                )
            ids = ids_by_cluster[order[cursor]]
            cursor += 1
            group.append(ids)
            available += len(ids)
        pool = np.sort(np.concatenate(group))
        picked = rng.choice(pool, size=per_client, replace=False)
        assignments.append(sorted(int(x) for x in picked))

    return PartitionPlan("distinct", None, seed, assignments, [0] * n_clients)
