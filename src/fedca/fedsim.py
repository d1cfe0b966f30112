"""Deterministic simulation of the augmentation protocol rounds.

One run executes partition -> per-client clustering -> (strategy-dependent)
center selection -> augmentation -> metrics, then emits the round-sampling
schedule. No model training happens here: rounds exist to model client
sampling and message accounting only.

Message choreography (all setup messages are round 0):

* one ``UploadCenters`` per client (payload: min(xi, local records) * dim
  floats),
* one ``SelectionDone`` (payload: selected floats; empty for the baselines),
* one ``AugmentedSet`` per client (payload: record count),
* then one ``RoundSample`` per round naming the participating clients.

Runs are replayable: the serialized log is a pure function of the config and
the input stores (wall-clock timings are kept out of the deterministic
lines). RNG streams are derived from the run seed with distinct labels, so
e.g. changing the round count never perturbs the partition.

Load, partition (with its pseudo-label k-means) and client clustering do not
depend on the strategy. One generator, ``_runs``, runs partition and client
clustering once for a group of configs that differ only in strategy, then
yields each config's log. ``run_experiment`` takes its one log;
``compare_strategies`` and ``heterogeneity_sweep`` (one group per beta, on
pseudo-labels computed once) turn every log into a row, so each row equals
the metrics of a standalone ``run_experiment``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .augment import (
    RetrievalResult,
    augments_to_json,
    direct_retrieval_augment,
    feddca_augment,
    random_sampling_augment,
)
from .clustering import CandidateCenters, kmeans
from .errors import ValidationError, check_json, check_number
from .metrics import MetricsReport, comm_cost, cross_client_coverage, icacs, ruai
from .partition import (
    PartitionPlan,
    dirichlet_partition,
    distinct_cluster_partition,
    iid_partition,
)
from .selection import CenterSelection, SelectionProblem, greedy_select
from .store import EmbeddingStore, ingest_binary

STRATEGIES = ("feddca", "direct", "random")
# one RoundSample message per round, naming its picked clients: at most
# MAX_ROUNDS rounds and 2 * MAX_ROUNDS picks in all keep log.jsonl near 10 MB
MAX_ROUNDS = 100_000

# labels for seed-stream derivation; adding or dropping one renumbers no other
_STREAM_PSEUDO_LABELS = 1
_STREAM_PARTITION = 2
_STREAM_CLIENT_KMEANS = 3
_STREAM_AUGMENT = 5
_STREAM_ICACS = 6
_STREAM_ROUNDS = 7

_INT = (int,)
_CONFIG_KINDS = {
    "pool_path": (str,), "domain_label": (str,), "n_clients": _INT,
    "per_client_local": _INT, "per_client_aug": _INT, "xi": _INT,
    "alpha": (int, float, type(None)), "beta_or_mode": (int, float, str), "rounds": _INT,
    "clients_per_round": _INT, "seed": _INT, "strategy": (str,),
    "pseudo_label_clusters": _INT, "version": _INT,
}


def derive_seed(seed: int, *labels: int) -> int:
    """A labeled child seed, stable across platforms and runs."""
    return int(np.random.SeedSequence([seed, *labels]).generate_state(1)[0])


@dataclass(frozen=True)
class ProtocolMessage:
    kind: str
    round: int
    client: int | None
    payload_size: int
    payload_ref: str | None = None
    clients: tuple[int, ...] | None = None

    def to_json_dict(self) -> dict:
        obj: dict = {
            "kind": self.kind,
            "round": self.round,
            "client": self.client,
            "payload_size": self.payload_size,
        }
        if self.payload_ref is not None:
            obj["payload_ref"] = self.payload_ref
        if self.clients is not None:
            obj["clients"] = list(self.clients)
        return obj


@dataclass
class ExperimentConfig:
    """Everything one seeded run depends on. Serialized field-for-field."""

    pool_path: str
    domain_label: str
    n_clients: int = 10
    per_client_local: int = 100
    per_client_aug: int = 1000
    xi: int = 10
    alpha: float | None = 0.7
    beta_or_mode: float | str = 0.1
    rounds: int = 30
    clients_per_round: int = 2
    seed: int = 42
    strategy: str = "feddca"
    pseudo_label_clusters: int = 100
    version: int = 1

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for name, kinds in _CONFIG_KINDS.items():
            check_json(getattr(self, name), kinds, f"config field {name!r}")
        if self.version != 1:
            raise ValidationError(f"unsupported config version {self.version}")
        for name in ("n_clients", "per_client_local", "per_client_aug", "xi",
                     "rounds", "clients_per_round", "pseudo_label_clusters"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if self.rounds > MAX_ROUNDS:
            raise ValidationError(
                f"config field 'rounds' must be at most {MAX_ROUNDS}, got {self.rounds}"
            )
        if self.rounds * self.clients_per_round > 2 * MAX_ROUNDS:
            raise ValidationError(
                f"config fields 'rounds' x 'clients_per_round' must be at most "
                f"{2 * MAX_ROUNDS}, got {self.rounds} x {self.clients_per_round}"
            )
        if self.seed < 0:  # numpy seeds are non-negative
            raise ValidationError(f"config field 'seed' must be >= 0, got {self.seed}")
        if self.clients_per_round > self.n_clients:
            raise ValidationError("clients_per_round exceeds n_clients")
        if self.strategy not in STRATEGIES:
            raise ValidationError(f"unknown strategy {self.strategy!r}")
        if self.alpha is not None:  # infinity disables filtering; below -1 filters all
            check_number(self.alpha, "config field 'alpha'", finite=False, minimum=-1.0)
        if isinstance(self.beta_or_mode, str):
            if self.beta_or_mode not in ("iid", "distinct"):
                raise ValidationError(
                    f"beta_or_mode must be a positive number, 'iid', or 'distinct'; "
                    f"got {self.beta_or_mode!r}"
                )
        elif check_number(self.beta_or_mode, "config field 'beta_or_mode'") <= 0:
            raise ValidationError("beta_or_mode must be > 0 when numeric")
        if self.xi > self.per_client_local:
            raise ValidationError("xi cannot exceed per_client_local")

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ExperimentConfig":
        check_json(obj, (dict,), "config")
        fields = dataclasses.fields(cls)
        unknown = set(obj) - {f.name for f in fields}
        if unknown:
            raise ValidationError(f"unknown config fields: {sorted(unknown)}")
        missing = [f.name for f in fields
                   if f.default is dataclasses.MISSING and f.name not in obj]
        if missing:
            raise ValidationError(f"config is missing fields {missing}")
        return cls(**obj)

    def config_hash(self) -> str:
        canon = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


@dataclass
class ExperimentLog:
    """Replayable record of one run; timings are excluded from the replayed lines."""

    config: ExperimentConfig
    messages: list[ProtocolMessage]
    selection: CenterSelection | None
    plan: PartitionPlan
    augsets: list[RetrievalResult]
    metrics: MetricsReport
    timings: dict[str, float] = field(default_factory=dict)
    run_dir: Path | None = None

    def to_lines(self) -> list[str]:
        lines = [json.dumps({"record": "config", "config": self.config.to_json_dict()},
                            sort_keys=True)]
        for msg in self.messages:
            lines.append(json.dumps({"record": "message", **msg.to_json_dict()}, sort_keys=True))
        sel = self.selection.to_json_dict() if self.selection is not None else None
        lines.append(json.dumps({"record": "selection", "selection": sel}, sort_keys=True))
        lines.append(json.dumps({"record": "metrics", **self.metrics.to_json_dict()},
                                sort_keys=True))
        return lines

    def persist(self, out_dir: str | Path) -> Path:
        run_dir = Path(out_dir) / self.config.config_hash()
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "log.jsonl").write_text("\n".join(self.to_lines()) + "\n", encoding="utf-8")
        write_json(self.timings, run_dir / "timing.json")
        write_json(self.plan.to_json_dict(), run_dir / "plan.json")
        if self.selection is not None:
            write_json(self.selection.to_json_dict(), run_dir / "selection.json")
        write_json(augments_to_json(self.augsets), run_dir / "augsets.json")
        self.run_dir = run_dir
        return run_dir


def partition_domain(
    domain_store: EmbeddingStore,
    beta_or_mode: float | str,
    n_clients: int,
    per_client: int,
    label_clusters: int,
    seed: int,
    *,
    labels: np.ndarray | None = None,
) -> PartitionPlan:
    """Split the domain records into per-client local sets.

    ``beta_or_mode`` is a Dirichlet concentration, ``"iid"`` or
    ``"distinct"``. ``seed`` is the run seed: the pseudo-label k-means and
    the partition draw use streams derived from it, so the plan equals the
    one a run with this seed writes. ``labels``, when given, are the
    pseudo-labels: the labels the run's pseudo-label k-means ends on
    (``kmeans(...).labels``), one per domain record in store order.
    """
    partition_seed = derive_seed(seed, _STREAM_PARTITION)
    if beta_or_mode == "iid":
        return iid_partition(domain_store, n_clients, per_client, partition_seed)
    if labels is None:
        labels = _pseudo_labels(domain_store, label_clusters, seed)
    if beta_or_mode == "distinct":
        return distinct_cluster_partition(
            domain_store, labels, n_clients, per_client, partition_seed
        )
    return dirichlet_partition(
        domain_store, labels, n_clients, per_client, float(beta_or_mode), partition_seed
    )


def _pseudo_labels(domain_store: EmbeddingStore, label_clusters: int, seed: int) -> np.ndarray:
    """Pseudo-label of every domain record, the label k-means ended on;
    independent of beta and strategy."""
    k_lab = min(label_clusters, len(domain_store))
    return kmeans(domain_store.vectors, k_lab, derive_seed(seed, _STREAM_PSEUDO_LABELS)).labels


def random_augment(pool: EmbeddingStore, n_clients: int, per_client: int, seed: int) -> list:
    """The random strategy's augmented sets on the stream derived from run seed ``seed``."""
    return random_sampling_augment(pool, n_clients, per_client, derive_seed(seed, _STREAM_AUGMENT))


def assemble_metrics(
    domain_store: EmbeddingStore,
    universe: EmbeddingStore,
    local_ids: list[list[int]],
    aug_ids: list[list[int]],
    xi: int,
    seed: int,
    passes: int,
) -> MetricsReport:
    """Coverage, ICACS, RUAI and communication cost of one run's client data.

    Client k holds ``local_ids[k]`` and ``aug_ids[k]``; every id resolves in
    ``universe``. ``seed`` is the run seed (ICACS uses a stream derived from
    it) and ``passes`` the selection's convergence passes (0 without one).
    ICACS runs over the clients that hold augmented records and is None when
    fewer than two do; RUAI is None when none does.
    """
    if len(aug_ids) != len(local_ids):
        raise ValidationError(
            f"augsets cover {len(aug_ids)} clients but the plan has {len(local_ids)}"
        )
    n_clients = len(local_ids)
    domain_cov = cross_client_coverage(domain_store, list(zip(local_ids, aug_ids)), universe)
    held = [ids for ids in aug_ids if len(ids)]
    icacs_value = None
    if len(held) >= 2:
        icacs_value = icacs(
            [universe.vectors_for(ids) for ids in held], seed=derive_seed(seed, _STREAM_ICACS)
        )
    # client k uploads the min(xi, |local_ids[k]|) centers its k-means returns
    _, download = comm_cost(n_clients, xi, universe.dim, aug_ids)
    upload = sum(min(xi, len(ids)) for ids in local_ids) * universe.dim
    return MetricsReport(
        domain_coverage=domain_cov,
        icacs=icacs_value,
        ruai=ruai(aug_ids) if held else None,
        comm_upload_floats=upload,
        comm_download_records=download,
        convergence_passes=passes,
    )


def _load(
    config: ExperimentConfig, pool: EmbeddingStore | None
) -> tuple[EmbeddingStore, EmbeddingStore]:
    """The pool (read from ``config.pool_path`` unless given) and its domain records."""
    if pool is None:
        pool = ingest_binary(config.pool_path)
    domain_store = pool.subset_by_domain(config.domain_label)
    if len(domain_store) == 0:
        raise ValidationError(
            f"pool has no records with domain label {config.domain_label!r}"
        )
    return pool, domain_store


def _runs(
    configs: list[ExperimentConfig],
    pool: EmbeddingStore,
    domain_store: EmbeddingStore,
    timings: dict[str, float],
    labels: np.ndarray | None = None,
) -> Iterator[ExperimentLog]:
    """The log of each config, in order, all on one partition and client clustering.

    Partition (with its pseudo-label k-means, unless ``labels`` are given)
    and client k-means run once, from ``configs[0]``; the configs must
    differ only in strategy. Their stage times are added to ``timings``,
    and each log starts from a copy of it.
    """
    config = configs[0]
    t0 = time.perf_counter()
    plan = partition_domain(
        domain_store, config.beta_or_mode, config.n_clients, config.per_client_local,
        config.pseudo_label_clusters, config.seed, labels=labels,
    )
    timings["partition"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    candidates = [
        kmeans(domain_store.vectors_for(ids), min(config.xi, len(ids)),
               derive_seed(config.seed, _STREAM_CLIENT_KMEANS, k), client_id=k)
        for k, ids in enumerate(plan.assignments)
    ]
    timings["client_clustering"] = time.perf_counter() - t0

    for config in configs:
        yield _run_strategy(config, pool, domain_store, plan, candidates, dict(timings))


def _run_strategy(
    config: ExperimentConfig,
    pool: EmbeddingStore,
    domain_store: EmbeddingStore,
    plan: PartitionPlan,
    candidates: list[CandidateCenters],
    timings: dict[str, float],
) -> ExperimentLog:
    """Selection, augmentation, metrics and rounds on a shared plan and client centers.

    Messages are built in protocol order. Stage times are added to
    ``timings``, which the log keeps.
    """
    messages = [
        ProtocolMessage(kind="UploadCenters", round=0, client=k, payload_size=cand.k * pool.dim)
        for k, cand in enumerate(candidates)
    ]
    t0 = time.perf_counter()
    selection: CenterSelection | None = None
    if config.strategy == "feddca":
        selection = greedy_select(SelectionProblem(candidates_per_client=candidates))
        sel_payload = len(selection.slots) * pool.dim
    else:
        sel_payload = 0
    messages.append(ProtocolMessage(
        kind="SelectionDone", round=0, client=None,
        payload_size=sel_payload, payload_ref="selection.json" if selection else None,
    ))
    timings["selection"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if config.strategy == "feddca":
        augsets = feddca_augment(pool, selection, config.per_client_aug, config.alpha)
    elif config.strategy == "direct":
        augsets = direct_retrieval_augment(pool, candidates, config.per_client_aug)
    else:
        augsets = random_augment(pool, config.n_clients, config.per_client_aug, config.seed)
    # augset i is distributed to client i (slot order for feddca)
    for k, result in enumerate(augsets):
        messages.append(ProtocolMessage(
            kind="AugmentedSet", round=0, client=k,
            payload_size=len(result.hits), payload_ref="augsets.json",
        ))
    timings["augment"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    report = assemble_metrics(
        domain_store, pool, plan.assignments, [result.ids() for result in augsets],
        config.xi, config.seed, selection.passes if selection is not None else 0,
    )
    timings["metrics"] = time.perf_counter() - t0

    rng = np.random.default_rng([config.seed, _STREAM_ROUNDS])
    for r in range(1, config.rounds + 1):
        picked = sorted(
            int(c) for c in rng.choice(config.n_clients, config.clients_per_round, replace=False)
        )
        messages.append(ProtocolMessage(
            kind="RoundSample", round=r, client=None,
            payload_size=config.clients_per_round, clients=tuple(picked),
        ))

    return ExperimentLog(
        config=config, messages=messages, selection=selection,
        plan=plan, augsets=augsets, metrics=report, timings=timings,
    )


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
    pool: EmbeddingStore | None = None,
) -> ExperimentLog:
    """Execute one seeded run end to end; persist artifacts when ``out_dir`` given.

    ``pool`` may be passed directly to skip re-reading ``config.pool_path``.
    """
    config.validate()
    t0 = time.perf_counter()
    pool, domain_store = _load(config, pool)
    log = next(_runs([config], pool, domain_store, {"load": time.perf_counter() - t0}))
    if out_dir is not None:
        log.persist(out_dir)
    return log


def _row(log: ExperimentLog) -> dict:
    """A compare row: the run's strategy and its metrics but the reference size."""
    metrics = log.metrics.to_json_dict()
    del metrics["reference_size"]
    return {"strategy": log.config.strategy, **metrics}


def compare_strategies(
    config: ExperimentConfig,
    strategies: tuple[str, ...] = STRATEGIES,
    pool: EmbeddingStore | None = None,
) -> list[dict]:
    """One metrics row per strategy, in order, of ``config`` run with it.

    Every config is built (and validated) before the pool is read. The pool
    is loaded, and the domain partitioned and clustered per client, once per
    call for every strategy, so each row equals the metrics of a standalone
    ``run_experiment``. Nothing is cached across calls.
    """
    if not strategies:
        raise ValidationError("no configs to compare")
    configs = [dataclasses.replace(config, strategy=s) for s in strategies]
    pool, domain_store = _load(config, pool)
    return [_row(log) for log in _runs(configs, pool, domain_store, {})]


def heterogeneity_sweep(
    base: ExperimentConfig,
    betas: list[float],
    strategies: tuple[str, ...] = STRATEGIES,
    pool: EmbeddingStore | None = None,
) -> list[dict]:
    """A compare_strategies block per beta; rows carry a leading beta column.

    The pool is loaded and the pseudo-labels (which depend on the domain
    records, ``pseudo_label_clusters`` and the seed, not on beta) are
    computed once per call; each beta then partitions and clusters once for
    all strategies. Every row equals the metrics of a standalone
    ``run_experiment``.
    """
    if not betas:
        raise ValidationError("betas must be nonempty")
    if not strategies:
        raise ValidationError("no configs to compare")
    groups = [
        [dataclasses.replace(base, beta_or_mode=float(beta), strategy=s) for s in strategies]
        for beta in betas
    ]
    pool, domain_store = _load(base, pool)
    labels = _pseudo_labels(domain_store, base.pseudo_label_clusters, base.seed)
    return [
        {"beta": beta, **_row(log)}
        for beta, configs in zip(betas, groups)
        for log in _runs(configs, pool, domain_store, {}, labels)
    ]


def write_json(obj, path: str | Path) -> None:
    """``obj`` as compact JSON (Python's C encoder; ``indent`` is pure Python)
    and a newline: the one layout of every JSON file fedca writes."""
    Path(path).write_text(json.dumps(obj) + "\n", encoding="utf-8")


def write_rows_csv(rows: list[dict], path: str | Path) -> None:
    import csv

    if not rows:
        raise ValidationError("no rows to write")
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
