import dataclasses
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from fedca import cli, fedsim
from fedca.augment import feddca_augment, retrieve_topk
from fedca.errors import ValidationError
from fedca.metrics import icacs, ruai
from fedca.fedsim import (
    MAX_ROUNDS,
    STRATEGIES,
    ExperimentConfig,
    compare_strategies,
    derive_seed,
    heterogeneity_sweep,
    run_experiment,
    write_rows_csv,
)
from fedca.partition import dirichlet_partition
from fedca.store import write_binary
from fedca.synthetic import planted_cluster_pool

# chi-squared critical value, df=9, p=0.01
CHI2_CRIT_DF9_P01 = 21.666


@pytest.fixture(scope="module")
def pool():
    store, _ = planted_cluster_pool(
        n_clusters=10, per_cluster=60, out_records=600, dim=16, seed=2,
        noise=0.18, direction_correlation=0.6,
    )
    return store


def _config(pool_path="unused.fdca", **overrides):
    base = dict(
        pool_path=pool_path, domain_label="dom", n_clients=6, per_client_local=20,
        per_client_aug=40, xi=4, alpha=0.7, beta_or_mode=0.1, rounds=8,
        clients_per_round=2, seed=42, strategy="feddca", pseudo_label_clusters=10,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_message_choreography(pool):
    log = run_experiment(_config(), pool=pool)
    assert [(m.kind, m.round, m.client) for m in log.messages] == [
        *[("UploadCenters", 0, k) for k in range(6)],
        ("SelectionDone", 0, None),
        *[("AugmentedSet", 0, k) for k in range(6)],
        *[("RoundSample", r, None) for r in range(1, 9)],
    ]
    for msg in log.messages:
        if msg.kind == "RoundSample":
            assert msg.clients is not None and len(msg.clients) == 2
            assert len(set(msg.clients)) == 2  # without replacement in a round


def test_upload_payloads_match_comm_accounting(pool):
    log = run_experiment(_config(), pool=pool)
    upload = sum(m.payload_size for m in log.messages if m.kind == "UploadCenters")
    assert upload == log.metrics.comm_upload_floats
    download = sum(m.payload_size for m in log.messages if m.kind == "AugmentedSet")
    assert download == log.metrics.comm_download_records
    # a 36-record domain for 4 clients x 10 records: the last client holds 6
    # records, so its k-means returns 6 centers, not xi = 8
    small, _ = planted_cluster_pool(n_clusters=4, per_cluster=9, out_records=100, dim=16,
                                    seed=2, noise=0.18)
    log = run_experiment(_config(n_clients=4, per_client_local=10, per_client_aug=10, xi=8,
                                 pseudo_label_clusters=4), pool=small)
    uploads = [m.payload_size for m in log.messages if m.kind == "UploadCenters"]
    assert uploads == [8 * 16, 8 * 16, 8 * 16, 6 * 16]
    assert sum(uploads) == log.metrics.comm_upload_floats


def test_replay_determinism_and_persistence(pool, tmp_path):
    write_binary(pool, tmp_path / "pool.fdca")
    cfg = _config(pool_path=str(tmp_path / "pool.fdca"))
    log1 = run_experiment(cfg, out_dir=tmp_path / "runs")
    log2 = run_experiment(cfg, out_dir=tmp_path / "runs2")
    assert log1.to_lines() == log2.to_lines()
    run_dir = log1.run_dir
    assert (run_dir / "log.jsonl").exists()
    assert (run_dir / "timing.json").exists()
    assert (run_dir / "plan.json").exists()
    assert (run_dir / "selection.json").exists()
    assert (run_dir / "augsets.json").exists()
    a = (run_dir / "log.jsonl").read_bytes()
    b = (log2.run_dir / "log.jsonl").read_bytes()
    assert a == b
    # run dir is content-addressed by the config
    assert run_dir.name == cfg.config_hash()


def test_random_strategy_has_empty_selection(pool):
    log = run_experiment(_config(strategy="random"), pool=pool)
    assert log.selection is None
    done = [m for m in log.messages if m.kind == "SelectionDone"]
    assert len(done) == 1 and done[0].payload_size == 0
    assert log.metrics.convergence_passes == 0


def test_strategies_share_partition_but_differ_in_augsets(pool):
    feddca = run_experiment(_config(strategy="feddca"), pool=pool)
    direct = run_experiment(_config(strategy="direct"), pool=pool)
    assert feddca.plan.assignments == direct.plan.assignments
    assert [r.ids() for r in feddca.augsets] != [r.ids() for r in direct.augsets]


def test_round_count_does_not_perturb_partition(pool):
    short = run_experiment(_config(rounds=1), pool=pool)
    long = run_experiment(_config(rounds=20), pool=pool)
    assert short.plan.assignments == long.plan.assignments
    assert [r.ids() for r in short.augsets] == [r.ids() for r in long.augsets]


def test_iid_and_distinct_modes_run(pool):
    for mode in ("iid", "distinct"):
        log = run_experiment(_config(beta_or_mode=mode), pool=pool)
        assert log.plan.mode == mode
        assert len(log.plan.assignments) == 6


def test_round_sampling_uniformity_chi_squared():
    # the sampling stream alone, over many rounds
    n_clients, rounds = 10, 10_000
    rng = np.random.default_rng([42, 7])
    counts = np.zeros(n_clients)
    for _ in range(rounds):
        picked = rng.choice(n_clients, 2, replace=False)
        counts[picked] += 1
    expected = 2 * rounds / n_clients
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < CHI2_CRIT_DF9_P01


def test_compare_strategies_rows_and_validation(pool):
    cfg = _config()
    rows = compare_strategies(cfg, ("feddca", "direct", "random"), pool=pool)
    assert [r["strategy"] for r in rows] == ["feddca", "direct", "random"]
    for row in rows:
        assert 0.0 < row["domain_coverage"] <= 1.0
        assert 0.0 < row["ruai"] <= 1.0
    # identical strategy repeated gives identical rows
    twice = compare_strategies(cfg, ("feddca", "feddca"), pool=pool)
    assert twice[0] == twice[1]
    with pytest.raises(ValidationError, match="no configs"):
        compare_strategies(cfg, (), pool=pool)
    # an unknown name fails before the pool (an absent path here) is read
    with pytest.raises(ValidationError, match="unknown strategy 'bogus'"):
        compare_strategies(cfg, ("feddca", "bogus"))


def test_heterogeneity_sweep_shape_and_csv(pool, tmp_path):
    cfg = _config()
    rows = heterogeneity_sweep(cfg, [0.1, 1.0], strategies=("direct", "random"), pool=pool)
    assert len(rows) == 4
    assert [(r["beta"], r["strategy"]) for r in rows] == [
        (0.1, "direct"), (0.1, "random"), (1.0, "direct"), (1.0, "random"),
    ]
    with pytest.raises(ValidationError, match="no configs"):
        heterogeneity_sweep(cfg, [0.1], strategies=(), pool=pool)
    out = tmp_path / "sweep.csv"
    write_rows_csv(rows, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("beta,strategy,domain_coverage")
    assert len(lines) == 5


def _standalone_row(cfg, pool):
    metrics = run_experiment(cfg, pool=pool).metrics.to_json_dict()
    del metrics["reference_size"]
    return {"strategy": cfg.strategy, **metrics}


@pytest.mark.parametrize("mode", [0.1, "iid", "distinct"])
@pytest.mark.parametrize("order", [STRATEGIES, STRATEGIES[::-1]])
def test_compare_rows_and_logs_equal_standalone_runs(pool, monkeypatch, mode, order):
    logs = []
    run_strategy = fedsim._run_strategy

    def spy(*args, **kwargs):
        logs.append(run_strategy(*args, **kwargs))
        return logs[-1]

    monkeypatch.setattr(fedsim, "_run_strategy", spy)
    configs = [_config(beta_or_mode=mode, strategy=s) for s in order]
    rows = compare_strategies(_config(beta_or_mode=mode), order, pool=pool)
    monkeypatch.undo()
    assert [log.config for log in logs] == configs
    for cfg, row, log in zip(configs, rows, logs):
        assert row == _standalone_row(cfg, pool)
        assert log.to_lines() == run_experiment(cfg, pool=pool).to_lines()


def test_sweep_rows_equal_standalone_runs(pool):
    cfg = _config(beta_or_mode="iid")
    rows = heterogeneity_sweep(cfg, [0.1, 2], strategies=("random", "feddca"), pool=pool)
    expected = [
        {"beta": beta, **_standalone_row(
            dataclasses.replace(cfg, beta_or_mode=float(beta), strategy=s), pool)}
        for beta in (0.1, 2) for s in ("random", "feddca")
    ]
    assert rows == expected


def _count_calls(monkeypatch, module, name):
    """Counts of ``module.name`` calls, keyed by whether ``client_id`` was passed."""
    counts = Counter()
    original = getattr(module, name)

    def counting(*args, **kwargs):
        counts["client" if "client_id" in kwargs else "other"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return counts


def test_compare_and_sweep_run_the_prefix_once(pool, monkeypatch):
    kmeans_calls = _count_calls(monkeypatch, fedsim, "kmeans")
    run_experiment(_config(), pool=pool)
    assert kmeans_calls == {"other": 1, "client": 6}  # pseudo-labels; one per client
    kmeans_calls.clear()
    compare_strategies(_config(), pool=pool)
    assert kmeans_calls == {"other": 1, "client": 6}  # pseudo-labels; one per client
    kmeans_calls.clear()
    heterogeneity_sweep(_config(), [0.1, 1.0, 10.0], pool=pool)
    assert kmeans_calls == {"other": 1, "client": 3 * 6}


def test_cli_compare_reads_the_pool_once(pool, tmp_path, monkeypatch, capsys):
    write_binary(pool, tmp_path / "pool.fdca")
    cfg = _config(pool_path=str(tmp_path / "pool.fdca"))
    (tmp_path / "exp.json").write_text(json.dumps(cfg.to_json_dict()))
    reads = _count_calls(monkeypatch, fedsim, "ingest_binary")
    cli_reads = _count_calls(monkeypatch, cli, "ingest_binary")
    assert cli.main(["compare", "--config", str(tmp_path / "exp.json"),
                     "--out", str(tmp_path / "table.csv")]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == 3
    assert sum(reads.values()) + sum(cli_reads.values()) == 1


def test_non_finite_alpha_and_beta_are_rejected(pool):
    with pytest.raises(ValidationError, match="config field 'alpha'"):
        _config(alpha=math.nan)
    assert _config(alpha=math.inf).alpha == math.inf  # disables filtering
    for beta in (math.nan, math.inf, -math.inf, 10**400):
        with pytest.raises(ValidationError, match="config field 'beta_or_mode'"):
            _config(beta_or_mode=beta)
    with pytest.raises(ValidationError, match="config field 'alpha'"):
        ExperimentConfig.from_json_dict(
            json.loads(json.dumps({**_config().to_json_dict(), "alpha": math.nan})))
    for alpha in (-1.0000001, -2, -math.inf):
        with pytest.raises(ValidationError, match="config field 'alpha' must be >= -1"):
            _config(alpha=alpha)
    assert _config(alpha=-1).alpha == -1
    labels = np.zeros(len(pool), dtype=np.int64)
    for beta in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="beta"):
            dirichlet_partition(pool, labels, 2, 5, beta, 0)
    with pytest.raises(ValidationError, match="threshold"):
        retrieve_topk(pool, pool.vectors[0], 5, math.nan)
    selection = run_experiment(_config(), pool=pool).selection
    with pytest.raises(ValidationError, match="threshold"):
        feddca_augment(pool, selection, 5, math.nan)


def test_config_json_round_trip_and_validation(tmp_path):
    cfg = _config()
    again = ExperimentConfig.from_json_dict(cfg.to_json_dict())
    assert again == cfg
    with pytest.raises(ValidationError, match="version"):
        ExperimentConfig.from_json_dict({**cfg.to_json_dict(), "version": 9})
    with pytest.raises(ValidationError, match="unknown config fields"):
        ExperimentConfig.from_json_dict({**cfg.to_json_dict(), "bogus": 1})
    with pytest.raises(ValidationError, match="clients_per_round"):
        _config(clients_per_round=99)
    with pytest.raises(ValidationError, match="strategy"):
        _config(strategy="magic")
    with pytest.raises(ValidationError, match="beta_or_mode"):
        _config(beta_or_mode="shuffled")


def test_rounds_are_bounded():
    # one RoundSample per round: an unbounded count would grow the log without end
    assert _config(rounds=MAX_ROUNDS).rounds == MAX_ROUNDS
    with pytest.raises(ValidationError, match="config field 'rounds' must be at most"):
        _config(rounds=2**40)
    with pytest.raises(ValidationError, match="config field 'rounds'"):
        ExperimentConfig.from_json_dict({**_config().to_json_dict(), "rounds": 2**40})


def test_client_picks_are_bounded():
    # each RoundSample lists its picked clients, so the log grows with both counts
    assert _config(rounds=MAX_ROUNDS, n_clients=2, clients_per_round=2).rounds == MAX_ROUNDS
    with pytest.raises(ValidationError,
                       match="'rounds' x 'clients_per_round' must be at most 200000, "
                             "got 100000 x 1000"):
        _config(rounds=100_000, n_clients=1_000, clients_per_round=1_000)
    with pytest.raises(ValidationError, match="'clients_per_round'"):
        _config(rounds=201, n_clients=1_000, clients_per_round=1_000)


def test_metrics_take_icacs_over_the_clients_holding_records(pool):
    ids = pool.ids.tolist()
    local, held = [ids[:5], ids[5:10], ids[10:15]], [ids[20:32], ids[40:52]]
    aug = [held[0], [], held[1]]
    report = fedsim.assemble_metrics(pool, pool, local, aug, xi=4, seed=42, passes=0)
    seed = derive_seed(42, fedsim._STREAM_ICACS)
    assert report.icacs == icacs([pool.vectors_for(h) for h in held], seed=seed)
    assert report.ruai == ruai(aug) == ruai(held)
    report = fedsim.assemble_metrics(pool, pool, local, [[], held[0], []], 4, 42, 0)
    assert (report.icacs, report.ruai) == (None, 1.0)
    report = fedsim.assemble_metrics(pool, pool, local, [[], [], []], 4, 42, 0)
    assert (report.icacs, report.ruai) == (None, None)


def test_derive_seed_is_stable_and_labelled():
    assert derive_seed(42, 1) == derive_seed(42, 1)
    assert derive_seed(42, 1) != derive_seed(42, 2)
    assert derive_seed(42, 3, 0) != derive_seed(42, 3, 1)


@pytest.mark.parametrize("strategy", ["feddca", "direct"])
def test_peak_memory_grows_about_linearly_in_the_client_count(strategy):
    # one local record and 10 augmented ones per client: 4x the clients may
    # take about 4x the memory, but not the n^2 cross-client ICACS products
    store, _ = planted_cluster_pool(n_clusters=8, per_cluster=30, out_records=60, dim=16,
                                    seed=4, noise=0.18)

    def config(n_clients):
        return _config(n_clients=n_clients, per_client_local=1, per_client_aug=10, xi=1,
                       beta_or_mode="iid", rounds=1, clients_per_round=1, strategy=strategy,
                       pseudo_label_clusters=8)

    run_experiment(config(2), pool=store)  # one-off allocations stay out of the peaks
    peaks = {}
    for n_clients in (50, 200):
        tracemalloc.start()
        try:
            run_experiment(config(n_clients), pool=store)
            peaks[n_clients] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[200] <= 6 * peaks[50], peaks
