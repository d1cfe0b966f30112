import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from fedca import geometry, selection, selfcheck
from fedca.cli import EXIT_USAGE, build_parser, main
from fedca.fedsim import (
    _STREAM_CLIENT_KMEANS,
    STRATEGIES,
    ExperimentConfig,
    derive_seed,
    run_experiment,
)
from fedca.store import ingest_binary, write_binary, write_jsonl
from fedca.synthetic import planted_cluster_pool, random_store
from oracles import literal_kmeans
from probes import fedca_process


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    pool, _ = planted_cluster_pool(
        n_clusters=6, per_cluster=50, out_records=300, dim=16, seed=3,
        noise=0.18, direction_correlation=0.6,
    )
    write_binary(pool, root / "pool.fdca")
    write_binary(pool.subset_by_domain("dom"), root / "domain.fdca")
    for k in range(3):
        write_binary(random_store(30, 16, seed=50 + k, domain="dom"), root / f"client{k}.fdca")
    return root


@pytest.fixture(scope="module")
def runs(workspace, tmp_path_factory):
    """One ``fedca run`` per strategy: (config, run directory)."""
    root = tmp_path_factory.mktemp("runs")
    out = {}
    for strategy in ("feddca", "direct"):
        cfg = {
            "version": 1, "pool_path": str(workspace / "pool.fdca"), "domain_label": "dom",
            "n_clients": 4, "per_client_local": 15, "per_client_aug": 20, "xi": 3,
            "alpha": 0.7, "beta_or_mode": 0.5, "rounds": 3, "clients_per_round": 2,
            "seed": 7, "strategy": strategy, "pseudo_label_clusters": 6,
        }
        (root / f"{strategy}.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", str(root / f"{strategy}.json"),
                     "--out", str(root / strategy)]) == 0
        out[strategy] = (cfg, next((root / strategy).iterdir()))
    return out


def test_ingest_converts_and_validates(tmp_path, capsys):
    store = random_store(12, 8, seed=1, domain="med")
    write_jsonl(store, tmp_path / "x.jsonl")
    rc = main(["ingest", "--in", str(tmp_path / "x.jsonl"),
               "--out", str(tmp_path / "x.fdca"), "--dim", "8"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["records"] == 12
    assert ingest_binary(tmp_path / "x.fdca") == store


def test_ingest_bad_data_exits_2(tmp_path, capsys):
    (tmp_path / "bad.jsonl").write_text('{"id": 1, "domain": "a", "embedding": [1.0]}\n')
    rc = main(["ingest", "--in", str(tmp_path / "bad.jsonl"),
               "--out", str(tmp_path / "bad.fdca"), "--dim", "8"])
    assert rc == 2
    assert "line 1" in capsys.readouterr().err


def _undecodable_domain_fdca(path):
    store = random_store(3, 8, seed=2, domain="QQ")
    write_binary(store, path)
    data = path.read_bytes()
    assert data.count(b"QQ") == 3
    head, _, rest = data.partition(b"QQ")
    path.write_bytes(head + b"QQ" + rest.replace(b"QQ", b"\xc3\x28", 1))


@pytest.mark.parametrize("name, write, argv, named", [
    pytest.param("bad.fdca", _undecodable_domain_fdca, ["cluster", "--k", "2"], "record 1",
                 id="fdca-domain-not-utf8"),
    pytest.param("bad.jsonl",
                 lambda p: p.write_bytes(b'{"id": 1, "domain": "\xff", "embedding": [1.0]}\n'),
                 ["ingest", "--dim", "1"], "line 1", id="jsonl-not-utf8"),
    pytest.param("bad.jsonl",
                 lambda p: p.write_text('{"id": 1, "domain": "a", "embedding": [1.0]}\n'
                                        '{"id": 2, "domain": "a", "embedding": ["1.0", "x"]}\n'),
                 ["ingest", "--dim", "1"], "line 2", id="jsonl-string-element"),
])
def test_undecodable_or_non_numeric_input_exits_2(tmp_path, capsys, name, write, argv, named):
    write(tmp_path / name)
    rc = main([argv[0], "--in", str(tmp_path / name), "--out", str(tmp_path / "out"), *argv[1:]])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("fedca: ") and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--in", "--out", "--config"])
def test_directory_path_exits_2(flag, workspace, tmp_path, capsys):
    paths = {"--in": workspace / "client0.fdca", "--out": tmp_path / "k.fdca", flag: tmp_path}
    if flag == "--config":
        argv = ["run", "--config", str(tmp_path), "--out", str(tmp_path / "runs")]
    else:
        argv = ["cluster", "--in", str(paths["--in"]), "--k", "2", "--out", str(paths["--out"])]
    assert main(argv) == 2
    assert "fedca: [Errno 21]" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["cluster", "--in", "x.fdca"],  # missing required flags
    ["selfcheck", "--corrupt"],  # no such flag
    # oracle has no --seed: greedy draws nothing, so even a valid seed is refused
    ["oracle", "beam", "--centers", "absent.fdca", "--seed", "42", "--out", "o.json"],
])
def test_usage_error_exits_1(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1


@pytest.mark.parametrize("argv, flag", [
    (["--threads", "0", "selfcheck"], "--threads"),
    (["sweep", "--config", "absent.json", "--betas", "x", "--out", "o.csv"], "--betas"),
    (["oracle", "beam", "--centers", "absent.fdca", "--widths", "a", "--out", "o.json"],
     "--widths"),
    (["ingest", "--in", "absent.jsonl", "--out", "o.fdca", "--dim", "-5"], "--dim"),
    (["augment", "--pool", "absent.fdca", "--selection", "absent.json", "--per-client", "3",
      "--alpha", "nan", "--out", "o.json"], "--alpha"),
    (["partition", "--in", "absent.fdca", "--mode", "dirichlet", "--beta", "nan",
      "--clients", "2", "--per-client", "3", "--out", "o.json"], "--beta"),
    (["partition", "--in", "absent.fdca", "--mode", "dirichlet", "--beta", "-inf",
      "--clients", "2", "--per-client", "3", "--out", "o.json"], "--beta"),
    (["sweep", "--config", "absent.json", "--betas", "inf", "--out", "o.csv"], "--betas"),
    (["sweep", "--config", "absent.json", "--betas", "0.1,nan", "--out", "o.csv"], "--betas"),
    (["augment", "--pool", "absent.fdca", "--selection", "absent.json", "--per-client", "3",
      "--alpha", "-2", "--out", "o.json"], "--alpha"),
    (["augment", "--pool", "absent.fdca", "--selection", "absent.json", "--per-client", "3",
      "--alpha", "-inf", "--out", "o.json"], "--alpha"),
    (["metrics", "--domain", "absent.fdca", "--universe", "absent.fdca", "--plan", "p.json",
      "--augsets", "a.json", "--xi", "-1", "--out", "o.json"], "--xi"),
    (["cluster", "--in", "absent.fdca", "--k", "2", "--seed", "-1", "--out", "o.fdca"],
     "--seed"),
    (["partition", "--in", "absent.fdca", "--mode", "iid", "--clients", "2", "--per-client",
      "3", "--seed", "-1", "--out", "o.json"], "--seed"),
    (["augment", "--pool", "absent.fdca", "--strategy", "random", "--clients", "2",
      "--per-client", "3", "--seed", "-1", "--out", "o.json"], "--seed"),
    (["select", "--centers", "absent.fdca", "--seed", "-1", "--out", "o.json"], "--seed"),
    (["metrics", "--domain", "absent.fdca", "--universe", "absent.fdca", "--plan", "p.json",
      "--augsets", "a.json", "--seed", "-1", "--out", "o.json"], "--seed"),
    (["cluster", "--in", "absent.fdca", "--k", "0", "--out", "o.fdca"], "--k"),
    (["partition", "--in", "absent.fdca", "--mode", "iid", "--clients", "0", "--per-client",
      "3", "--out", "o.json"], "--clients"),
    (["partition", "--in", "absent.fdca", "--mode", "iid", "--clients", "2", "--per-client",
      "0", "--out", "o.json"], "--per-client"),
    (["partition", "--in", "absent.fdca", "--mode", "dirichlet", "--clients", "2",
      "--per-client", "3", "--label-clusters", "0", "--out", "o.json"], "--label-clusters"),
    (["select", "--centers", "absent.fdca", "--mode", "beam", "--width", "0", "--out",
      "o.json"], "--width"),
    (["select", "--centers", "absent.fdca", "--mode", "brute", "--budget", "-1", "--out",
      "o.json"], "--budget"),
    (["augment", "--pool", "absent.fdca", "--strategy", "random", "--clients", "0",
      "--per-client", "3", "--out", "o.json"], "--clients"),
    (["augment", "--pool", "absent.fdca", "--strategy", "random", "--clients", "2",
      "--per-client", "0", "--out", "o.json"], "--per-client"),
    (["oracle", "beam", "--centers", "absent.fdca", "--widths", "2,0", "--out", "o.json"],
     "--widths"),
    (["oracle", "brute", "--centers", "absent.fdca", "--budget", "0", "--out", "o.json"],
     "--budget"),
])
def test_bad_flag_values_exit_1_naming_the_flag(argv, flag, tmp_path):
    # The input files do not exist: flag values are parsed before any file is read.
    proc = fedca_process(argv, tmp_path)
    assert proc.returncode == EXIT_USAGE
    assert f"argument {flag}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name, k, seed", [
    ("domain", 6, 42), ("domain", 25, 7), ("client0", 4, 42), ("client1", 30, 3),
])
def test_cluster_prints_and_writes_what_the_literal_loop_gives(workspace, tmp_path, capsys,
                                                               name, k, seed):
    src = workspace / f"{name}.fdca"
    out = str(tmp_path / "centers.fdca")
    assert main(["cluster", "--in", str(src), "--k", str(k), "--seed", str(seed),
                 "--out", out]) == 0
    centers, labels, inertia, _ = literal_kmeans(ingest_binary(src).vectors, k, seed)
    assert capsys.readouterr().out == json.dumps({
        "centers": k,
        "inertia": inertia,
        "cluster_sizes": [int(s) for s in np.bincount(labels, minlength=k)],
        "out": out,
    }) + "\n"
    written = ingest_binary(out)
    assert written.ids.tolist() == list(range(k))
    assert written.vectors.tobytes() == centers.astype(np.float32).tobytes()


def test_cluster_select_augment_metrics_pipeline(workspace, tmp_path, capsys):
    centers_paths = []
    for k in range(3):
        out = tmp_path / f"client{k}.centers.fdca"
        rc = main(["cluster", "--in", str(workspace / f"client{k}.fdca"),
                   "--k", "4", "--seed", "42", "--out", str(out)])
        assert rc == 0
        centers = ingest_binary(out)
        assert len(centers) == 4
        assert set(centers.domains) == {"center"}
        centers_paths.append(str(out))
    capsys.readouterr()

    selection_path = tmp_path / "selection.json"
    rc = main(["select", "--centers", *centers_paths, "--mode", "greedy",
               "--seed", "42", "--out", str(selection_path)])
    assert rc == 0
    selection = json.loads(selection_path.read_text())
    assert len(selection["slots"]) == 3
    assert selection["coverage"] > 0

    plan_path = tmp_path / "plan.json"
    rc = main(["partition", "--in", str(workspace / "pool.fdca"), "--mode", "dirichlet",
               "--beta", "0.1", "--clients", "3", "--per-client", "20",
               "--seed", "42", "--label-clusters", "6", "--out", str(plan_path)])
    assert rc == 0
    plan = json.loads(plan_path.read_text())
    assert len(plan["clients"]) == 3

    aug_path = tmp_path / "augsets.json"
    rc = main(["augment", "--pool", str(workspace / "pool.fdca"),
               "--selection", str(selection_path), "--per-client", "25",
               "--alpha", "0.7", "--strategy", "feddca", "--out", str(aug_path)])
    assert rc == 0
    augsets = json.loads(aug_path.read_text())
    assert len(augsets) == 3
    assert all(len(a["ids"]) + a["shortfall"] == 25 for a in augsets)

    report_path = tmp_path / "report.json"
    rc = main(["metrics", "--domain", str(workspace / "pool.fdca"),
               "--universe", str(workspace / "pool.fdca"),
               "--plan", str(plan_path), "--augsets", str(aug_path),
               "--xi", "4", "--selection", str(selection_path),
               "--out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert 0.0 < report["domain_coverage"] <= 1.0
    assert report["comm_upload_floats"] == 3 * 4 * 16
    assert report["convergence_passes"] >= 1


def test_augment_direct_and_random_strategies(workspace, tmp_path, capsys):
    centers = [str(workspace / "centers_a.fdca")]
    write_binary(random_store(4, 16, seed=77, domain="center"), centers[0])
    rc = main(["augment", "--pool", str(workspace / "pool.fdca"), "--centers", *centers,
               "--per-client", "10", "--strategy", "direct",
               "--out", str(tmp_path / "direct.json")])
    assert rc == 0
    rc = main(["augment", "--pool", str(workspace / "pool.fdca"), "--clients", "2",
               "--per-client", "10", "--strategy", "random", "--seed", "7",
               "--out", str(tmp_path / "random.json")])
    assert rc == 0
    direct = json.loads((tmp_path / "direct.json").read_text())
    assert len(direct[0]["ids"]) == 10
    # strategy preconditions surface as data errors
    rc = main(["augment", "--pool", str(workspace / "pool.fdca"),
               "--per-client", "10", "--strategy", "feddca",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2


@pytest.mark.parametrize("command", ["partition", "run"])
def test_dirichlet_client_count_beyond_the_domain_exits_2(command, workspace, tmp_path):
    n_clients = 2**40
    if command == "partition":
        argv = ["partition", "--in", str(workspace / "pool.fdca"), "--mode", "dirichlet",
                "--clients", str(n_clients), "--per-client", "3", "--label-clusters", "6",
                "--out", "plan.json"]
    else:
        cfg = {
            "version": 1, "pool_path": str(workspace / "pool.fdca"), "domain_label": "dom",
            "n_clients": n_clients, "per_client_local": 3, "per_client_aug": 5, "xi": 2,
            "alpha": 0.7, "beta_or_mode": 0.1, "rounds": 1, "clients_per_round": 1,
            "seed": 1, "strategy": "feddca", "pseudo_label_clusters": 6,
        }
        (tmp_path / "exp.json").write_text(json.dumps(cfg))
        argv = ["run", "--config", "exp.json", "--out", "runs"]
    proc = fedca_process(argv, tmp_path, timeout=30)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"fedca: n_clients {n_clients} exceeds the ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("strategy", ["feddca", "direct"])
def test_cli_partition_and_metrics_reproduce_the_run(runs, workspace, tmp_path, strategy):
    cfg, run_dir = runs[strategy]
    domain = str(workspace / "domain.fdca")
    rc = main(["partition", "--in", domain, "--mode", "dirichlet",
               "--beta", str(cfg["beta_or_mode"]), "--clients", str(cfg["n_clients"]),
               "--per-client", str(cfg["per_client_local"]), "--seed", str(cfg["seed"]),
               "--label-clusters", str(cfg["pseudo_label_clusters"]),
               "--out", str(tmp_path / "plan.json")])
    assert rc == 0
    assert (tmp_path / "plan.json").read_bytes() == (run_dir / "plan.json").read_bytes()

    argv = ["metrics", "--domain", domain, "--universe", str(workspace / "pool.fdca"),
            "--plan", str(run_dir / "plan.json"), "--augsets", str(run_dir / "augsets.json"),
            "--xi", str(cfg["xi"]), "--seed", str(cfg["seed"]),
            "--out", str(tmp_path / "report.json")]
    if strategy == "feddca":
        argv += ["--selection", str(run_dir / "selection.json")]
    assert main(argv) == 0
    run_metrics = json.loads((run_dir / "log.jsonl").read_text().splitlines()[-1])
    assert run_metrics.pop("record") == "metrics"
    assert json.loads((tmp_path / "report.json").read_text()) == run_metrics


def test_cli_walkthrough_writes_a_runs_files_byte_for_byte(workspace, tmp_path):
    pool, domain = str(workspace / "pool.fdca"), str(workspace / "domain.fdca")
    cfg = ExperimentConfig(
        pool_path=pool, domain_label="dom", n_clients=4, per_client_local=15,
        per_client_aug=20, xi=3, alpha=0.7, beta_or_mode=0.5, rounds=3, clients_per_round=2,
        seed=7, pseudo_label_clusters=6,
    )
    run_dirs = {
        s: run_experiment(dataclasses.replace(cfg, strategy=s), out_dir=tmp_path / "runs").run_dir
        for s in STRATEGIES
    }

    def cli(*argv):
        assert main([str(a) for a in argv]) == 0

    # the walkthrough: one store per client of the plan, clustered at the
    # seed a run derives for that client
    cli("partition", "--in", domain, "--mode", "dirichlet", "--beta", cfg.beta_or_mode,
        "--clients", cfg.n_clients, "--per-client", cfg.per_client_local, "--seed", cfg.seed,
        "--label-clusters", cfg.pseudo_label_clusters, "--out", tmp_path / "plan.json")
    plan = json.loads((tmp_path / "plan.json").read_text())
    domain_store = ingest_binary(domain)
    centers = []
    for k, ids in enumerate(plan["clients"]):
        write_binary(domain_store.subset_by_ids(ids), tmp_path / f"client{k}.fdca")
        centers.append(tmp_path / f"centers{k}.fdca")
        cli("cluster", "--in", tmp_path / f"client{k}.fdca", "--k", min(cfg.xi, len(ids)),
            "--seed", derive_seed(cfg.seed, _STREAM_CLIENT_KMEANS, k), "--out", centers[k])
    cli("select", "--centers", *centers, "--out", tmp_path / "selection.json")
    cli("augment", "--pool", pool, "--selection", tmp_path / "selection.json",
        "--per-client", cfg.per_client_aug, "--alpha", cfg.alpha, "--strategy", "feddca",
        "--out", tmp_path / "feddca.json")
    cli("augment", "--pool", pool, "--centers", *centers, "--per-client", cfg.per_client_aug,
        "--strategy", "direct", "--out", tmp_path / "direct.json")
    cli("augment", "--pool", pool, "--clients", cfg.n_clients,
        "--per-client", cfg.per_client_aug, "--strategy", "random", "--seed", cfg.seed,
        "--out", tmp_path / "random.json")

    assert ((tmp_path / "selection.json").read_bytes()
            == (run_dirs["feddca"] / "selection.json").read_bytes())
    for strategy, run_dir in run_dirs.items():
        assert (tmp_path / "plan.json").read_bytes() == (run_dir / "plan.json").read_bytes()
        assert ((tmp_path / f"{strategy}.json").read_bytes()
                == (run_dir / "augsets.json").read_bytes())
        argv = ["metrics", "--domain", domain, "--universe", pool,
                "--plan", tmp_path / "plan.json", "--augsets", tmp_path / f"{strategy}.json",
                "--xi", cfg.xi, "--seed", cfg.seed, "--out", tmp_path / f"{strategy}.report.json"]
        if strategy == "feddca":
            argv += ["--selection", tmp_path / "selection.json"]
        cli(*argv)
        run_metrics = json.loads((run_dir / "log.jsonl").read_text().splitlines()[-1])
        assert run_metrics.pop("record") == "metrics"
        assert json.loads((tmp_path / f"{strategy}.report.json").read_text()) == run_metrics


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


@pytest.mark.parametrize("name,corrupt,field", [
    pytest.param("plan.json", lambda plan: _without(plan, "seed"), "'seed'",
                 id="plan-without-seed"),
    pytest.param("augsets.json", lambda aug: [_without(aug[0], "ids"), *aug[1:]], "'ids'",
                 id="augsets-entry-without-ids"),
    pytest.param("augsets.json", lambda aug: {"entries": aug}, "augsets must be an array",
                 id="augsets-not-a-list"),
    pytest.param("selection.json",
                 lambda sel: {**sel, "slots": [_without(sel["slots"][0], "cluster"),
                                               *sel["slots"][1:]]},
                 "'cluster'", id="selection-slot-without-cluster"),
    pytest.param("selection.json", lambda sel: {**sel, "coverage": 10**400}, "'coverage'",
                 id="selection-coverage-beyond-float"),
    pytest.param("selection.json", lambda sel: {**sel, "trace": [0.5, 10**400]}, "'trace'[1]",
                 id="selection-trace-beyond-float"),
    pytest.param("config.json", lambda cfg: {**cfg, "n_clients": "3"}, "'n_clients'",
                 id="config-n-clients-string"),
    pytest.param("config.json", lambda cfg: {**cfg, "seed": -1}, "config field 'seed'",
                 id="config-negative-seed"),
    *[pytest.param("selection.json", lambda sel, f=f: {**sel, f: -3}, f"selection field {f!r}",
                   id=f"selection-negative-{f.replace('_', '-')}")
      for f in ("passes", "swaps", "reference_size")],
])
def test_malformed_json_inputs_exit_2_with_named_error(
    runs, workspace, tmp_path, capsys, name, corrupt, field
):
    cfg, run_dir = runs["feddca"]
    source = {"config.json": cfg}
    for artifact in ("plan.json", "augsets.json", "selection.json"):
        source[artifact] = json.loads((run_dir / artifact).read_text())
        (tmp_path / artifact).write_text(json.dumps(source[artifact]))
    (tmp_path / name).write_text(json.dumps(corrupt(source[name])))
    if name == "config.json":
        argv = ["run", "--config", str(tmp_path / name), "--out", str(tmp_path / "runs")]
    else:
        argv = ["metrics", "--domain", str(workspace / "pool.fdca"),
                "--universe", str(workspace / "pool.fdca"),
                "--plan", str(tmp_path / "plan.json"),
                "--augsets", str(tmp_path / "augsets.json"),
                "--selection", str(tmp_path / "selection.json"),
                "--out", str(tmp_path / "report.json")]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / name) in err and field in err
    assert "Traceback" not in err


_NESTED = "[" * 200_000 + "]" * 200_000
_LONG_INTEGER = "1" + "0" * 4_300  # beyond Python's default limit of 4,300 digits


@pytest.mark.parametrize("reader, text", [
    pytest.param("plan", _NESTED, id="plan-nested"),
    pytest.param("plan", f'{{"seed": {_LONG_INTEGER}}}', id="plan-long-integer"),
    pytest.param("augsets", _NESTED, id="augsets-nested"),
    pytest.param("selection", _NESTED, id="selection-nested"),
    pytest.param("config", _NESTED, id="config-nested"),
    pytest.param("jsonl", '{"id": 1, "domain": "a", "embedding": [1.0]}\n' + _NESTED,
                 id="jsonl-nested"),
    pytest.param("jsonl", f'{{"id": {_LONG_INTEGER}, "domain": "a", "embedding": [1.0]}}',
                 id="jsonl-long-integer"),
])
def test_crafted_json_exits_2_naming_the_input(workspace, tmp_path, capsys, reader, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    pool = str(workspace / "pool.fdca")
    argv, named = {
        "plan": (["metrics", "--domain", pool, "--universe", pool, "--plan", str(bad),
                  "--augsets", str(bad), "--out", str(tmp_path / "o.json")], str(bad)),
        "augsets": (["metrics", "--domain", pool, "--universe", pool,
                     "--plan", str(tmp_path / "plan.json"), "--augsets", str(bad),
                     "--out", str(tmp_path / "o.json")], str(bad)),
        "selection": (["augment", "--pool", pool, "--selection", str(bad), "--per-client", "3",
                       "--out", str(tmp_path / "o.json")], str(bad)),
        "config": (["run", "--config", str(bad), "--out", str(tmp_path / "runs")], str(bad)),
        "jsonl": (["ingest", "--in", str(bad), "--out", str(tmp_path / "o.fdca"), "--dim", "1"],
                  "line " + str(text.count("\n") + 1)),
    }[reader]
    if reader == "augsets":
        assert main(["partition", "--in", pool, "--mode", "iid", "--clients", "2",
                     "--per-client", "5", "--out", str(tmp_path / "plan.json")]) == 0
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("fedca: ") and named in err


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN", "1e39", "1" + "0" * 400],
                         ids=["inf", "-inf", "nan", "beyond-float32", "beyond-float64"])
def test_non_finite_slot_vector_exits_2_naming_the_slot(runs, workspace, tmp_path, capsys,
                                                        value):
    # Python's json reads Infinity and NaN; 1e39 is beyond float32 and 10**400
    # beyond float64.
    _, run_dir = runs["feddca"]
    selection = json.loads((run_dir / "selection.json").read_text())
    selection["slots"][1]["vector"][0] = "VALUE"
    (tmp_path / "selection.json").write_text(json.dumps(selection).replace('"VALUE"', value))
    capsys.readouterr()
    assert main(["augment", "--pool", str(workspace / "pool.fdca"), "--strategy", "feddca",
                 "--selection", str(tmp_path / "selection.json"), "--per-client", "3",
                 "--out", str(tmp_path / "aug.json")]) == 2
    err = capsys.readouterr().err
    assert "selection slot 1 field 'vector' holds a value that is not a finite float32" in err
    assert not (tmp_path / "aug.json").exists()


def test_oracle_brute_budget_refusal_exits_3(tmp_path, capsys):
    paths = []
    for k in range(10):
        p = tmp_path / f"c{k}.fdca"
        write_binary(random_store(10, 4, seed=k, domain="center"), p)
        paths.append(str(p))
    rc = main(["oracle", "brute", "--centers", *paths, "--out", str(tmp_path / "o.json")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "17310309456440" in err  # C(100, 10)


def test_beam_budget_refusal_exits_3_before_allocating(tmp_path, capsys, monkeypatch):
    paths = []
    for k in range(10):
        p = tmp_path / f"c{k}.fdca"
        write_binary(random_store(10, 4, seed=k, domain="center"), p)
        paths.append(str(p))

    def unreachable(*args):
        raise AssertionError("the beam was allocated")

    monkeypatch.setattr(selection, "_beam_level", unreachable)
    monkeypatch.setattr(selection, "greedy_select", unreachable)
    out = str(tmp_path / "o.json")
    # the README's 10 x 10 instance: width 10**6 makes 577,180,000 expansions;
    # the report checks every width before greedy or the width-2 beam runs
    for argv, count in ((["oracle", "beam", "--widths", "1000000"], 577180000),
                        (["oracle", "beam", "--widths", "2,1000000"], 577180000),
                        (["select", "--mode", "beam", "--width", "1000000"], 577180000),
                        (["select", "--mode", "beam", "--width", "64", "--budget", "50000"],
                         54820)):
        assert main([*argv, "--centers", *paths, "--out", out]) == 3
        assert f"beam refused: {count} expansions" in capsys.readouterr().err


def test_oracle_beam_with_ratio(workspace, tmp_path, capsys):
    paths = []
    for k in range(2):
        p = tmp_path / f"c{k}.fdca"
        write_binary(random_store(2, 8, seed=k, domain="center"), p)
        paths.append(str(p))
    sel = tmp_path / "greedy.json"
    assert main(["select", "--centers", *paths, "--out", str(sel)]) == 0
    rc = main(["oracle", "beam", "--centers", *paths, "--widths", "1,2,8",
               "--greedy", str(sel), "--out", str(tmp_path / "beam.json")])
    assert rc == 0
    report = json.loads((tmp_path / "beam.json").read_text())
    assert set(report["beam_coverage"]) == {"1", "2", "8"}
    assert report["ratio_percent"] > 60.0


def test_run_command_replays_byte_identically(workspace, tmp_path, capsys):
    cfg = {
        "version": 1, "pool_path": str(workspace / "pool.fdca"), "domain_label": "dom",
        "n_clients": 4, "per_client_local": 15, "per_client_aug": 20, "xi": 3,
        "alpha": 0.7, "beta_or_mode": 0.1, "rounds": 5, "clients_per_round": 2,
        "seed": 42, "strategy": "feddca", "pseudo_label_clusters": 6,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r1")]) == 0
    out1 = json.loads(capsys.readouterr().out)
    assert out1["messages"] == 4 + 1 + 4 + 5
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "r2")]) == 0
    out2 = json.loads(capsys.readouterr().out)
    log1 = (tmp_path / "r1" / out1["run_dir"].split("/")[-1] / "log.jsonl").read_bytes()
    log2 = (tmp_path / "r2" / out2["run_dir"].split("/")[-1] / "log.jsonl").read_bytes()
    assert log1 == log2


def test_compare_and_sweep_emit_csv(workspace, tmp_path, capsys):
    cfg = {
        "version": 1, "pool_path": str(workspace / "pool.fdca"), "domain_label": "dom",
        "n_clients": 3, "per_client_local": 12, "per_client_aug": 15, "xi": 3,
        "alpha": 0.7, "beta_or_mode": 0.1, "rounds": 2, "clients_per_round": 1,
        "seed": 1, "strategy": "feddca", "pseudo_label_clusters": 6,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["compare", "--config", str(cfg_path),
                 "--strategies", "feddca,random", "--out", str(tmp_path / "cmp.csv")]) == 0
    lines = (tmp_path / "cmp.csv").read_text().strip().splitlines()
    assert len(lines) == 3 and lines[0].startswith("strategy,")
    assert main(["sweep", "--config", str(cfg_path), "--betas", "0.1,1",
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 7  # header + 2 betas x 3 strategies


@pytest.mark.parametrize("alpha, held", [(-0.65, [0, 1, 0]), (-0.9, [0, 0, 0])])
def test_augmented_sets_left_empty_by_the_threshold_still_run(tmp_path, capsys, alpha, held):
    # CI's planted pool and config; at these alphas the feddca threshold keeps
    # at most one augmented record, so ICACS has fewer than two clients to
    # compare and, with no record at all, RUAI has nothing to count.
    pool, _ = planted_cluster_pool(n_clusters=6, per_cluster=30, out_records=120, dim=16,
                                   seed=3, noise=0.18)
    write_binary(pool, tmp_path / "pool.fdca")
    cfg = {
        "version": 1, "pool_path": str(tmp_path / "pool.fdca"), "domain_label": "dom",
        "n_clients": 3, "per_client_local": 12, "per_client_aug": 15, "xi": 3,
        "alpha": alpha, "beta_or_mode": 0.1, "rounds": 2, "clients_per_round": 1,
        "seed": 1, "strategy": "feddca", "pseudo_label_clusters": 6,
    }
    (tmp_path / "exp.json").write_text(json.dumps(cfg))
    assert main(["run", "--config", str(tmp_path / "exp.json"),
                 "--out", str(tmp_path / "runs")]) == 0
    run_dir = Path(json.loads(capsys.readouterr().out)["run_dir"])
    augsets = json.loads((run_dir / "augsets.json").read_text())
    assert [len(entry["ids"]) for entry in augsets] == held
    metrics = json.loads((run_dir / "log.jsonl").read_text().splitlines()[-1])
    assert metrics["record"] == "metrics"
    assert metrics["icacs"] is None
    assert metrics["ruai"] == (1.0 if any(held) else None)
    assert main(["compare", "--config", str(tmp_path / "exp.json"),
                 "--strategies", "feddca,direct,random", "--out", str(tmp_path / "cmp.csv")]) == 0
    lines = (tmp_path / "cmp.csv").read_text().strip().splitlines()
    assert len(lines) == 4 and lines[1].startswith("feddca,")


@pytest.mark.parametrize("field, value", [
    ("alpha", float("nan")), ("beta_or_mode", float("nan")),
    ("beta_or_mode", float("inf")), ("beta_or_mode", 10**400),
])
def test_non_finite_config_numbers_exit_2_naming_the_field(workspace, tmp_path, capsys,
                                                           field, value):
    cfg = {
        "version": 1, "pool_path": str(workspace / "pool.fdca"), "domain_label": "dom",
        "n_clients": 3, "per_client_local": 12, "per_client_aug": 15, "xi": 3,
        "alpha": 0.7, "beta_or_mode": 0.1, "rounds": 2, "clients_per_round": 1,
        "seed": 1, "strategy": "feddca", "pseudo_label_clusters": 6, field: value,
    }
    (tmp_path / "exp.json").write_text(json.dumps(cfg))  # NaN/Infinity literals
    for argv in (["run", "--out", str(tmp_path / "runs")],
                 ["compare", "--out", str(tmp_path / "cmp.csv")],
                 ["sweep", "--out", str(tmp_path / "sweep.csv")]):
        assert main([*argv, "--config", str(tmp_path / "exp.json")]) == 2
        err = capsys.readouterr().err
        assert f"config field {field!r}" in err and "Traceback" not in err
    assert not (tmp_path / "runs").exists()


def test_alpha_below_minus_one_exits_2_naming_the_field(workspace, tmp_path, capsys):
    # Such an alpha would filter out every pool record.
    cfg = {
        "version": 1, "pool_path": str(workspace / "pool.fdca"), "domain_label": "dom",
        "n_clients": 3, "per_client_local": 12, "per_client_aug": 15, "xi": 3,
        "alpha": -2, "beta_or_mode": 0.1, "rounds": 2, "clients_per_round": 1,
        "seed": 1, "strategy": "feddca", "pseudo_label_clusters": 6,
    }
    (tmp_path / "exp.json").write_text(json.dumps(cfg))
    for argv in (["run", "--out", str(tmp_path / "runs")],
                 ["compare", "--out", str(tmp_path / "cmp.csv")],
                 ["sweep", "--out", str(tmp_path / "sweep.csv")]):
        assert main([*argv, "--config", str(tmp_path / "exp.json")]) == 2
        err = capsys.readouterr().err
        assert "config field 'alpha' must be >= -1" in err and "Traceback" not in err
    assert not (tmp_path / "runs").exists()


def test_infinite_alpha_disables_filtering(workspace, tmp_path, capsys):
    sel = tmp_path / "sel.json"
    centers = [str(workspace / f"client{k}.fdca") for k in range(3)]
    assert main(["select", "--centers", *centers, "--out", str(sel)]) == 0
    hits = {}
    for alpha in ("inf", "1.5"):
        out = tmp_path / f"aug_{alpha}.json"
        assert main(["augment", "--pool", str(workspace / "pool.fdca"), "--selection", str(sel),
                     "--per-client", "7", "--alpha", alpha, "--out", str(out)]) == 0
        hits[alpha] = json.loads(out.read_text())
    capsys.readouterr()
    assert hits["inf"] == hits["1.5"]
    assert all(len(a["ids"]) == 7 for a in hits["inf"])


def test_selfcheck_passes_and_corrupt_fails(capsys, monkeypatch):
    assert main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6 and "FAIL" not in out
    gain = geometry.marginal_gain

    def biased(reference, selected, *args):  # larger selected sets gain more
        return gain(reference, selected, *args) + 1e-3 * len(selected)

    monkeypatch.setattr(selfcheck.geometry, "marginal_gain", biased)
    assert main(["selfcheck"]) == 2
    out = capsys.readouterr().out
    assert "FAIL marginal_gain_submodular_affine" in out


def test_threads_flag_gives_identical_results(workspace, tmp_path, capsys):
    paths = []
    for k in range(2):
        p = tmp_path / f"c{k}.fdca"
        write_binary(random_store(3, 16, seed=60 + k, domain="center"), p)
        paths.append(str(p))
    sel = tmp_path / "s.json"
    assert main(["select", "--centers", *paths, "--out", str(sel)]) == 0
    for threads, out_name in (("1", "a.json"), ("4", "b.json")):
        rc = main(["--threads", threads, "augment", "--pool", str(workspace / "pool.fdca"),
                   "--selection", str(sel), "--per-client", "12",
                   "--strategy", "feddca", "--out", str(tmp_path / out_name)])
        assert rc == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_help_enumerates_subcommands_and_flags():
    parser = build_parser()
    help_text = parser.format_help()
    for name in ("ingest", "cluster", "partition", "select", "augment",
                 "metrics", "run", "sweep", "compare", "oracle", "selfcheck"):
        assert name in help_text
    assert "--threads" in help_text
    # every flag the interface documents appears in some subcommand's help
    sub_help = []
    for action in parser._subparsers._group_actions[0].choices.values():
        sub_help.append(action.format_help())
    combined = "\n".join(sub_help)
    for flag in ("--in", "--out", "--dim", "--k", "--seed", "--mode", "--beta",
                 "--clients", "--per-client", "--centers", "--width", "--reference",
                 "--pool", "--selection", "--alpha", "--strategy", "--domain",
                 "--universe", "--plan", "--augsets", "--config", "--betas",
                 "--strategies", "--budget", "--widths", "--per-client-slots"):
        assert flag in combined, flag
