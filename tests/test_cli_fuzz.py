"""Seeded byte mutations of every JSON input the CLI reads.

Each reader gets 30 mutations of a valid file: a truncation, one to
three flipped bytes, a deleted span or a span of the file spliced in
elsewhere. Every call goes through ``cli.main`` and must end in one of its
exit codes, with no exception escaping and no traceback printed, and the
calls of one reader allocate a bounded amount of memory.
"""

import json
import tracemalloc

import numpy as np
import pytest

from fedca.cli import EXIT_BUDGET, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from fedca.store import write_binary, write_jsonl
from fedca.synthetic import planted_cluster_pool, random_store

CASES_PER_READER = 30
READERS = ["plan", "augsets", "augment-selection", "metrics-selection", "oracle-greedy",
           "run-config", "ingest"]


def _mutate(data: bytes, rng: np.random.Generator) -> bytes:
    """``data`` truncated, with 1 to 3 bytes flipped, with a span deleted,
    or with a span of it spliced in elsewhere."""
    buf = bytearray(data)
    n = len(buf)
    kind = rng.integers(4)
    if kind == 0:
        return bytes(buf[: rng.integers(n)])
    if kind == 1:
        for at in rng.integers(n, size=rng.integers(1, 4)):
            buf[at] ^= int(rng.integers(1, 256))
        return bytes(buf)
    lo = int(rng.integers(n))
    hi = int(rng.integers(lo, min(n, lo + 64) + 1))
    if kind == 2:
        return bytes(buf[:lo] + buf[hi:])
    at = int(rng.integers(n + 1))
    return bytes(buf[:at] + buf[lo:hi] + buf[at:])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A tiny pool with every JSON file the CLI reads, as the CLI writes
    them, and the arguments of the calls that read each."""
    root = tmp_path_factory.mktemp("fuzz")
    pool, _ = planted_cluster_pool(n_clusters=3, per_cluster=12, out_records=24, dim=8,
                                   seed=3, noise=0.2)
    write_binary(pool, root / "pool.fdca")
    write_jsonl(random_store(12, 8, seed=5), root / "store.jsonl")
    centers = []
    for k in range(2):
        write_binary(random_store(6, 8, seed=60 + k, domain="dom"), root / f"client{k}.fdca")
        centers.append(str(root / f"centers{k}.fdca"))
        assert main(["cluster", "--in", str(root / f"client{k}.fdca"), "--k", "2",
                     "--out", centers[-1]]) == EXIT_OK
    config = {
        "version": 1, "pool_path": str(root / "pool.fdca"), "domain_label": "dom",
        "n_clients": 2, "per_client_local": 6, "per_client_aug": 4, "xi": 2, "alpha": 0.7,
        "beta_or_mode": 0.5, "rounds": 1, "clients_per_round": 1, "seed": 1,
        "strategy": "feddca", "pseudo_label_clusters": 3,
    }
    (root / "config.json").write_text(json.dumps(config))
    for argv in (
        ["select", "--centers", *centers, "--out", str(root / "selection.json")],
        ["partition", "--in", str(root / "pool.fdca"), "--mode", "iid", "--clients", "2",
         "--per-client", "6", "--out", str(root / "plan.json")],
        ["augment", "--pool", str(root / "pool.fdca"), "--selection",
         str(root / "selection.json"), "--per-client", "4", "--out", str(root / "augsets.json")],
    ):
        assert main(argv) == EXIT_OK
    pool_path, out = str(root / "pool.fdca"), str(root / "out")

    def metrics(plan="plan.json", augsets="augsets.json", *extra):
        return ["metrics", "--domain", pool_path, "--universe", pool_path, "--plan",
                str(root / plan), "--augsets", str(root / augsets), "--xi", "2", *extra,
                "--out", out]

    return root, {
        "plan": ("plan.json", metrics("mutated")),
        "augsets": ("augsets.json", metrics("plan.json", "mutated")),
        "augment-selection": ("selection.json", [
            "augment", "--pool", pool_path, "--selection", str(root / "mutated"),
            "--per-client", "4", "--out", out]),
        "metrics-selection": ("selection.json", metrics(
            "plan.json", "augsets.json", "--selection", str(root / "mutated"))),
        "oracle-greedy": ("selection.json", [
            "oracle", "brute", "--centers", *centers, "--greedy", str(root / "mutated"),
            "--out", out]),
        "run-config": ("config.json", ["run", "--config", str(root / "mutated"),
                                       "--out", str(root / "runs")]),
        "ingest": ("store.jsonl", ["ingest", "--in", str(root / "mutated"), "--out",
                                   str(root / "ingested.fdca"), "--dim", "8"]),
    }


@pytest.mark.parametrize("reader", READERS)
def test_mutated_json_input_ends_in_an_exit_code(reader, files, capsys):
    root, calls = files
    source, argv = calls[reader]
    data = (root / source).read_bytes()
    assert main([a.replace("mutated", source) for a in argv]) == EXIT_OK
    rng = np.random.default_rng([2901, READERS.index(reader)])
    codes = []
    tracemalloc.start()
    try:
        for _ in range(CASES_PER_READER):
            (root / "mutated").write_bytes(_mutate(data, rng))
            codes.append(main(argv))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "Traceback" not in capsys.readouterr().err
    assert set(codes) <= {EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_BUDGET}
    # inputs of a few KB: about 5 MB traced, none of it sized by a mutated field
    assert peak < 16 << 20
    assert EXIT_DATA in codes  # the mutations reach the reader's checks
