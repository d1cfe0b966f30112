"""Input generator for the fedca benchmark.

Runs as its own process, before the measured one, so that the workload's
set-up time and peak memory count only the program. Every file it writes is
a pure function of ``--workload``, ``--seed`` and ``--scale``.

    python3 perfbench/gen.py --workload paper --seed 1 --out DIR [--scale tiny]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from common import add_src_path

ALPHA = 0.7

# Sizes per workload and scale. "full" is what the benchmark measures; "tiny"
# only drives the smoke test through every code path in seconds.
SIZES = {
    "paper": {
        # noise 0.03 at dim 1024 keeps planted records just around the alpha
        # threshold, so filtering removes some but not all hits; 500 records
        # per cluster keeps the clients from consuming the whole domain.
        "full": dict(n_clusters=10, per_cluster=500, out_records=55_000, dim=1024,
                     noise=0.03, clients=10, local=100, aug=1000, xi=10, labels=100,
                     rounds=30),
        "tiny": dict(n_clusters=4, per_cluster=60, out_records=400, dim=32,
                     noise=0.1, clients=3, local=20, aug=20, xi=3, labels=6, rounds=3),
    },
    "oracle": {
        # greedy's pass count depends on the instance (two or three sweeps),
        # so each run draws several candidate sets and times greedy on all;
        # width 1024 would double the iteration and leave two per run
        "full": dict(n_clusters=10, per_cluster=1000, dim=1024, noise=0.03,
                     clients=10, per_client=10, candidate_sets=3, brute_clients=6,
                     brute_per_client=4, widths=[256, 512]),
        "tiny": dict(n_clusters=4, per_cluster=50, dim=32, noise=0.1,
                     clients=4, per_client=4, candidate_sets=2, brute_clients=3,
                     brute_per_client=3, widths=[4, 8]),
    },
    "desk-cli": {
        # acceptance criterion 10's pool
        "full": dict(n_clusters=10, per_cluster=600, out_records=14_000, dim=64,
                     noise=0.2, clients=10, local=100, aug=1000, xi=10, labels=100,
                     rounds=30),
        "tiny": dict(n_clusters=4, per_cluster=60, out_records=300, dim=16,
                     noise=0.2, clients=3, local=20, aug=20, xi=3, labels=6, rounds=3),
    },
}


def experiment_config(size: dict, pool_path: str) -> dict:
    """The README's exp.json with the workload's sizes."""
    return {
        "version": 1, "pool_path": pool_path, "domain_label": "dom",
        "n_clients": size["clients"], "per_client_local": size["local"],
        "per_client_aug": size["aug"], "xi": size["xi"], "alpha": ALPHA,
        "beta_or_mode": 0.1, "rounds": size["rounds"], "clients_per_round": 2,
        "seed": 42, "strategy": "feddca", "pseudo_label_clusters": size["labels"],
    }


def _planted(size: dict, seed: int, out_records: int):
    from fedca.synthetic import planted_cluster_pool

    return planted_cluster_pool(
        n_clusters=size["n_clusters"], per_cluster=size["per_cluster"],
        out_records=out_records, dim=size["dim"], seed=seed,
        noise=size["noise"], direction_correlation=0.5,
    )


def gen_paper(size: dict, seed: int, out: Path) -> dict:
    from fedca.store import write_binary

    pool, _ = _planted(size, seed, size["out_records"])
    write_binary(pool, out / "pool.fdca")
    return {"config": experiment_config(size, "pool.fdca")}


def gen_oracle(size: dict, seed: int, out: Path) -> dict:
    """A planted in-domain reference plus Dirichlet(0.5)-skewed candidate sets.

    In each candidate set, each client draws its candidates from clusters
    chosen by its own Dirichlet(0.5) proportions. Records are taken without
    replacement, so candidate ids are unique and keep their reference ids;
    labels read ``set<s>.client<k>``.
    """
    from fedca.store import EmbeddingStore, write_binary

    reference, _ = _planted(size, seed, 0)
    write_binary(reference, out / "reference.fdca")
    rng = np.random.default_rng([seed, 1])
    per = size["per_cluster"]
    remaining = [list(rng.permutation(per) + c * per) for c in range(size["n_clusters"])]
    ids, domains = [], []
    for s in range(size["candidate_sets"]):
        for k in range(size["clients"]):
            probs = rng.dirichlet(np.full(size["n_clusters"], 0.5))
            for c in rng.choice(size["n_clusters"], size=size["per_client"], p=probs):
                if not remaining[c]:
                    c = max(range(len(remaining)), key=lambda j: len(remaining[j]))
                ids.append(int(remaining[c].pop()))
                domains.append(f"set{s}.client{k}")
    vectors = reference.vectors[ids]
    write_binary(EmbeddingStore(reference.dim, ids, domains, vectors), out / "candidates.fdca")
    return {}


def gen_desk(size: dict, seed: int, out: Path) -> dict:
    from fedca.store import write_jsonl

    pool, _ = _planted(size, seed, size["out_records"])
    write_jsonl(pool, out / "pool.jsonl")
    write_jsonl(pool.subset_by_domain("dom"), out / "domain.jsonl")
    return {"config": experiment_config(size, "pool.fdca")}


GENERATORS = {"paper": gen_paper, "oracle": gen_oracle, "desk-cli": gen_desk}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    add_src_path()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    size = SIZES[args.workload][args.scale]
    manifest = GENERATORS[args.workload](size, args.seed, out)
    manifest.update(workload=args.workload, seed=args.seed, scale=args.scale,
                    alpha=ALPHA, size=size)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
