"""Command-line interface: every pipeline stage as a subcommand.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 refused
budget. Diagnostics go to stderr; results go to files or stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .augment import (
    augments_to_json,
    augset_ids_from_json,
    direct_retrieval_augment,
    feddca_augment,
)
from .clustering import CandidateCenters, _inertia, _lloyd
from .errors import BudgetExceededError, FedcaError, ValidationError, check_number
from .fedsim import (
    ExperimentConfig,
    assemble_metrics,
    compare_strategies,
    heterogeneity_sweep,
    partition_domain,
    random_augment,
    run_experiment,
    write_json,
    write_rows_csv,
)
from .partition import PartitionPlan
from .selection import (
    DEFAULT_BRUTE_BUDGET,
    CenterSelection,
    SelectionProblem,
    approximation_report,
    beam_select,
    brute_force_select,
    greedy_select,
)
from .selfcheck import run_selfcheck
from .store import EmbeddingStore, ingest_binary, ingest_jsonl, write_binary

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BUDGET = 3

_INERT_SEED = ("changes no output: greedy starts from each client's first candidate "
               "and draws nothing")
_BUDGET = "brute-force subsets, or beam expansions, beyond which a search exits 3 unrun"


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _integer(minimum: int = 1):
    """argparse type for an integer of at least ``minimum``."""

    def integer(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return integer


def _number(finite: bool = True, minimum: float | None = None):
    """argparse type for a float that ``errors.check_number`` accepts with
    these arguments."""

    def number(text: str) -> float:
        try:
            return check_number(text, "value", finite, minimum)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
        except ValidationError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return number


def _comma_list(parse):
    """argparse type for a comma-separated list; ``parse`` is the argparse
    type of each item, so a bad item's message is its own."""

    def convert(text: str) -> list:
        return [parse(item) for item in text.split(",") if item]

    return convert


def _load_centers(paths: list[str]) -> list[CandidateCenters]:
    out = []
    for k, path in enumerate(paths):
        store = ingest_binary(path)
        if len(store) == 0:
            raise ValidationError(f"centers file {path} is empty")
        out.append(CandidateCenters(client_id=k, centers=store.vectors))
    return out


def _build_problem(args) -> SelectionProblem:
    candidates = _load_centers(args.centers)
    reference = None
    if args.reference != "call":
        reference = ingest_binary(args.reference).vectors
    return SelectionProblem(candidates_per_client=candidates, reference=reference)


def _read_json(path: str, parse):
    """``parse`` applied to the JSON file at ``path``; errors name the file,
    decoding errors included: malformed JSON, bytes that are not UTF-8,
    integers beyond Python's digit limit and nesting beyond its recursion
    limit."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValidationError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    try:
        return parse(obj)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _load_selection(path: str) -> CenterSelection:
    return _read_json(path, CenterSelection.from_json_dict)


# ----------------------------------------------------------------- handlers


def _cmd_ingest(args) -> int:
    store = ingest_jsonl(args.infile, args.dim)
    write_binary(store, args.out)
    print(json.dumps({"records": len(store), "dim": store.dim, "out": args.out}))
    return EXIT_OK


def _cmd_cluster(args) -> int:
    store = ingest_binary(args.infile)
    # the only reader of inertia: it runs kmeans's loop itself to sum over
    # the float64 centers that kmeans rounds to float32
    centers, labels = _lloyd(store.vectors, args.k, args.seed)
    k = args.k
    write_binary(
        EmbeddingStore(store.dim, list(range(k)), ["center"] * k, centers.astype(np.float32)),
        args.out,
    )
    print(json.dumps({
        "centers": k,
        "inertia": _inertia(store.vectors, centers, labels),
        "cluster_sizes": np.bincount(labels, minlength=k).tolist(),
        "out": args.out,
    }))
    return EXIT_OK


def _cmd_partition(args) -> int:
    store = ingest_binary(args.infile)
    beta_or_mode = args.beta if args.mode == "dirichlet" else args.mode
    plan = partition_domain(
        store, beta_or_mode, args.clients, args.per_client, args.label_clusters, args.seed
    )
    write_json(plan.to_json_dict(), args.out)
    print(json.dumps({
        "clients": len(plan.assignments), "shortfalls": plan.shortfalls, "out": args.out,
    }))
    return EXIT_OK


def _cmd_select(args) -> int:
    problem = _build_problem(args)
    if args.mode == "greedy":
        selection = greedy_select(
            problem,
            args.seed,
            per_client_slots=args.per_client_slots,
            literal_termination=args.literal_termination,
        )
    elif args.mode == "beam":
        selection = beam_select(problem, args.width, args.budget)
    else:
        selection = brute_force_select(problem, args.budget)
    write_json(selection.to_json_dict(), args.out)
    print(json.dumps({
        "coverage": selection.coverage.value,
        "passes": selection.passes,
        "swaps": selection.swaps,
        "out": args.out,
    }))
    return EXIT_OK


def _cmd_augment(args) -> int:
    pool = ingest_binary(args.pool)
    if args.strategy == "feddca":
        if not args.selection:
            raise ValidationError("--selection is required for the feddca strategy")
        selection = _load_selection(args.selection)
        results = feddca_augment(pool, selection, args.per_client, args.alpha)
    elif args.strategy == "direct":
        if not args.centers:
            raise ValidationError("--centers is required for the direct strategy")
        results = direct_retrieval_augment(pool, _load_centers(args.centers), args.per_client)
    else:
        if args.clients is None:
            raise ValidationError("--clients is required for the random strategy")
        results = random_augment(pool, args.clients, args.per_client, args.seed)
    write_json(augments_to_json(results), args.out)
    print(json.dumps({
        "clients": len(results),
        "total_hits": sum(len(r.hits) for r in results),
        "out": args.out,
    }))
    return EXIT_OK


def _cmd_metrics(args) -> int:
    domain = ingest_binary(args.domain)
    universe = ingest_binary(args.universe)
    plan = _read_json(args.plan, PartitionPlan.from_json_dict)
    aug_ids = _read_json(args.augsets, augset_ids_from_json)
    passes = _load_selection(args.selection).passes if args.selection else 0
    report = assemble_metrics(
        domain, universe, plan.assignments, aug_ids, args.xi, args.seed, passes
    )
    write_json(report.to_json_dict(), args.out)
    print(json.dumps({"domain_coverage": report.domain_coverage.value, "out": args.out}))
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = _read_json(args.config, ExperimentConfig.from_json_dict)
    log = run_experiment(cfg, out_dir=args.out)
    print(json.dumps({
        "run_dir": str(log.run_dir),
        "messages": len(log.messages),
        "domain_coverage": log.metrics.domain_coverage.value,
    }))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _read_json(args.config, ExperimentConfig.from_json_dict)
    rows = heterogeneity_sweep(cfg, args.betas)
    write_rows_csv(rows, args.out)
    print(json.dumps({"rows": len(rows), "out": args.out}))
    return EXIT_OK


def _cmd_compare(args) -> int:
    cfg = _read_json(args.config, ExperimentConfig.from_json_dict)
    rows = compare_strategies(cfg, [s for s in args.strategies.split(",") if s])
    write_rows_csv(rows, args.out)
    print(json.dumps({"rows": len(rows), "out": args.out}))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    problem = _build_problem(args)
    greedy_cov = None
    if args.greedy:
        greedy_cov = _load_selection(args.greedy).coverage.value
    if args.oracle_mode == "brute":
        selection = brute_force_select(problem, args.budget)
        payload = selection.to_json_dict()
        payload["method"] = "brute"
        if greedy_cov is not None and selection.coverage.value > 0:
            payload["ratio_percent"] = 100.0 * greedy_cov / selection.coverage.value
    else:
        report = approximation_report(problem, args.widths, brute_budget=args.budget)
        payload = report.to_json_dict()
        payload["method"] = "beam"
        if greedy_cov is not None and report.best_beam_coverage > 0:
            payload["ratio_percent"] = 100.0 * greedy_cov / report.best_beam_coverage
    write_json(payload, args.out)
    print(json.dumps({"method": payload["method"], "out": args.out}))
    return EXIT_OK


def _cmd_selfcheck(args) -> int:
    start = time.perf_counter()
    results = run_selfcheck()
    elapsed = time.perf_counter() - start
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        detail = f" ({res.detail})" if res.detail else ""
        print(f"{status} {res.name}{detail}")
        failed += 0 if res.passed else 1
    if elapsed > 60:
        print(f"warning: selfcheck took {elapsed:.1f}s (> 60s budget)", file=sys.stderr)
    return EXIT_DATA if failed else EXIT_OK


# ------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fedca", description=__doc__)
    parser.add_argument(
        "--threads", type=_integer(), default=None,
        help="accepted for compatibility; every subcommand runs the same work "
             "at any value",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and convert a JSONL embedding file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dim", type=_integer(), default=1024)
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("cluster", help="seeded k-means over a store")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=_integer(), required=True)
    p.add_argument("--seed", type=_integer(0), default=42, help="the k-means seed itself")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_cluster)

    p = sub.add_parser("partition", help="split a store into per-client local sets")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mode", choices=["dirichlet", "iid", "distinct"], required=True)
    p.add_argument("--beta", type=_number(), default=0.1)
    p.add_argument("--clients", type=_integer(), required=True)
    p.add_argument("--per-client", dest="per_client", type=_integer(), required=True)
    p.add_argument("--seed", type=_integer(0), default=42,
                   help="run seed; the pseudo-label and partition streams are derived "
                        "from it as in 'fedca run'")
    p.add_argument("--label-clusters", dest="label_clusters", type=_integer(), default=100,
                   help="pseudo-label cluster count for dirichlet/distinct modes")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_partition)

    p = sub.add_parser("select", help="server-side center selection")
    p.add_argument("--centers", nargs="+", required=True,
                   help="one centers store per client, in client order")
    p.add_argument("--mode", choices=["greedy", "beam", "brute"], default="greedy")
    p.add_argument("--width", type=_integer(), default=64, help="beam width")
    p.add_argument("--reference", default="call",
                   help="'call' scores against the pooled candidates; otherwise a store path")
    p.add_argument("--seed", type=_integer(0), default=42, help=_INERT_SEED)
    p.add_argument("--budget", type=_integer(), default=DEFAULT_BRUTE_BUDGET, help=_BUDGET)
    p.add_argument("--per-client-slots", dest="per_client_slots", action="store_true",
                   help="restrict slot i's replacements to client i's own candidates")
    p.add_argument("--literal-termination", dest="literal_termination", action="store_true",
                   help="stop at the first slot whose scan finds no improvement")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_select)

    p = sub.add_parser("augment", help="retrieve augmented sets from a public pool")
    p.add_argument("--pool", required=True)
    p.add_argument("--selection", help="selection.json (feddca strategy)")
    p.add_argument("--centers", nargs="+", help="centers stores (direct strategy)")
    p.add_argument("--clients", type=_integer(), help="client count (random strategy)")
    p.add_argument("--per-client", dest="per_client", type=_integer(), required=True)
    p.add_argument("--alpha", type=_number(finite=False, minimum=-1.0), default=0.7,
                   help="similarity threshold for the feddca strategy; hits above it "
                        "are excluded (values above 1 disable filtering)")
    p.add_argument("--strategy", choices=["feddca", "direct", "random"], default="feddca")
    p.add_argument("--seed", type=_integer(0), default=42, help="the run seed, as in 'fedca run'")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_augment)

    p = sub.add_parser("metrics", help="coverage, ICACS, RUAI, communication accounting")
    p.add_argument("--domain", required=True, help="domain reference store")
    p.add_argument("--universe", required=True, help="store resolving every id")
    p.add_argument("--plan", required=True)
    p.add_argument("--augsets", required=True)
    p.add_argument("--xi", type=_integer(), default=10,
                   help="centers per client for upload accounting")
    p.add_argument("--selection",
                   help="selection.json, to report convergence passes (0 without it)")
    p.add_argument("--seed", type=_integer(0), default=42,
                   help="run seed; the ICACS stream is derived from it as in 'fedca run'")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_metrics)

    p = sub.add_parser("run", help="one seeded end-to-end protocol run")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="runs directory")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("sweep", help="heterogeneity sweep over beta values")
    p.add_argument("--config", required=True)
    p.add_argument("--betas", type=_comma_list(_number()), default="0.01,0.1,1,10")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("compare", help="same data and seed, varying strategy")
    p.add_argument("--config", required=True)
    p.add_argument("--strategies", default="feddca,direct,random")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("oracle", help="exact or beam-search selection baselines")
    p.add_argument("oracle_mode", choices=["brute", "beam"])
    p.add_argument("--centers", nargs="+", required=True)
    p.add_argument("--reference", default="call")
    p.add_argument("--widths", type=_comma_list(_integer()), default="256,512,1024,2048",
                   help="comma list of beam widths")
    p.add_argument("--budget", type=_integer(), default=DEFAULT_BRUTE_BUDGET, help=_BUDGET)
    p.add_argument("--greedy", help="greedy selection.json for the approximation ratio")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("selfcheck", help="run the bundled property suite")
    p.set_defaults(handler=_cmd_selfcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"fedca: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (FedcaError, OSError) as exc:
        print(f"fedca: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
