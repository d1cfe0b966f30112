"""The measured process: program set-up, closed-loop iterations, output checks.

run.py starts it after gen.py has written the inputs into DIR:

    python3 perfbench/workload.py --workload paper --inputs DIR --seconds 20 \
        --trace 0 --result DIR/result.json

One caller makes each call after the previous one returns. Every iteration
runs the same calls on the same inputs and checks their outputs; a failed
call or check counts as a failed operation. With ``--trace 1`` every second
iteration runs with spans installed (see spans.py), and the untraced ones in
between give the tracing overhead.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from common import SRC, add_src_path  # noqa: E402

SETUP_REPEATS = 3  # at least; cheap set-ups repeat until SETUP_MIN_S is spent
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 15
MIN_ITERATIONS = 2
NAIVE_QUERIES = 2  # sampled retrieval queries re-ranked by the naive full sort
FEDCA_THREADS = 1


PROGRAM_MODULES = ("fedca", "fedca.cli", "fedca.fedsim")


def _import_fedca() -> float:
    """Import the program; returns the seconds it took."""
    t = time.perf_counter()
    add_src_path()
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    return time.perf_counter() - t


def _fresh_import_s() -> float:
    """Import time in a new interpreter, so set-up can repeat the import."""
    code = (f"import importlib, sys, time; sys.path.insert(0, {str(SRC)!r}); "
            f"t = time.perf_counter(); "
            f"[importlib.import_module(m) for m in {PROGRAM_MODULES!r}]; "
            f"print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    return float(out.stdout)


def sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


class Degenerate(SystemExit):
    """The generated geometry cannot exercise the program; abort the run."""


class Iteration:
    """Times the operations of one iteration and collects check failures."""

    def __init__(self, index: int, tracer):
        self.index = index
        self.tracer = tracer
        self.times: dict[str, float] = {}
        self.values: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self.failed: set[str] = set()
        self.stages: dict[str, float] = {}  # the program's own stage timers

    @contextlib.contextmanager
    def tracing(self):
        """Spans are recorded only inside this block, around the timed calls."""
        if self.tracer is None:
            yield
            return
        self.tracer.iteration = self.index
        self.tracer.install()
        try:
            yield
        finally:
            self.tracer.uninstall()

    def op(self, name: str, fn, *args, **kwargs):
        # CLI subcommands are timed from here; library calls get spans in spans.py
        span = (self.tracer.span(name.split(":")[0])
                if self.tracer and name.startswith("cli.") else None)
        t = time.perf_counter()
        try:
            with span or contextlib.nullcontext():
                result = fn(*args, **kwargs)
        except Exception:
            traceback.print_exc()
            self.failed.add(name)
            result = None
        self.times[name] = time.perf_counter() - t
        return result

    def check(self, name: str, what: str, predicate) -> None:
        try:
            ok = bool(predicate())
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            print(f"check failed in iteration {self.index}: {name}: {what}", file=sys.stderr)
            self.failed.add(name)

    @property
    def wall_s(self) -> float:
        return sum(self.times.values())


def naive_topk(pool, query, k: int, threshold: float | None) -> list[tuple[int, float]]:
    """Rank every pool record by similarity (desc, then id asc), filter, cut at k."""
    import numpy as np

    sims = (pool.matrix64() @ np.asarray(query, dtype=np.float64)).tolist()
    scored = [(s, i) for s, i in zip(sims, pool.ids.tolist())
              if threshold is None or s <= threshold]
    scored.sort(key=lambda p: (-p[0], p[1]))
    return [(i, s) for s, i in scored[:k]]


def probe_filtered(matrix64, per_cluster: int, alpha: float) -> int:
    """Rows above alpha for a probe query at the first planted cluster's mean.

    gen.py lays in-domain records out cluster-major from id 0, so the first
    ``per_cluster`` rows are one cluster. Zero means the planted records sit
    so far from their center that the threshold can never remove anything.
    """
    import numpy as np

    probe = matrix64[:per_cluster].mean(axis=0)
    probe /= np.linalg.norm(probe)
    return int(np.count_nonzero(matrix64 @ probe > alpha))


class Workload:
    ops_per_iteration = 0

    def __init__(self, manifest: dict):
        self.manifest = manifest
        self.size = manifest["size"]
        self.alpha = manifest["alpha"]
        self.first_digests: dict[str, str] | None = None

    def setup(self) -> None:
        raise NotImplementedError

    def guard(self) -> None:
        """Refuse inputs whose geometry cannot exercise the program."""

    def warm_up(self) -> None:
        """Pay first-call costs between set-up and timing, untimed."""

    def iterate(self, it: Iteration) -> None:
        raise NotImplementedError

    def check_digests(self, it: Iteration) -> None:
        """Outputs must be byte-identical across the iterations of a run."""
        if self.first_digests is None:
            self.first_digests = dict(it.digests)
        for name, digest in it.digests.items():
            it.check(f"replay:{name}", "output bytes differ from iteration 0",
                     lambda d=digest, n=name: self.first_digests.get(n) == d)

    def check_hits(self, it: Iteration, name: str, pool, queries, hits_per_query,
                   k: int) -> None:
        """Every hit at or below alpha; sampled queries equal the naive full sort."""
        it.check(name, f"a hit lies above alpha={self.alpha}",
                 lambda: all(s <= self.alpha for hits in hits_per_query for _, s in hits))
        n = len(queries)
        for j in sorted({(it.index * NAIVE_QUERIES + d) % n for d in range(NAIVE_QUERIES)}):
            it.check(name, f"query {j} differs from the naive full sort",
                     lambda j=j: [tuple(h) for h in hits_per_query[j]]
                     == naive_topk(pool, queries[j], k, self.alpha))


class Paper(Workload):
    """run_experiment for feddca, then for direct, on the pool ingested once."""

    ops_per_iteration = 2

    def warm_up(self):
        """One pseudo-label-shaped k-means on unrelated random points.

        After set-up's large allocations, the first pseudo-label k-means of
        a run (5,000 x 1,024 points, k = 100) costs up to a second more than
        later ones. That is warm-up, not work fedca repeats per run.
        """
        import numpy as np

        from fedca.clustering import kmeans

        n = self.size["n_clusters"] * self.size["per_cluster"]
        points = np.random.default_rng(0).standard_normal((n, self.size["dim"]))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        kmeans(points, self.size["labels"], seed=0, max_iters=2)

    def __init__(self, manifest):
        super().__init__(manifest)
        from spans import patch

        # The feddca selection's reference (the pooled client centers) is not
        # part of the log, so the problem handed to greedy_select is kept for
        # the coverage recompute. One shared wrapper, installed once.
        self.problems = []
        import fedca.selection

        original = fedca.selection.greedy_select

        def capture(problem, *args, **kwargs):
            self.problems.append(problem)
            return original(problem, *args, **kwargs)

        patch("fedca", "selection", "greedy_select", lambda orig, caller: capture)

    def setup(self):
        from fedca import fedsim, store

        self.pool = None  # release the previous copy before ingesting again
        self.pool = store.ingest_binary("pool.fdca")
        self.pool.matrix64()
        cfg = self.manifest["config"]
        self.configs = {
            s: fedsim.ExperimentConfig.from_json_dict({**cfg, "strategy": s})
            for s in ("feddca", "direct")
        }

    def guard(self):
        filtered = probe_filtered(self.pool.matrix64(), self.size["per_cluster"], self.alpha)
        if filtered == 0:
            raise Degenerate(f"paper: probe query filters no pool record at alpha={self.alpha}")

    def iterate(self, it):
        from fedca import fedsim, geometry

        self.problems.clear()
        with it.tracing():
            feddca = it.op("feddca", fedsim.run_experiment, self.configs["feddca"],
                           pool=self.pool)
            direct = it.op("direct", fedsim.run_experiment, self.configs["direct"],
                           pool=self.pool)
        it.values["feddca_s"] = it.times["feddca"]
        it.values["baseline_s"] = it.times["direct"]
        for name, log in (("feddca", feddca), ("direct", direct)):
            if log is None:
                continue
            it.stages.update({f"{name}.{k}": v for k, v in log.timings.items()})
            it.digests[f"{name}/log.jsonl"] = sha("\n".join(log.to_lines()) + "\n")
            it.digests[f"{name}/augsets.json"] = sha(json.dumps([r.to_json_dict() for r in log.augsets]))
            if log.selection is not None:
                it.digests[f"{name}/selection.json"] = sha(json.dumps(log.selection.to_json_dict()))
        self.check_digests(it)
        if feddca is not None:
            it.values["coverage_feddca"] = feddca.metrics.domain_coverage.value
            sel = feddca.selection
            it.check("feddca", "reported selection coverage != geometry.coverage recomputed",
                     lambda: geometry.coverage(self.problems[-1].reference_matrix(),
                                               sel.slot_vectors(), self.problems[-1].mode).value
                     == sel.coverage.value)
            self.check_hits(it, "feddca", self.pool, [s.vector for s in sel.slots],
                            [r.hits for r in feddca.augsets], self.configs["feddca"].per_client_aug)
            if it.index == 0 and it.values["coverage_feddca"] == 1.0:
                raise Degenerate("paper: feddca coverage is exactly 1.0")
        if direct is not None:
            it.values["coverage_baseline"] = direct.metrics.domain_coverage.value
            k = self.configs["direct"].per_client_aug
            it.check("direct", f"a client lacks {k} distinct hits",
                     lambda: all(len(set(r.ids())) == k for r in direct.augsets))


class Oracle(Workload):
    """greedy_select, approximation_report and brute_force_select alone."""

    ops_per_iteration = 3

    def setup(self):
        from fedca import clustering, selection, store

        self.reference = store.ingest_binary("reference.fdca")
        cands = store.ingest_binary("candidates.fdca")
        index = cands.domain_index
        sets = [
            [clustering.CandidateCenters(k, cands.vectors_for(index[f"set{s}.client{k}"]))
             for k in range(self.size["clients"])]
            for s in range(self.size["candidate_sets"])
        ]
        # a float64 reference is used as is, so the greedy problems share it
        ref64 = self.reference.matrix64()
        self.explicit = [selection.SelectionProblem(c, reference=ref64) for c in sets]
        self.pooled = selection.SelectionProblem(sets[0])
        per = self.size["brute_per_client"]
        self.small = selection.SelectionProblem([
            clustering.CandidateCenters(c.client_id, c.centers[:per])
            for c in sets[0][: self.size["brute_clients"]]
        ])
        for problem in (*self.explicit, self.pooled, self.small):
            problem.reference_matrix()

    def guard(self):
        filtered = probe_filtered(self.reference.matrix64(), self.size["per_cluster"], self.alpha)
        if filtered == 0:
            raise Degenerate(f"oracle: probe query filters no reference record at alpha={self.alpha}")

    def warm_up(self):
        """One greedy_select on unrelated random points of a small dimension.

        The first greedy sweeps of a process run up to a fifth slower than
        later ones; the per-candidate work (a maximum and an exact sum over
        every reference row) does not depend on the dimension.
        """
        import numpy as np

        from fedca import clustering, selection

        rng = np.random.default_rng(0)

        def unit(n):
            v = rng.standard_normal((n, 16))
            return v / np.linalg.norm(v, axis=1, keepdims=True)

        clients = [clustering.CandidateCenters(k, unit(self.size["per_client"]).astype(np.float32))
                   for k in range(self.size["clients"])]
        reference = unit(self.size["n_clusters"] * self.size["per_cluster"])
        selection.greedy_select(selection.SelectionProblem(clients, reference=reference), 0)

    def iterate(self, it):
        from fedca import geometry, selection

        def greedy_all():
            return [selection.greedy_select(problem, 0) for problem in self.explicit]

        with it.tracing():
            greedy = it.op("greedy", greedy_all)
            report = it.op("beam", selection.approximation_report, self.pooled,
                           self.size["widths"])
            brute = it.op("brute", selection.brute_force_select, self.small)
        it.values["feddca_s"] = it.times["greedy"]
        it.values["baseline_s"] = it.times["beam"] + it.times["brute"]
        for name, result in (("beam", report), ("brute", brute)):
            if result is not None:
                it.digests[name] = sha(json.dumps(result.to_json_dict()))
        for s, sel in enumerate(greedy or []):
            it.digests[f"greedy{s}"] = sha(json.dumps(sel.to_json_dict()))
        self.check_digests(it)
        if greedy is not None:
            it.values["coverage_feddca"] = statistics.fmean(g.coverage.value for g in greedy)
            for problem, sel in zip(self.explicit, greedy):
                it.check("greedy", "reported coverage != geometry.coverage recomputed",
                         lambda p=problem, g=sel: geometry.coverage(
                             p.reference_matrix(), g.slot_vectors()).value == g.coverage.value)
            if it.index == 0 and any(g.coverage.value == 1.0 for g in greedy):
                raise Degenerate("oracle: greedy coverage is exactly 1.0")
        if report is not None:
            it.values["coverage_baseline"] = report.best_beam_coverage
            it.check("beam", "greedy falls below the 1 - 1/e bound of the best beam",
                     lambda: report.ratio_to_beam_percent >= 100.0 * (1.0 - 1.0 / math.e))
        if brute is not None:
            it.check("brute", "brute force optimum below greedy on the small instance",
                     lambda: brute.coverage.value
                     >= selection.greedy_select(self.small, 0).coverage.value)


class DeskCli(Workload):
    """The README's CLI walkthrough, each subcommand through fedca.cli.main."""

    def __init__(self, manifest):
        super().__init__(manifest)
        self.clients = self.size["clients"]
        self.ops_per_iteration = 9 + self.clients

    def cli(self, *argv) -> tuple[int, str]:
        from fedca import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["--threads", str(FEDCA_THREADS), *map(str, argv)])
        return rc, out.getvalue()

    def _setup_cli(self, *argv) -> None:
        rc, _ = self.cli(*argv)
        if rc != 0:
            raise SystemExit(f"desk-cli set-up: fedca {argv[0]} exited with {rc}")

    def setup(self):
        from fedca import store

        m = self.size
        self._setup_cli("ingest", "--in", "pool.jsonl", "--out", "pool.fdca", "--dim", m["dim"])
        self._setup_cli("ingest", "--in", "domain.jsonl", "--out", "domain.fdca", "--dim", m["dim"])
        self._setup_cli(*self.partition_argv())
        # no subcommand writes per-client stores; the plan is deterministic
        plan = json.loads(Path("plan.json").read_text(encoding="utf-8"))
        domain = store.ingest_binary("domain.fdca")
        for k, ids in enumerate(plan["clients"]):
            store.write_binary(domain.subset_by_ids(ids), f"client{k}.fdca")
        Path("exp.json").write_text(json.dumps(self.manifest["config"]), encoding="utf-8")
        self.pool = store.ingest_binary("pool.fdca")
        self.domain = domain

    def partition_argv(self):
        m = self.size
        return ("partition", "--in", "domain.fdca", "--mode", "dirichlet", "--beta", "0.1",
                "--clients", self.clients, "--per-client", m["local"], "--seed", 42,
                "--label-clusters", m["labels"], "--out", "plan.json")

    def iterate(self, it):
        import numpy as np

        from fedca import geometry, store

        m = self.size
        centers = [f"centers{k}.fdca" for k in range(self.clients)]
        results = {}

        def call(name, *argv):
            results[name] = it.op(f"cli.{argv[0]}:{name}", self.cli, *argv)

        with it.tracing():
            call("ingest", "ingest", "--in", "pool.jsonl", "--out", "pool.fdca", "--dim", m["dim"])
            call("partition", *self.partition_argv())
            for k in range(self.clients):
                call(f"cluster{k}", "cluster", "--in", f"client{k}.fdca", "--k", m["xi"],
                     "--seed", 42 + k, "--out", centers[k])
            call("select", "select", "--centers", *centers, "--mode", "greedy", "--seed", 42,
                 "--out", "selection.json")
            call("select_ref", "select", "--centers", *centers, "--reference", "domain.fdca",
                 "--seed", 42, "--out", "selection_ref.json")
            call("augment_feddca", "augment", "--pool", "pool.fdca", "--selection",
                 "selection.json", "--per-client", m["aug"], "--alpha", self.alpha,
                 "--strategy", "feddca", "--out", "aug_feddca.json")
            call("augment_direct", "augment", "--pool", "pool.fdca", "--centers", *centers,
                 "--per-client", m["aug"], "--strategy", "direct", "--out", "aug_direct.json")
            call("metrics", "metrics", "--domain", "domain.fdca", "--universe", "pool.fdca",
                 "--plan", "plan.json", "--augsets", "aug_feddca.json", "--xi", m["xi"],
                 "--selection", "selection.json", "--seed", 42, "--out", "report.json")
            call("run", "run", "--config", "exp.json", "--out", "runs")
            call("compare", "compare", "--config", "exp.json",
                 "--strategies", "feddca,direct,random", "--out", "table.csv")
        times = {name.split(":", 1)[1]: t for name, t in it.times.items()}
        it.values["feddca_s"] = times["run"]
        it.values["baseline_s"] = times["compare"]
        for name, res in results.items():
            it.check(f"cli:{name}", "nonzero exit code", lambda res=res: res and res[0] == 0)

        run_out = json.loads(results["run"][1]) if results["run"] and results["run"][0] == 0 else None
        files = ["pool.fdca", "plan.json", *centers, "selection.json", "selection_ref.json",
                 "aug_feddca.json", "aug_direct.json", "report.json", "table.csv"]
        if run_out is not None:
            run_dir = Path(run_out["run_dir"])
            files += [str(run_dir / f) for f in ("log.jsonl", "plan.json", "selection.json",
                                                 "augsets.json")]
            it.values["coverage_feddca"] = run_out["domain_coverage"]
        for f in files:
            if Path(f).is_file():
                it.digests[f] = sha(Path(f).read_bytes())
            else:
                it.failed.add(f"missing:{f}")
        self.check_digests(it)

        def table_row(strategy):
            with open("table.csv", newline="", encoding="utf-8") as fh:
                return next(r for r in csv.DictReader(fh) if r["strategy"] == strategy)

        it.check("cli:compare", "direct row missing from table.csv", lambda: table_row("direct"))
        with contextlib.suppress(Exception):
            it.values["coverage_baseline"] = float(table_row("direct")["domain_coverage"])

        def selection_matches(path, reference):
            sel = json.loads(Path(path).read_text(encoding="utf-8"))
            slots = np.asarray([s["vector"] for s in sel["slots"]], dtype=np.float32)
            return geometry.coverage(reference, slots).value == sel["coverage"]

        pooled = lambda: np.concatenate([store.ingest_binary(c).vectors for c in centers])  # noqa: E731
        it.check("cli:select", "reported coverage != geometry.coverage recomputed",
                 lambda: selection_matches("selection.json", pooled()))
        it.check("cli:select_ref", "reported coverage != geometry.coverage recomputed",
                 lambda: selection_matches("selection_ref.json", self.domain.vectors))

        def feddca_hits():
            sel = json.loads(Path("selection.json").read_text(encoding="utf-8"))
            aug = json.loads(Path("aug_feddca.json").read_text(encoding="utf-8"))
            queries = [np.asarray(s["vector"], dtype=np.float32) for s in sel["slots"]]
            return queries, [list(zip(a["ids"], a["sims"])) for a in aug]

        try:
            queries, hits = feddca_hits()
        except Exception:
            traceback.print_exc()
            it.failed.add("cli:augment_feddca")
        else:
            self.check_hits(it, "cli:augment_feddca", self.pool, queries, hits, m["aug"])


WORKLOADS = {"paper": Paper, "oracle": Oracle, "desk-cli": DeskCli}


def environment() -> dict:
    import numpy as np

    blas = {}
    with contextlib.suppress(Exception):
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "fedca_threads": FEDCA_THREADS,
    }


def pin_fedca_threads() -> None:
    """Library calls get the thread count the CLI workload passes as --threads."""
    with contextlib.suppress(ImportError):
        from fedca.parallel import set_thread_count

        set_thread_count(FEDCA_THREADS)


def measure(workload: Workload, seconds: float, tracer) -> list[Iteration]:
    iterations: list[Iteration] = []
    start = time.perf_counter()
    while len(iterations) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        index = len(iterations)
        traced = tracer is not None and index % 2 == 1
        it = Iteration(index, tracer if traced else None)
        workload.iterate(it)
        if traced:
            tracer.finish_iteration()
        iterations.append(it)
    return iterations


def summarize(iterations: list[Iteration], tracer) -> dict[str, float]:
    untraced = [it for it in iterations if it.tracer is None]
    metrics: dict[str, float] = {"wall_s": statistics.median(it.wall_s for it in untraced)}
    for key in ("feddca_s", "baseline_s", "coverage_feddca", "coverage_baseline"):
        values = [it.values[key] for it in untraced if key in it.values]
        if values:
            metrics[key] = statistics.median(values)
    if tracer is not None:
        from spans import per_layer_metrics

        traced = [it for it in iterations if it.tracer is not None]
        metrics.update(per_layer_metrics(tracer.spans, len(traced)))
        traced_wall = statistics.median(it.wall_s for it in traced)
        metrics["bench.traced_wall_s"] = traced_wall
        metrics["bench.untraced_wall_s"] = metrics["wall_s"]
        metrics["bench.trace_overhead_s"] = traced_wall - metrics["wall_s"]
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    result_path = Path(args.result).resolve()
    os.chdir(args.inputs)
    import_s = _import_fedca()
    pin_fedca_threads()
    manifest = json.loads(Path("manifest.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload](manifest)

    import_times = [import_s] + [_fresh_import_s() for _ in range(SETUP_REPEATS - 1)]
    setup_times: list[float] = []
    while len(setup_times) < SETUP_REPEATS or (
            sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPEATS):
        t = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t)
    workload.guard()
    workload.warm_up()

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    iterations = measure(workload, args.seconds, tracer)
    metrics = summarize(iterations, tracer)
    metrics["setup_s"] = statistics.median(import_times) + statistics.median(setup_times)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "attempted": workload.ops_per_iteration * len(iterations),
        "failed": sum(min(len(it.failed), workload.ops_per_iteration) for it in iterations),
        "iterations": len(iterations),
        "metrics": metrics,
        "env": environment(),
        "digests": iterations[0].digests,
        "samples": {
            "import_s": import_times,
            "setup_s": setup_times,
            "iterations": [{"traced": it.tracer is not None, **it.times, **it.values,
                            **it.stages} for it in iterations],
        },
        "process_s": time.perf_counter() - _T_START,
    }
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
