"""Spans around calls into fedca, recorded from outside the program.

Wrappers are installed at the attributes callers look up at call time: for
each target function, every ``fedca.*`` module attribute bound to it is
replaced (so ``fedca.fedsim.kmeans`` and ``fedca.metrics.kmeans`` both get a
wrapper, each naming its caller), and methods are replaced on their class.
Nothing under ``src/`` changes. Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct
children; the process is single-threaded (fedca runs with one thread), so
children nest inside their parent.
"""

from __future__ import annotations

import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

STAGES = ("load", "partition", "client_clustering", "selection", "augment", "metrics")


@dataclass
class Span:
    name: str
    caller: str
    start: float
    parent: int | None
    iteration: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def patch(module_prefix: str, owner_name: str, attr: str, make_wrapper) -> list[tuple]:
    """Replace every binding of ``owner.attr`` in loaded fedca modules.

    ``make_wrapper(original, caller)`` builds the replacement, where caller
    is the short name of the module whose attribute is replaced. Returns the
    (holder, attr, original) triples needed to undo the patch. A target that
    no longer exists is skipped, so a refactor loses spans, not the run.
    """
    owner = sys.modules.get(f"{module_prefix}.{owner_name.split('.')[0]}")
    if owner is None:
        return []
    if "." in owner_name:  # a method: replace it on its class only
        cls = getattr(owner, owner_name.split(".")[1], None)
        original = getattr(cls, attr, None) if cls is not None else None
        if original is None:
            return []
        setattr(cls, attr, make_wrapper(original, owner_name.split(".")[0]))
        return [(cls, attr, original)]
    original = getattr(owner, attr, None)
    if original is None:
        return []
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == module_prefix or mod_name.startswith(module_prefix + ".")):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                caller = mod_name.rsplit(".", 1)[-1]
                setattr(mod, name, make_wrapper(original, caller))
                undo.append((mod, name, original))
    return undo


def unpatch(undo: list[tuple]) -> None:
    for holder, name, original in reversed(undo):
        setattr(holder, name, original)


# ---------------------------------------------------------------- counters
# Each counter runs after its span closes and reads only call arguments and
# the return value, so it costs O(1) per call; anything heavier is deferred.


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos] if len(args) > pos else None


def _count_ingest_binary(span, args, kwargs, result):
    span.attrs["mb"] = os.path.getsize(_arg(args, kwargs, 0, "path")) / 1e6


def _count_ingest_jsonl(span, args, kwargs, result):
    span.attrs["records"] = len(result)


def _count_write_binary(span, args, kwargs, result):
    span.attrs["mb"] = os.path.getsize(_arg(args, kwargs, 1, "path")) / 1e6


def _count_coverage(span, args, kwargs, result):
    import numpy as np

    ref = np.shape(_arg(args, kwargs, 0, "reference"))
    cov = np.shape(_arg(args, kwargs, 1, "covering"))
    span.attrs.update(pairs=ref[0] * cov[0], covering_rows=cov[0],
                      gflop=2.0 * ref[0] * cov[0] * ref[1] / 1e9)


def _count_kmeans(span, args, kwargs, result):
    import numpy as np

    n = np.shape(_arg(args, kwargs, 0, "points"))[0]
    span.attrs["point_centers"] = n * _arg(args, kwargs, 1, "k")
    span.attrs["client_call"] = "client_id" in kwargs


def _count_greedy(span, args, kwargs, result):
    problem = _arg(args, kwargs, 0, "problem")
    n, p = problem.n_clients, len(problem.pool())
    scored = result.passes * n * (p - n + 1)
    span.attrs.update(passes=result.passes, swaps=result.swaps, candidates_scored=scored)


def _count_brute(span, args, kwargs, result):
    problem = _arg(args, kwargs, 0, "problem")
    span.attrs["subsets"] = math.comb(len(problem.pool()), problem.n_clients)


def _count_retrieve(span, args, kwargs, result):
    pool = _arg(args, kwargs, 0, "pool")
    threshold = _arg(args, kwargs, 3, "threshold")
    span.attrs.update(rows_scanned=len(pool), hits=len(result.hits),
                      shortfall=result.shortfall)
    # the threshold recount is a full scan; Tracer.finish_iteration does it
    span.attrs["_recount"] = (pool, _arg(args, kwargs, 1, "query"), threshold)


def _count_direct(span, args, kwargs, result):
    span.attrs["queries"] = sum(c.k for c in _arg(args, kwargs, 1, "client_centers"))


def _count_dirichlet(span, args, kwargs, result):
    span.attrs["shortfall"] = sum(result.shortfalls)


def _count_cross_coverage(span, args, kwargs, result):
    span.attrs["reference_size"] = result.reference_size


def _count_run(span, args, kwargs, result):
    span.attrs["timings"] = dict(result.timings)


# (module or module.Class, function or method, span name, counter)
TARGETS = (
    ("store", "ingest_binary", "store.ingest_binary", _count_ingest_binary),
    ("store", "ingest_jsonl", "store.ingest_jsonl", _count_ingest_jsonl),
    ("store", "write_binary", "store.write_binary", _count_write_binary),
    ("store.EmbeddingStore", "subset_by_domain", "store.subset", None),
    ("store.EmbeddingStore", "subset_by_ids", "store.subset", None),
    ("geometry", "coverage", "geometry.coverage", _count_coverage),
    ("geometry", "best_similarity", "geometry.best_similarity", None),
    ("clustering", "kmeans", "clustering.kmeans", _count_kmeans),
    ("clustering", "assign_labels", "clustering.assign_labels", None),
    ("selection", "greedy_select", "selection.greedy_select", _count_greedy),
    ("selection", "beam_select", "selection.beam_select", None),
    ("selection", "brute_force_select", "selection.brute_force_select", _count_brute),
    ("selection", "approximation_report", "selection.approximation_report", None),
    ("augment", "retrieve_topk", "augment.retrieve_topk", _count_retrieve),
    ("augment", "feddca_augment", "augment.feddca_augment", None),
    ("augment", "direct_retrieval_augment", "augment.direct_retrieval_augment", _count_direct),
    ("augment", "random_sampling_augment", "augment.random_sampling_augment", None),
    ("partition", "dirichlet_partition", "partition.dirichlet_partition", _count_dirichlet),
    ("metrics", "cross_client_coverage", "metrics.cross_client_coverage", _count_cross_coverage),
    ("metrics", "icacs", "metrics.icacs", None),
    ("metrics", "ruai", "metrics.ruai", None),
    ("fedsim", "run_experiment", "fedsim.run_experiment", _count_run),
    ("fedsim.ExperimentLog", "persist", "fedsim.persist", None),
)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.iteration = 0

    def _open(self, name: str, caller: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, caller, 0.0, parent, self.iteration))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        span = self.spans[idx]
        span.end = end
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    @contextmanager
    def span(self, name: str, caller: str = "bench"):
        idx = self._open(name, caller)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def _wrapper(self, name, counter):
        tracer = self

        def make(original, caller):
            def traced(*args, **kwargs):
                idx = tracer._open(name, caller)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if counter is not None:
                    counter(tracer.spans[idx], args, kwargs, result)
                return result

            return traced

        return make

    def install(self) -> None:
        for owner, attr, name, counter in TARGETS:
            self._undo += patch("fedca", owner, attr, self._wrapper(name, counter))

    def uninstall(self) -> None:
        unpatch(self._undo)
        self._undo = []

    def finish_iteration(self) -> None:
        """Run deferred counters for this iteration's spans, outside any span."""
        import numpy as np

        for span in self.spans:
            recount = span.attrs.pop("_recount", None)
            if recount is None:
                continue
            pool, query, threshold = recount
            if threshold is None:
                span.attrs["threshold_filtered"] = 0
                continue
            sims = pool.matrix64() @ np.asarray(query, dtype=np.float64)
            span.attrs["threshold_filtered"] = int(np.count_nonzero(sims > threshold))


def _stage_of(span: Span) -> str | None:
    layer = span.name.split(".")[0]
    if layer == "store":
        return "load"
    if span.name == "clustering.kmeans":
        return "client_clustering" if span.attrs.get("client_call") else "partition"
    if layer in ("clustering", "partition"):
        return "partition"
    return {"selection": "selection", "augment": "augment", "metrics": "metrics"}.get(layer)


def per_layer_metrics(spans: list[Span], iterations: int) -> dict[str, float]:
    """Per-iteration totals of every span-derived metric."""
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0.0) + value

    for i, s in enumerate(spans):
        a = s.attrs
        if s.name.startswith("cli."):
            add(f"{s.name}.s", s.duration)
            add("cli.self_s", s.self_s)
            continue
        if s.name == "fedsim.run_experiment":
            add("fedsim.run_experiment.self_s", s.self_s)
            for stage in STAGES:
                add(f"fedsim.stage.{stage}.s", a.get("timings", {}).get(stage, 0.0))
            continue
        add(f"{s.name}.s", s.self_s)
        add(f"{s.name}.calls", 1)
        for key in ("mb", "records", "pairs", "gflop", "point_centers", "passes", "swaps",
                    "candidates_scored", "subsets", "rows_scanned", "threshold_filtered",
                    "hits", "shortfall", "queries", "reference_size"):
            if key in a:
                add(f"{s.name}.{key}", a[key])
        if s.name == "clustering.kmeans":
            add(f"clustering.kmeans.{s.caller}.s", s.self_s)
            add(f"clustering.kmeans.{s.caller}.calls", 1)
        if s.name == "geometry.coverage":
            add("geometry.coverage.total_s", s.duration)
        if s.parent is not None:
            parent = spans[s.parent]
            if parent.name == "fedsim.run_experiment":
                stage = _stage_of(s)
                if stage is not None:
                    add(f"fedsim.stage.{stage}.spans_s", s.duration)
            if parent.name == "metrics.cross_client_coverage" and s.name == "geometry.coverage":
                add("metrics.cross_client_coverage.covering_size", a["covering_rows"])

    def ratio(num, den):
        return m.get(num, 0.0) / m[den] if m.get(den) else 0.0

    m["geometry.coverage.gflops"] = ratio("geometry.coverage.gflop", "geometry.coverage.total_s")
    m["selection.greedy_select.accept_ratio"] = ratio(
        "selection.greedy_select.swaps", "selection.greedy_select.candidates_scored")
    m["selection.brute_force_select.subsets_per_s"] = ratio(
        "selection.brute_force_select.subsets", "selection.brute_force_select.s")
    survivors = (m.get("augment.retrieve_topk.rows_scanned", 0.0)
                 - m.get("augment.retrieve_topk.threshold_filtered", 0.0))
    m["augment.retrieve_topk.kept_ratio"] = (
        m.get("augment.retrieve_topk.hits", 0.0) / survivors if survivors else 0.0)
    rates = {"geometry.coverage.gflops", "selection.greedy_select.accept_ratio",
             "selection.brute_force_select.subsets_per_s", "augment.retrieve_topk.kept_ratio"}
    return {k: (v if k in rates else v / iterations) for k, v in m.items()}
