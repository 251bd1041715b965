"""Outside-in tracing of mcl's public functions, and the per-layer metrics.

`from .x import f` binds a separate name in every importing module, so each
function is wrapped where the caller looks it up: `mcl.trainer.encode_forward`
for the training loop and `mcl.model.encode_forward` for the call inside
`encode_batch`. Spans (name, start, end, parent, note) are kept in memory and
written out when the run ends. Nothing under `src/` is changed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

# (module, attribute, span name). A class attribute is written "Class.method".
TARGETS = [
    ("mcl.data", "load_pool", "data.load"),
    ("mcl.trainer", "train", "trainer.train"),
    ("mcl.trainer", "run_phase1_epoch", "trainer.phase1"),
    ("mcl.trainer", "run_phase2_epoch", "trainer.phase2"),
    ("mcl.trainer", "_cluster_with_widening", "trainer.widening"),
    ("mcl.trainer", "pk_sample", "trainer.pk_sample"),
    ("mcl.trainer", "clustering_distance", "geometry.clustering_distance"),
    ("mcl.geometry", "clustering_distance", "geometry.clustering_distance"),
    ("mcl.geometry", "pairwise_cosine_distance", "geometry.cosine"),
    ("mcl.geometry", "knn", "geometry.knn"),
    ("mcl.geometry", "k_reciprocal_sets", "geometry.reciprocal"),
    ("mcl.geometry", "jaccard_distance", "geometry.jaccard"),
    ("mcl.trainer", "dbscan", "cluster.dbscan"),
    ("mcl.cluster", "dbscan", "cluster.dbscan"),
    ("mcl.trainer", "encode_batch", "model.encode_batch"),
    ("mcl.trainer", "encode_forward", "model.forward"),
    ("mcl.model", "encode_forward", "model.forward"),
    ("mcl.trainer", "encode_backward", "model.backward"),
    ("mcl.trainer", "adam_step", "model.adam"),
    ("mcl.trainer", "augment_batch", "model.augment"),
    ("mcl.trainer", "infonce_batch", "losses.infonce"),
    ("mcl.trainer", "siamese_consistency_batch", "losses.consistency"),
    ("mcl.trainer", "soft_weighted_triplet_batch", "losses.triplet"),
    ("mcl.trainer", "phase2_total", "losses.phase2_total"),
    ("mcl.protobank", "PrototypeBank.from_clusters", "protobank.init"),
    ("mcl.protobank", "PrototypeBank.momentum_update", "protobank.update"),
    ("mcl.protobank", "PrototypeBank.soft_label_batch", "protobank.soft_label"),
    ("mcl.protobank", "PrototypeBank.harden", "protobank.harden"),
    ("mcl.trainer", "compute_map_cmc", "metrics.map_cmc"),
    ("mcl.trainer", "labeling_correct_fraction", "metrics.label_correct"),
]

# What a span keeps of its function's return value.
NOTES = {"trainer.phase2": lambda stats: stats.triplet_skipped}

# Span name -> per-layer time metric: the summed duration of those spans.
TIME_METRICS = {
    "geometry.cosine_s": ("geometry.cosine",),
    "geometry.knn_s": ("geometry.knn",),
    "geometry.reciprocal_s": ("geometry.reciprocal",),
    "geometry.jaccard_s": ("geometry.jaccard",),
    "cluster.dbscan_s": ("cluster.dbscan",),
    "trainer.pk_sample_s": ("trainer.pk_sample",),
    "model.forward_s": ("model.forward",),
    "model.backward_s": ("model.backward",),
    "model.adam_s": ("model.adam",),
    "model.augment_s": ("model.augment",),
    "losses.infonce_s": ("losses.infonce",),
    "losses.consistency_s": ("losses.consistency",),
    "losses.triplet_s": ("losses.triplet",),
    "protobank.init_s": ("protobank.init",),
    "protobank.update_s": ("protobank.update",),
    "protobank.label_s": ("protobank.soft_label", "protobank.harden"),
    "metrics.map_cmc_s": ("metrics.map_cmc",),
    "metrics.label_correct_s": ("metrics.label_correct",),
}

# Span name -> per-layer count metric: the number of those spans.
CALL_METRICS = {
    "cluster.dbscan_calls": "cluster.dbscan",
    "trainer.pk_sample_calls": "trainer.pk_sample",
    "trainer.phase1_batches": "losses.infonce",
    "trainer.phase2_batches": "losses.phase2_total",
    "model.forward_calls": "model.forward",
}


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, note]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark itself opens around a block."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span[4] = note(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target where its callers look it up."""
        for module_name, attr, name in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, raw.__func__)))
                    continue
                setattr(owner, attr, self.wrap(name, raw))
            else:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "note"],
                       "spans": self.spans}, fh)


def task_metrics(spans: list[list], root: int, entries: int) -> dict:
    """Per-layer metrics of the task whose root span is `spans[root]`.

    A span's self time is its duration minus the durations of its direct
    children; children of one span run one after another, so they never
    overlap.
    """
    inside = [root]
    members = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][3] in members:
            members.add(i)
            inside.append(i)
    child_time = {i: 0.0 for i in inside}
    for i in inside[1:]:
        child_time[spans[i][3]] += spans[i][2] - spans[i][1]

    def dur(i):
        return spans[i][2] - spans[i][1]

    def total(names):
        return sum(dur(i) for i in inside if spans[i][0] in names)

    def self_time(name):
        return sum(dur(i) - child_time[i] for i in inside if spans[i][0] == name)

    def count(name):
        return sum(1 for i in inside if spans[i][0] == name)

    out = {m: total(names) for m, names in TIME_METRICS.items()}
    out.update({m: count(name) for m, name in CALL_METRICS.items()})
    clusterings = count("trainer.widening") or count("bench.pass")
    out["geometry.entries"] = entries
    out["geometry.bytes_computed"] = 8 * entries
    out["cluster.accept_ratio"] = clusterings / max(count("cluster.dbscan"), 1)
    out["trainer.phase1_self_s"] = self_time("trainer.phase1")
    out["trainer.phase2_self_s"] = self_time("trainer.phase2")
    out["trainer.triplet_skipped"] = sum(
        spans[i][4] for i in inside if spans[i][0] == "trainer.phase2")
    out["trainer.eval_s"] = sum(
        dur(i) for i in inside
        if spans[i][3] == root
        and spans[i][0] in ("model.encode_batch", "metrics.map_cmc"))
    out["trainer.self_s"] = self_time("trainer.train")
    out["spans"] = len(inside)
    return out


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds to a plain call, measured on a no-op."""
    def noop():
        return None

    traced = Tracer().wrap("probe", noop)
    t = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - t
    t = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(time.perf_counter() - t - plain, 0.0) / calls
