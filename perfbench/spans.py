"""Span recorder and the wrappers of the traced benchmark run.

A span is ``(id, name, parent, start, end, attrs)``. Spans live in memory
and are written out once, when the run ends. Spans that run Spark work tag
their jobs with ``setJobGroup("span-<id>")``, so the jobs and stages of each
span can be read back from ``statusTracker()`` afterwards.

``traced_program`` swaps the public functions that ``prepare_dataset``,
``run_method`` and ``LocalContext`` call for wrappers that open a span and
force the callee's output to materialise (cache + count for Spark frames),
so each layer's time is spent inside its own span. The program's own files
are untouched; the wrappers are removed when the block exits. Forcing
outputs adds work, which the run reports as ``trace.overhead_s``.
"""
from __future__ import annotations

import time
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Iterator

NO_GROUP = "perfbench"


class Tracer:
    """In-memory span tree of one benchmark pass."""

    def __init__(self, sc=None):
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._sc = sc
        self._t0 = time.perf_counter()
        self.cached: list[Any] = []  # frames cached by wrappers, unpersisted at the end
        self.retained: Any = None  # last retained pair frame collected by the prune wrapper

    @contextmanager
    def span(self, name: str, *, spark: bool = False, **attrs) -> Iterator[dict]:
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "spark": spark,
            "attrs": dict(attrs),
        }
        self.spans.append(rec)
        self._stack.append(sid)
        if spark and self._sc is not None:
            self._sc.setJobGroup(f"span-{sid}", name)
        rec["start"] = time.perf_counter() - self._t0
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()
            if spark and self._sc is not None:
                self._sc.setJobGroup(self._enclosing_group(), "")

    def _enclosing_group(self) -> str:
        for sid in reversed(self._stack):
            if self.spans[sid]["spark"]:
                return f"span-{sid}"
        return NO_GROUP

    def materialise(self, df):
        """Cache ``df`` and run it; returns the cached frame and its rows."""
        df = df.cache()
        self.cached.append(df)
        return df, df.count()

    def release(self) -> None:
        for df in self.cached:
            df.unpersist()
        self.cached.clear()

    def collect_spark_counts(self) -> None:
        """Attach ``jobs``, executed ``stages`` and ``tasks`` (own group only)
        to Spark spans."""
        if self._sc is None:
            return
        st = self._sc.statusTracker()
        for rec in self.spans:
            if not rec["spark"]:
                continue
            jobs = st.getJobIdsForGroup(f"span-{rec['id']}")
            stages, tasks = set(), 0
            for j in jobs:
                info = st.getJobInfo(j)
                for sid in info.stageIds if info is not None else ():
                    stage = st.getStageInfo(sid)
                    # Stages whose output was reused (skipped) ran no task.
                    if stage is not None and stage.numCompletedTasks > 0 and sid not in stages:
                        stages.add(sid)
                        tasks += stage.numCompletedTasks
            rec["jobs"] = len(jobs)
            rec["stages"] = len(stages)
            rec["tasks"] = tasks

    def finished(self) -> list[dict]:
        """Spans with ``self_s`` (duration minus direct children) filled in."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        for rec, ct in zip(self.spans, child_time):
            rec["dur_s"] = rec["end"] - rec["start"]
            rec["self_s"] = rec["dur_s"] - ct
        return self.spans


def _patch(stack: ExitStack, owner: Any, name: str, make: Callable) -> None:
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    stack.callback(setattr, owner, name, original)


@contextmanager
def traced_program(tracer: Tracer) -> Iterator[None]:
    """Wrap the program's layer entry points with spans for one block."""
    import numpy as np
    from pyspark.sql import functions as F

    import repro.blocking.pipeline as blocking_pipeline
    import repro.core.fast_local as fast_local
    import repro.core.pipeline as core_pipeline
    import repro.features.schemes as schemes

    def frame_layer(name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                with tracer.span(name, spark=True) as rec:
                    out, rec["attrs"]["rows"] = tracer.materialise(fn(*args, **kwargs))
                return out
            return wrapper
        return make

    def build_blocks(fn):
        def wrapper(*args, **kwargs):
            with tracer.span("blocking.build_blocks", spark=True) as rec:
                coll = fn(*args, **kwargs)
                rec["attrs"]["rows"] = coll.assignments.count()
            return coll
        return wrapper

    def compute_features(fn):
        def wrapper(collection):
            with tracer.span("features.compute", spark=True):
                features, gstats = fn(collection)
                with tracer.span("features.materialise", spark=True) as rec:
                    features, rec["attrs"]["rows"] = tracer.materialise(features)
            return features, gstats
        return wrapper

    def sample_balanced(fn):
        def wrapper(*args, **kwargs):
            with tracer.span("classifier.sample") as rec:
                X, y = fn(*args, **kwargs)
                rec["attrs"].update(rows=len(y), pos=float(np.sum(y)))
            return X, y
        return wrapper

    def pruner(fn):
        def wrapper(*args, **kwargs):
            prune = fn(*args, **kwargs)

            def planned(scored):
                with tracer.span("core.prune_plan", spark=True):
                    return prune(scored)
            return planned
        return wrapper

    def score_pairs(fn):
        def wrapper(features, model):
            with tracer.span("core.score", spark=True) as rec:
                scored = fn(features, model).cache()
                tracer.cached.append(scored)
                rec["attrs"]["valid"] = scored.filter(F.col("p") >= 0.5).count()
            return scored
        return wrapper

    def effectiveness(fn):
        def wrapper(pairs, ground_truth, **kwargs):
            with tracer.span("core.prune", spark=True) as rec:
                pairs = pairs.cache()
                tracer.cached.append(pairs)
                tracer.retained = pairs.toPandas()
                rec["attrs"]["rows"] = len(tracer.retained)
            with tracer.span("eval.effectiveness", spark=True):
                return fn(pairs, ground_truth, **kwargs)
        return wrapper

    def driver_layer(name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return fn(*args, **kwargs)
            return wrapper
        return make

    with ExitStack() as stack:
        for attr, name in (
            ("token_blocking", "blocking.tokenize"),
            ("block_purging", "blocking.purge"),
            ("block_filtering", "blocking.filter"),
        ):
            _patch(stack, blocking_pipeline, attr, frame_layer(name))
        _patch(stack, schemes, "pair_block_relation", frame_layer("blocking.pair_block"))
        _patch(stack, core_pipeline, "build_blocks", build_blocks)
        _patch(stack, core_pipeline, "compute_features", compute_features)
        _patch(stack, core_pipeline, "sample_balanced", sample_balanced)
        _patch(stack, core_pipeline, "fit_logistic", driver_layer("classifier.fit"))
        _patch(stack, fast_local, "fit_logistic", driver_layer("classifier.fit"))
        _patch(stack, core_pipeline, "score_pairs", score_pairs)
        _patch(stack, core_pipeline, "_pruner", pruner)
        _patch(stack, core_pipeline, "effectiveness", effectiveness)
        _patch(stack, fast_local.LocalContext, "score", driver_layer("fast_local.score"))
        _patch(stack, fast_local.LocalContext, "prune", driver_layer("fast_local.prune"))
        yield
