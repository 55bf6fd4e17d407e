"""Workloads, passes, correctness checks and metrics of the repo benchmark.

A run is: set up (start Spark, one warm-up job, generate and lift the
inputs), then measured passes. A pass clears Spark's cache, prepares every
dataset of the workload with ``prepare_dataset`` and runs each method spec
through both engines: Spark ``run_method`` (the paper's RT) and
``LocalContext.run`` (the NumPy engine). A workload with a sweep then runs
its feature-set sweep on ``LocalContext``. Passes repeat until at least
``seconds`` have been measured; every metric is the median over passes.

Every prepare, every method spec (run on both engines) and every sweep
cell is one operation. An operation fails when it raises, or when the two
engines disagree on its output: a spec's retained pairs are compared pair
for pair (a traced pass collects Spark's inside ``run_method``, an
untraced one replays them after the timed work), and a sweep cell that
repeats a spec is compared by counts and pair-set digest. ``correct`` is
false when an output breaks an invariant that holds whichever engine is
right: a result is missing, or a count is out of range or disagrees with
the pairs it was counted from.

With ``trace`` the run makes one untraced pass and then one traced pass
(``spans.traced_program``); the per-layer metrics come from the traced
pass and ``trace.overhead_s`` is the difference of the two.
"""
from __future__ import annotations

import hashlib
import os
import platform
import resource
import shlex
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import NO_GROUP, Tracer, traced_program

#: Spark master cores (capped at the host's) and driver heap. Fixed here,
#: not read from the environment, so that two hosts run the same setting.
MAX_CORES = 4
DRIVER_MEMORY = "4g"
SHUFFLE_PARTITIONS = 8  # as jobs/_common.py and tests/conftest.py
METHOD_SEED = 1  # training-sample seed, as the first seed of every paper table
SETUP_REPS = 3  # generate + lift repetitions in set-up; setup_s takes the median
NOOP_JOBS = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "e2e_s": "s",
    "prepare_s": "s",
    "method_rt_s": "s",
    "py_peak_rss_mb": "MB",
}
#: Printed by name and unit but kept out of the JSON result, whose metrics
#: carry bounds. Quality follows the generated data (f1_mean spans 0.20-0.55
#: over D50K seeds); the failure share is 0 where the engines agree; and a
#: sweep run's cost grows with the pairs its model marks valid, so ImdbTmdb
#: sweeps ran at 56-104 runs/s over ten seeds.
INFO_UNITS = {
    "sweep_runs_per_s": "1/s",
    "sweep_run_p50_ms": "ms",
    "sweep_run_p98_ms": "ms",
    "recall_mean": "ratio",
    "f1_mean": "ratio",
    "ops_attempted": "count",
    "ops_failed_frac": "ratio",
}
ALGORITHMS = ("BCl", "BLAST", "CNP", "RCNP")
nan = float("nan")


@dataclass(frozen=True)
class Sweep:
    algorithms: tuple[str, ...]
    n_train_per_class: int
    seeds: tuple[int, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    datasets: tuple[str, ...]
    specs: tuple  # repro.eval.harness.MethodSpec
    sweep: Sweep | None = None


def workloads() -> dict[str, Workload]:
    from repro.core.pipeline import FEATURES_21, FEATURES_BLAST, FEATURES_RCNP
    from repro.eval.harness import MethodSpec

    section55 = (  # paper Section 5.5, as repro.eval.tables.section55
        MethodSpec("BCl", "BCl", FEATURES_21, -1),
        MethodSpec("BLAST", "BLAST", FEATURES_BLAST, 25),
        MethodSpec("CNP", "CNP", FEATURES_21, -1),
        MethodSpec("RCNP", "RCNP", FEATURES_RCNP, 25),
    )
    # The winners of paper Tables 5 and 7, as repro.eval.tables.table5/table7.
    # Their [21] baselines (BCl2, CNP2) and ablations (BCl1, CNP1) are left
    # out to keep a run within the benchmark's time budget; section55 above
    # runs BCl and CNP with the [21] set.
    finals = (
        MethodSpec("BLAST", "BLAST", FEATURES_BLAST, 25),
        MethodSpec("RCNP", "RCNP", FEATURES_RCNP, 25),
    )
    return {
        # Tables 3/4 sweep at the finals' training size and seed, so that
        # its (BLAST, Formula 1) and (RCNP, Formula 2) cells are the Spark
        # finals' runs and are checked against them.
        "clean-sweep": Workload(
            "clean-sweep", ("ImdbTmdb",), finals,
            Sweep(("BLAST", "RCNP"), 25, (METHOD_SEED,)),
        ),
        "dirty-d50k": Workload("dirty-d50k", ("D50K",), section55),
    }


# --------------------------------------------------------------------------
# Spark session
# --------------------------------------------------------------------------
def cores() -> int:
    return min(MAX_CORES, len(os.sched_getaffinity(0)))


def start_session(work: Path):
    """Local session with the repo's job settings; files stay under ``work``."""
    local, tmp, warehouse = (work / d for d in ("spark-local", "tmp", "warehouse"))
    for d in (local, tmp):
        d.mkdir(parents=True, exist_ok=True)
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{cores()}]",
            f"--driver-memory {DRIVER_MEMORY}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "--conf spark.driver.maxResultSize=4g",
            f"--conf {shlex.quote('spark.local.dir=' + str(local))}",
            f"--conf {shlex.quote('spark.sql.warehouse.dir=' + str(warehouse))}",
            f"--conf {shlex.quote('spark.driver.extraJavaOptions=' + java_opts)}",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.adaptive.enabled", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def jvm_peak_rss_mb(spark) -> float:
    with open(f"/proc/{jvm_pid(spark)}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return nan


def jvm_counters(spark) -> tuple[float, float]:
    """(JIT compile seconds, GC seconds) the driver JVM has spent so far.

    The JIT figure is the compiler threads' elapsed time, so it grows when
    they wait for a core, not only when they compile more."""
    mf = spark.sparkContext._jvm.java.lang.management.ManagementFactory
    jit = mf.getCompilationMXBean().getTotalCompilationTime() / 1e3
    gc = sum(b.getCollectionTime() for b in mf.getGarbageCollectorMXBeans()) / 1e3
    return jit, gc


def cpu_sample(jvm_pid: int) -> np.ndarray:
    """(Python CPU, JVM CPU, host busy, host steal) seconds so far."""
    tick = os.sysconf("SC_CLK_TCK")
    with open(f"/proc/{jvm_pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    with open("/proc/stat") as f:
        host = [int(x) for x in f.readline().split()[1:]]
    idle = host[3] + host[4]  # idle + iowait
    return np.array([
        time.process_time(),
        (int(fields[11]) + int(fields[12])) / tick,  # utime + stime
        (sum(host[:8]) - idle) / tick,  # user..steal, guests are inside user
        host[7] / tick,
    ])


def jvm_pid(spark) -> int:
    return spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()


def stop_session(spark) -> None:
    """Stop Spark and wait for its JVM to exit."""
    from pyspark import SparkContext

    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait()


def warm_up_job(spark) -> None:
    spark.range(100_000).selectExpr("id % 97 AS k").groupBy("k").count().collect()


# --------------------------------------------------------------------------
# Set-up
# --------------------------------------------------------------------------
@dataclass
class Inputs:
    entities: object  # Spark frame
    ground_truth: object  # Spark frame
    task: str
    n_entities: int


def make_inputs(spark, wl: Workload, seed: int | None, analogs=None):
    """Generate and lift every dataset; returns (inputs, generate_s)."""
    from repro.er_data.datasets import analog_pandas
    from repro.er_data.generator import to_spark

    analogs = analogs or {}
    out, gen_s = {}, 0.0
    for name in wl.datasets:
        t0 = time.perf_counter()
        if name in analogs:
            ent, gt, task = analogs[name](seed)
        else:
            ent, gt, task = analog_pandas(name, seed=seed)
        t1 = time.perf_counter()
        out[name] = Inputs(to_spark(spark, ent), to_spark(spark, gt), task, len(ent))
        gen_s += t1 - t0
    return out, gen_s


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------
@dataclass
class Op:
    kind: str  # prepare | method (both engines) | sweep
    dataset: str
    label: str
    failed: bool = False
    incorrect: bool = False
    reason: str = ""
    mismatch_pairs: int = 0
    checked: bool = False

    def fail(self, reason: str, *, incorrect: bool = False) -> None:
        self.failed = True
        self.incorrect = self.incorrect or incorrect
        self.reason = "; ".join(r for r in (self.reason, reason) if r)


def pair_digest(id1: np.ndarray, id2: np.ndarray) -> str:
    """Order-free digest of a pair set."""
    pairs = np.stack([np.asarray(id1, np.int64), np.asarray(id2, np.int64)], axis=1)
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    return hashlib.sha256(np.ascontiguousarray(pairs).tobytes()).hexdigest()[:16]


def check_effectiveness(op: Op, eff, n_candidates: int, n_gt: int) -> None:
    """Invariants any engine's result satisfies."""
    if eff.n_matches_total != n_gt:
        op.fail(f"|D|={eff.n_matches_total}, truth has {n_gt}", incorrect=True)
    if not 0 <= eff.n_matches_found <= eff.n_pairs <= n_candidates:
        op.fail(
            f"counts out of range: found={eff.n_matches_found} "
            f"pairs={eff.n_pairs} |C|={n_candidates}",
            incorrect=True,
        )


def check_prepare(op: Op, arts) -> None:
    pdf = arts.features_pdf
    if len(pdf) != arts.n_candidates or arts.n_candidates == 0:
        op.fail(f"|C|={arts.n_candidates} but {len(pdf)} feature rows", incorrect=True)
    if pdf.duplicated(["id1", "id2"]).any():
        op.fail("duplicate candidate pairs", incorrect=True)
    if arts.collection.task == "dirty" and not (pdf["id1"] < pdf["id2"]).all():
        op.fail("dirty pair with id1 >= id2", incorrect=True)
    if arts.block_quality.n_matches_total != len(arts.gt_pdf):
        op.fail("block quality counted against the wrong truth", incorrect=True)


def local_pairs(ctx, arts, algorithm, feature_set, n_train: int, seed: int, r: float):
    """The NumPy engine's retained pairs for one run (check-side replay)."""
    from repro.features.schemes import columns_for

    p = ctx.score(columns_for(feature_set), n_train, seed)
    keep = ctx.prune(p, algorithm, K=arts.cep_K, k=arts.cnp_k, r=r)
    return ctx.id1[keep], ctx.id2[keep]


def replay_spark_pairs(features, arts, algorithm, model, r: float):
    """Spark's retained pairs for one run, scored with the run's model and
    pruned by the same pruner as ``run_method``, collected to pandas."""
    from repro.core.pipeline import _pruner, score_pairs

    return _pruner(algorithm, arts, r)(score_pairs(features, model)).toPandas()


def compare_engines(op: Op, spark_eff, local_eff, spark_pairs=None, local=None) -> None:
    """Fail ``op`` when the engines disagree; pair for pair when pairs are given."""
    op.checked = True
    if spark_pairs is not None:
        s = set(zip(spark_pairs["id1"].tolist(), spark_pairs["id2"].tolist()))
        if len(s) != len(spark_pairs) or len(s) != spark_eff.n_pairs:
            op.fail(
                f"Spark returned {len(spark_pairs)} rows, {len(s)} distinct, "
                f"counted {spark_eff.n_pairs}",
                incorrect=True,
            )
        loc = set(zip(local[0].tolist(), local[1].tolist()))
        op.mismatch_pairs = len(s ^ loc)
        if op.mismatch_pairs:
            op.fail(
                f"{len(s - loc)} pairs only in Spark, {len(loc - s)} only in NumPy"
            )
    if (spark_eff.n_pairs, spark_eff.n_matches_found) != (
        local_eff.n_pairs, local_eff.n_matches_found
    ):
        op.fail(
            f"Spark kept {spark_eff.n_pairs} pairs ({spark_eff.n_matches_found} "
            f"matches), NumPy {local_eff.n_pairs} ({local_eff.n_matches_found})"
        )


# --------------------------------------------------------------------------
# One pass
# --------------------------------------------------------------------------
@dataclass
class Pass:
    ops: list[Op] = field(default_factory=list)
    prepare_s: float = 0.0
    method_rt_s: float = 0.0
    check_s: float = 0.0
    wall_s: float = 0.0
    local_run_s: list[float] = field(default_factory=list)
    quality: list[tuple[float, float]] = field(default_factory=list)  # (recall, f1)
    datasets: dict = field(default_factory=dict)
    runs: list[dict] = field(default_factory=list)
    usage: dict = field(default_factory=dict)  # JIT, GC, CPU and steal s: prepare, all

    @property
    def e2e_s(self) -> float:
        return self.wall_s - self.check_s


def run_pass(spark, wl: Workload, inputs: dict, tracer: Tracer | None = None) -> Pass:
    """One measured pass over the workload; ``tracer`` turns on the spans.

    Each dataset's checks run after its timed work, so that the Spark jobs
    they add cannot overlap it; their time is kept out of ``e2e_s``.
    """
    from repro.core.fast_local import LocalContext
    from repro.core.pipeline import prepare_dataset, resolve_n_train, run_method
    from repro.core.sweep import enumerate_feature_sets
    from repro.features.schemes import columns_for

    tr = tracer or Tracer()  # an unused tracer keeps the code path single
    spark.catalog.clearCache()  # a pass must not hit an earlier pass's cache
    res = Pass()
    n_sweep = (
        len(enumerate_feature_sets()) * len(wl.sweep.algorithms) * len(wl.sweep.seeds)
        if wl.sweep else 0
    )
    pid = jvm_pid(spark)
    jvm0, cpu0 = jvm_counters(spark), cpu_sample(pid)
    prep_jit = prep_gc = 0.0
    prep_cpu = np.zeros(4)
    t_pass = time.perf_counter()
    for name in wl.datasets:
        inp = inputs[name]
        prep = Op("prepare", name, "prepare_dataset")
        res.ops.append(prep)
        try:
            j0, c0 = jvm_counters(spark), cpu_sample(pid)
            t0 = time.perf_counter()
            with tr.span("core.prepare_dataset", spark=True, dataset=name):
                arts = prepare_dataset(spark, name, inp.entities, inp.ground_truth, inp.task)
            res.prepare_s += time.perf_counter() - t0
            j1 = jvm_counters(spark)
            prep_cpu += cpu_sample(pid) - c0
            prep_jit += j1[0] - j0[0]
            prep_gc += j1[1] - j0[1]
            with tr.span("fast_local.context", dataset=name):
                ctx = LocalContext(arts.features_pdf, arts.gt_pdf)
        except Exception:
            prep.fail(traceback.format_exc(limit=3), incorrect=True)
            res.ops += [Op("method", name, "not prepared", True, True, "no dataset")
                        for _ in range(len(wl.specs) + n_sweep)]
            continue

        done = []  # (op, spec, n_train, Spark result, NumPy result, Spark pairs)
        for spec in wl.specs:
            op = Op("method", name, spec.label)
            res.ops.append(op)
            n_train = resolve_n_train(arts, spec.n_train_per_class)
            try:
                with tr.span("core.run_method", spark=True, algo=spec.algorithm,
                             label=spec.label):
                    out = run_method(
                        arts, spec.algorithm, feature_set=spec.feature_set,
                        n_train_per_class=spec.n_train_per_class, seed=METHOD_SEED,
                        blast_r=spec.blast_r,
                    )
                spark_pairs, tr.retained = tr.retained, None
                t0 = time.perf_counter()
                leff = ctx.run(
                    spec.algorithm, columns_for(spec.feature_set),
                    n_train_per_class=n_train, seed=METHOD_SEED,
                    K=arts.cep_K, k=arts.cnp_k, r=spec.blast_r,
                )
                res.local_run_s.append(time.perf_counter() - t0)
            except Exception:
                op.fail(traceback.format_exc(limit=3), incorrect=True)
                continue
            res.method_rt_s += out.runtime_s
            res.quality += [(out.eff.recall, out.eff.f1), (leff.recall, leff.f1)]
            done.append((op, spec, n_train, out, leff, spark_pairs))

        cells = []  # sweep cells that repeat a Spark spec: (op, key, result)
        if wl.sweep is not None:
            sw = wl.sweep
            for _fid, combo in enumerate_feature_sets():
                cols = columns_for(combo)
                for algo in sw.algorithms:
                    for seed in sw.seeds:
                        op = Op("sweep", name, f"{algo}:{'+'.join(combo)}:{seed}")
                        res.ops.append(op)
                        try:
                            t0 = time.perf_counter()
                            eff = ctx.run(
                                algo, cols, n_train_per_class=sw.n_train_per_class,
                                seed=seed, K=arts.cep_K, k=arts.cnp_k,
                            )
                            res.local_run_s.append(time.perf_counter() - t0)
                        except Exception:
                            op.fail(traceback.format_exc(limit=3), incorrect=True)
                            continue
                        res.quality.append((eff.recall, eff.f1))
                        cells.append(
                            (op, (algo, tuple(combo), sw.n_train_per_class, seed), eff)
                        )

        t0 = time.perf_counter()
        with tr.span("check"):
            check_dataset(res, name, arts, ctx, prep, done, cells)
        res.check_s += time.perf_counter() - t0
    res.wall_s = time.perf_counter() - t_pass
    jvm1, cpu = jvm_counters(spark), cpu_sample(pid) - cpu0
    res.usage = {"prepare_jit_s": prep_jit, "prepare_gc_s": prep_gc,
                 "jit_s": jvm1[0] - jvm0[0], "gc_s": jvm1[1] - jvm0[1]}
    for scope, c in (("prepare_", prep_cpu), ("", cpu)):
        res.usage.update({
            f"{scope}py_cpu_s": c[0], f"{scope}jvm_cpu_s": c[1],
            f"{scope}host_busy_s": c[2], f"{scope}steal_s": c[3],
        })
    return res


def check_dataset(res: Pass, name: str, arts, ctx, prep: Op, done: list, cells: list):
    """Check one dataset's outputs: the prepared artefacts, each spec pair
    for pair across the engines, and each sweep cell that repeats a spec
    against the Spark pairs' digest. Without a tracer, Spark's retained
    pairs are replayed from the run's model on a copy of the feature frame
    whose lineage is cut, which plans in a fraction of a second."""
    check_prepare(prep, arts)
    n_gt = len(arts.gt_pdf)
    res.datasets[name] = {
        "candidates": arts.n_candidates,
        "entities": arts.collection.n_entities,
        "blocks": arts.gstats.n_blocks,
        "block_recall": arts.block_quality.recall,
        "gt": n_gt,
    }
    short = None
    spark_ref = {}  # (algorithm, feature set, n_train, seed) -> (result, pair digest)
    for op, spec, n_train, out, leff, spark_pairs in done:
        check_effectiveness(op, out.eff, arts.n_candidates, n_gt)
        check_effectiveness(op, leff, arts.n_candidates, n_gt)
        try:
            if spark_pairs is None:
                if short is None:
                    short = arts.features.localCheckpoint()
                spark_pairs = replay_spark_pairs(short, arts, spec.algorithm, out.model,
                                                 spec.blast_r)
            lpairs = local_pairs(ctx, arts, spec.algorithm, spec.feature_set, n_train,
                                 METHOD_SEED, spec.blast_r)
        except Exception:
            op.fail(traceback.format_exc(limit=3), incorrect=True)
            continue
        compare_engines(op, out.eff, leff, spark_pairs, lpairs)
        key = (spec.algorithm, tuple(spec.feature_set), n_train, METHOD_SEED)
        spark_ref[key] = (out.eff, pair_digest(spark_pairs["id1"], spark_pairs["id2"]))
        res.runs.append({
            "dataset": name, "label": spec.label, "algorithm": spec.algorithm,
            "n_train_per_class": n_train, "rt_s": out.runtime_s,
            "spark": [out.eff.n_pairs, out.eff.n_matches_found],
            "numpy": [leff.n_pairs, leff.n_matches_found],
            "mismatch_pairs": op.mismatch_pairs, "failed": op.failed,
        })
    for op, key, eff in cells:
        check_effectiveness(op, eff, arts.n_candidates, n_gt)
        if key not in spark_ref:
            continue
        ref_eff, ref_digest = spark_ref[key]
        compare_engines(op, ref_eff, eff)
        algo, combo, n_train, seed = key
        if pair_digest(*local_pairs(ctx, arts, algo, combo, n_train, seed, 0.35)) != ref_digest:
            op.fail("sweep pair-set digest differs from Spark's")


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------
def mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else nan


def percentile_ms(xs: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(xs) * 1e3, q)) if xs else nan


def end_to_end(passes: list[Pass], setup_s: float) -> dict[str, float]:
    med = lambda f: statistics.median(f(p) for p in passes)  # noqa: E731
    ops = [o for p in passes for o in p.ops]
    return {
        "setup_s": setup_s,
        "e2e_s": med(lambda p: p.e2e_s),
        "prepare_s": med(lambda p: p.prepare_s),
        "method_rt_s": med(lambda p: p.method_rt_s),
        "sweep_runs_per_s": med(
            lambda p: len(p.local_run_s) / sum(p.local_run_s) if p.local_run_s else nan
        ),
        "py_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "recall_mean": med(lambda p: mean(q[0] for q in p.quality)),
        "f1_mean": med(lambda p: mean(q[1] for q in p.quality)),
        "sweep_run_p50_ms": med(lambda p: percentile_ms(p.local_run_s, 50)),
        "sweep_run_p98_ms": med(lambda p: percentile_ms(p.local_run_s, 98)),
        "ops_attempted": len(ops),
        "ops_failed_frac": mean(o.failed for o in ops),
    }


def subtree(spans: list[dict], root_id: int) -> list[dict]:
    """The span ``root_id`` and all its descendants."""
    kids: dict[int, list[int]] = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s["id"])
    out, frontier = [], [root_id]
    while frontier:
        sid = frontier.pop()
        out.append(spans[sid])
        frontier += kids.get(sid, [])
    return out


def run_splits(spans: list[dict]) -> list[dict]:
    """Each traced ``run_method``: RT split into sample, fit, self (driver
    time outside every child span, which runs no Spark job) and prune+eval
    (scoring, building the pruner's plan, pruning and evaluation), with its
    Spark job and stage counts. Building the plan is driver time too: each
    DataFrame step re-analyses the feature frame's whole lineage."""
    out = []
    for run in spans:
        if run["name"] != "core.run_method":
            continue
        tree = subtree(spans, run["id"])
        part = lambda *names: sum(x["dur_s"] for x in tree if x["name"] in names)  # noqa: E731
        out.append({
            "label": run["attrs"]["label"],
            "algorithm": run["attrs"]["algo"],
            "run_s": run["dur_s"],
            "sample_s": part("classifier.sample"),
            "fit_s": part("classifier.fit"),
            "self_s": run["self_s"],
            "prune_plan_s": part("core.prune_plan"),
            "prune_s": part("core.score", "core.prune_plan", "core.prune",
                            "eval.effectiveness"),
            "valid": sum(x["attrs"].get("valid", 0) for x in tree),
            "jobs": sum(x.get("jobs", 0) for x in tree),
            "stages": sum(x.get("stages", 0) for x in tree),
        })
    return out


def per_layer(
    tracer: Tracer, traced: Pass, untraced: Pass, setup: dict, spark
) -> dict[str, float]:
    spans = tracer.finished()
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def in_check(s):
        while s["parent"] is not None:
            s = spans[s["parent"]]
            if s["name"] == "check":
                return True
        return False

    def total(name, key="dur_s"):
        return float(sum(s[key] for s in by_name.get(name, []) if not in_check(s)))

    def rows(name, attr="rows"):
        return float(sum(s["attrs"].get(attr, 0) for s in by_name.get(name, [])))

    ds = traced.datasets.values()
    candidates = float(sum(d["candidates"] for d in ds))
    pb_rows = rows("blocking.pair_block")
    train_rows = rows("classifier.sample")
    m = {
        "er_data.generate_s": setup["generate_s"],
        "er_data.entities": float(setup["entities"]),
        "blocking.tokenize_s": total("blocking.tokenize"),
        "blocking.purge_s": total("blocking.purge"),
        "blocking.filter_s": total("blocking.filter"),
        "blocking.build_blocks_s": total("blocking.build_blocks", "self_s"),
        "blocking.pair_block_s": total("blocking.pair_block"),
        "blocking.assignments_tokenized": rows("blocking.tokenize"),
        "blocking.assignments_purged": rows("blocking.purge"),
        "blocking.assignments_filtered": rows("blocking.filter"),
        "blocking.blocks": float(sum(d["blocks"] for d in ds)),
        "blocking.pair_block_rows": pb_rows,
        "blocking.candidates": candidates,
        "blocking.redundancy_ratio": candidates / pb_rows if pb_rows else nan,
        "blocking.pc": mean(d["block_recall"] for d in ds),
        "features.plan_s": total("features.compute", "self_s"),
        "features.materialise_s": total("features.materialise"),
        "features.rows": rows("features.materialise"),
        "core.collect_s": total("core.prepare_dataset", "self_s"),
        "core.collect_rows": candidates,
        "classifier.sample_s": total("classifier.sample"),
        "classifier.train_rows": train_rows,
        "classifier.train_pos_frac": rows("classifier.sample", "pos") / train_rows
        if train_rows else nan,
        "classifier.fit_s": total("classifier.fit"),
    }
    splits = run_splits(spans)
    for algo in ALGORITHMS:
        sp = [x for x in splits if x["algorithm"] == algo]
        rt = [r for r in traced.runs if r["algorithm"] == algo]
        kept = sum(r["spark"][0] for r in rt)
        m[f"core.rt_s.{algo}"] = float(sum(r["rt_s"] for r in rt))
        for key in ("sample_s", "fit_s", "prune_s", "prune_plan_s", "self_s"):
            m[f"core.{key}.{algo}"] = float(sum(x[key] for x in sp))
        m[f"core.valid_pairs.{algo}"] = float(sum(x["valid"] for x in sp))
        m[f"core.retained_pairs.{algo}"] = float(kept)
        m[f"core.retained_precision.{algo}"] = (
            sum(r["spark"][1] for r in rt) / kept if kept else 0.0
        )
        m[f"core.spark_jobs.{algo}"] = float(sum(x["jobs"] for x in sp))
        m[f"core.spark_stages.{algo}"] = float(sum(x["stages"] for x in sp))
    m.update({
        "spark.session_s": setup["session_s"],
        "spark.first_job_s": setup["first_job_s"],
        "spark.noop_job_ms": setup["noop_job_ms"],
        "spark.jobs": float(sum(s.get("jobs", 0) for s in spans)),
        "spark.stages": float(sum(s.get("stages", 0) for s in spans)),
        "spark.tasks": float(sum(s.get("tasks", 0) for s in spans)),
        "spark.jvm_peak_rss_mb": jvm_peak_rss_mb(spark),  # of the traced JVM
        "fast_local.context_s": total("fast_local.context"),
        "fast_local.score_s": total("fast_local.score"),
        "fast_local.prune_s": total("fast_local.prune"),
        "sweep.runs": float(len(traced.local_run_s)),
        "check.ops_checked": float(sum(o.checked for o in traced.ops)),
        "check.engine_mismatch_pairs": float(sum(o.mismatch_pairs for o in traced.ops)),
        "trace.overhead_s": traced.e2e_s - untraced.e2e_s,
    })
    return m


def account(spans: list[dict], traced: Pass, untraced: Pass) -> dict:
    """Where the traced prepare and RT went, against the untraced pass.

    Self times within a subtree sum to its root's duration, so the layer
    lines account for the traced totals exactly; the traced-minus-untraced
    gap of each is the share of ``trace.overhead_s`` it carries.
    """
    layers: dict[str, float] = {}
    roots = {s["id"] for s in spans if s["name"] in ("core.prepare_dataset",
                                                     "core.run_method")}
    for s in spans:
        root = s
        while root["parent"] is not None and root["id"] not in roots:
            root = spans[root["parent"]]
        if root["id"] in roots:
            key = f"{root['name']}/{s['name']}"
            layers[key] = layers.get(key, 0.0) + s["self_s"]
    return {
        "prepare_traced_s": traced.prepare_s,
        "prepare_untraced_s": untraced.prepare_s,
        "rt_traced_s": traced.method_rt_s,
        "rt_untraced_s": untraced.method_rt_s,
        "layer_self_s": layers,
    }


PER_LAYER_UNITS_SUFFIX = (
    ("_s", "s"), ("_ms", "ms"), ("_mb", "MB"), ("_frac", "ratio"),
    ("_ratio", "ratio"), (".pc", "ratio"),
)


def layer_unit(name: str) -> str:
    base = name.rsplit(".", 1)[0] if name.split(".")[-1] in ALGORITHMS else name
    if ".retained_precision" in base:
        return "ratio"
    for suffix, unit in PER_LAYER_UNITS_SUFFIX:
        if base.endswith(suffix):
            return unit
    return "count"


# --------------------------------------------------------------------------
# Run
# --------------------------------------------------------------------------
def run_record(wl: Workload, seed, trace: bool, spark, root: Path) -> dict:
    import pandas
    import pyspark

    from repro.er_data.datasets import CLEAN_CLEAN_ANALOGS, SCALABILITY_ANALOGS

    conf = spark.sparkContext.getConf()
    src = hashlib.sha256()
    for f in sorted((root / "src").rglob("*.py")):
        src.update(f.relative_to(root).as_posix().encode() + b"\0" + f.read_bytes())
    analogs = {**CLEAN_CLEAN_ANALOGS, **SCALABILITY_ANALOGS}
    return {
        "workload": wl.name,
        "datasets": list(wl.datasets),
        "seed": {n: seed if seed is not None else analogs[n].seed for n in wl.datasets
                 if n in analogs},
        "method_seed": METHOD_SEED,
        "trace": trace,
        "host_cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "master": spark.sparkContext.master,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "driver_memory": conf.get("spark.driver.memory"),
        "driver_memory_source": "perfbench/bench.py DRIVER_MEMORY "
                                "(passed as --driver-memory)",
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "aqe": spark.conf.get("spark.sql.adaptive.enabled"),
        "spark": pyspark.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pandas": pandas.__version__,
        "git_sha": _git_sha(root),
        "src_sha256": src.hexdigest(),
    }


def _git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None  # not a git checkout; src_sha256 identifies the code


def set_up(wl: Workload, seed: int | None, work: Path, analogs=None):
    """Start Spark, run the warm-up job, generate and lift the inputs.

    Generate + lift repeats ``SETUP_REPS`` times and counts with its median;
    the JVM start and its first job happen once per process and count once.
    """
    t0 = time.perf_counter()
    spark = start_session(work)
    session_s = time.perf_counter() - t0
    try:
        t0 = time.perf_counter()
        warm_up_job(spark)
        first_job_s = time.perf_counter() - t0
        reps = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            inputs, gen_s = make_inputs(spark, wl, seed, analogs)
            reps.append((time.perf_counter() - t0, gen_s))
    except BaseException:
        stop_session(spark)
        raise
    inputs_s = statistics.median(r[0] for r in reps)
    setup = {
        "session_s": session_s,
        "first_job_s": first_job_s,
        "inputs_s": inputs_s,
        "generate_s": statistics.median(r[1] for r in reps),
        "entities": sum(i.n_entities for i in inputs.values()),
        "setup_s": session_s + first_job_s + inputs_s,
    }
    spark.sparkContext.setJobGroup(NO_GROUP, "")
    return spark, inputs, setup


def run(
    workload: str, seed: int | None, seconds: float, trace: bool, root: Path,
    *, work: Path, analogs=None, wl_override: Workload | None = None,
) -> dict:
    """Set up, measure and check one workload; returns the full run record.

    Without ``trace``, passes repeat until ``seconds`` are measured. With it,
    one untraced pass runs, then the JVM is restarted and one traced pass
    runs, so both passes start from a cold JVM and their difference is the
    tracing cost rather than the JVM's warm-up.
    """
    wl = wl_override or workloads()[workload]
    spark, inputs, setup = set_up(wl, seed, work, analogs)
    passes: list[Pass] = []
    layer = spans_out = accounting = None
    try:
        if trace:
            untraced = run_pass(spark, wl, inputs)
            passes.append(untraced)
            stop_session(spark)
            spark, inputs, _ = set_up(wl, seed, work, analogs)
            noop = []
            for _ in range(NOOP_JOBS):
                t0 = time.perf_counter()
                spark.sparkContext.parallelize([0], 1).count()
                noop.append(time.perf_counter() - t0)
            tracer = Tracer(spark.sparkContext)
            with traced_program(tracer):
                traced = run_pass(spark, wl, inputs, tracer)
            passes.append(traced)
            tracer.release()
            tracer.collect_spark_counts()
            setup["noop_job_ms"] = statistics.median(noop) * 1e3
            layer = per_layer(tracer, traced, untraced, setup, spark)
            spans_out = tracer.finished()
            accounting = account(spans_out, traced, untraced)
            e2e = end_to_end([untraced], setup["setup_s"])
        else:
            measured = 0.0
            while not passes or measured < seconds:
                passes.append(run_pass(spark, wl, inputs))
                measured += passes[-1].wall_s
            e2e = end_to_end(passes, setup["setup_s"])
        record = run_record(wl, seed, trace, spark, root)
    finally:
        stop_session(spark)

    ops = [o for p in passes for o in p.ops]
    record.update({
        "setup": setup,
        "passes": len(passes),
        "datasets_measured": passes[-1].datasets,
        "runs": passes[-1].runs,
        "local_runs": len(passes[-1].local_run_s),
        "pass_times": [
            {"prepare_s": p.prepare_s, "method_rt_s": p.method_rt_s, "e2e_s": p.e2e_s,
             "check_s": p.check_s, **p.usage}
            for p in passes
        ],
        "end_to_end": e2e,
        "per_layer": layer,
        "attempted": len(ops),
        "failed": sum(o.failed for o in ops),
        "correct": not any(o.incorrect for o in ops),
        "failures": [
            {"kind": o.kind, "dataset": o.dataset, "label": o.label, "reason": o.reason}
            for o in ops if o.failed
        ][:50],
        "account": accounting,
        "spans": spans_out,
    })
    return record


def report(record: dict, out=sys.stdout) -> dict:
    """Print every metric by name and unit; return the contract's JSON result."""
    print(f"perfbench workload={record['workload']} seed={record['seed']} "
          f"trace={int(record['trace'])} passes={record['passes']} "
          f"master={record['master']} driver_memory={record['driver_memory']}", file=out)
    for name, d in record["datasets_measured"].items():
        print(f"dataset {name}: |C|={d['candidates']} entities={d['entities']} "
              f"blocks={d['blocks']} |D|={d['gt']}", file=out)
    for r in record["runs"]:
        print(f"run {r['dataset']} {r['label']}: rt={r['rt_s']:.3f} s "
              f"spark={r['spark']} numpy={r['numpy']} "
              f"{'FAILED' if r['failed'] else 'ok'}", file=out)
    for f in record["failures"][:10]:
        print(f"failed {f['kind']} {f['dataset']} {f['label']}: "
              f"{f['reason'].strip().splitlines()[-1]}", file=out)
    for i, pt in enumerate(record["pass_times"]):
        print(f"pass {i}: prepare_s={pt['prepare_s']:.3f} s (CPU: Python "
              f"{pt['prepare_py_cpu_s']:.1f} s, JVM {pt['prepare_jvm_cpu_s']:.1f} s, "
              f"host {pt['prepare_host_busy_s']:.1f} s, steal {pt['prepare_steal_s']:.2f} s; "
              f"JIT {pt['prepare_jit_s']:.1f} s, GC {pt['prepare_gc_s']:.2f} s) "
              f"method_rt_s={pt['method_rt_s']:.3f} s e2e_s={pt['e2e_s']:.3f} s "
              f"check_s={pt['check_s']:.3f} s (CPU: "
              f"Python {pt['py_cpu_s']:.1f} s, JVM {pt['jvm_cpu_s']:.1f} s, host "
              f"{pt['host_busy_s']:.1f} s, steal {pt['steal_s']:.2f} s)", file=out)
    e2e = record["end_to_end"]
    for name, unit in {**END_TO_END_UNITS, **INFO_UNITS}.items():
        extra = f" (n={record['local_runs']})" if name.startswith("sweep_run") else ""
        print(f"metric {name} = {e2e[name]:.6g} {unit}{extra}", file=out)
    if record["per_layer"]:
        for name, v in record["per_layer"].items():
            print(f"layer {name} = {v:.6g} {layer_unit(name)}", file=out)
        _print_split(record, out)
        a = record["account"]
        for key, v in a["layer_self_s"].items():
            print(f"self {key} = {v:.3f} s", file=out)
        print(f"account: prepare traced {a['prepare_traced_s']:.3f} s vs untraced "
              f"{a['prepare_untraced_s']:.3f} s; RT traced {a['rt_traced_s']:.3f} s vs "
              f"untraced {a['rt_untraced_s']:.3f} s; trace.overhead_s "
              f"{record['per_layer']['trace.overhead_s']:.3f} s", file=out)
    if record["trace"]:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in record["per_layer"].items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def _print_split(record: dict, out) -> None:
    for x in run_splits(record["spans"]):
        print(
            f"split {x['label']}: run={x['run_s']:.3f} s sample={x['sample_s']:.3f} s "
            f"fit={x['fit_s']:.3f} s self={x['self_s']:.3f} s "
            f"prune+eval={x['prune_s']:.3f} s (of which plan {x['prune_plan_s']:.3f} s) "
            f"jobs={x['jobs']} stages={x['stages']}",
            file=out,
        )
