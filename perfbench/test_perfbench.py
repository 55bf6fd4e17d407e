"""Self-tests of the benchmark on tiny analogs.

Run from the repository root:

    python -m pytest perfbench -q -p no:cacheprovider

Each test drives ``bench.run`` end to end, with its own Spark JVMs, on an
analog of a few dozen entities, so it exercises the same code path as a
benchmark run.
"""
import io
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench  # noqa: E402
from repro.core.pipeline import FEATURES_21, FEATURES_BLAST  # noqa: E402
from repro.er_data.generator import ERConfig, clean_clean, dirty  # noqa: E402
from repro.eval.harness import MethodSpec  # noqa: E402

SPECS = (
    MethodSpec("BLAST", "BLAST", FEATURES_BLAST, 5),
    MethodSpec("BCl", "BCl", FEATURES_21, -1),
)


def tiny(task: str, seed):
    cfg = ERConfig(n_matches=40, n_only1=10, n_only2=10, vocab_size=300,
                   seed=7 if seed is None else seed)
    ent, gt = (clean_clean if task == "clean" else dirty)(cfg)
    return ent, gt, task


def run_tiny(tmp_path, task: str, sweep=None) -> dict:
    wl = bench.Workload(f"tiny-{task}", ("tiny",), SPECS, sweep)
    return bench.run(
        wl.name, None, 0.0, True, ROOT, work=tmp_path,
        analogs={"tiny": lambda seed: tiny(task, seed)}, wl_override=wl,
    )


def test_every_metric_is_printed_with_its_unit(tmp_path):
    record = run_tiny(tmp_path, "clean", bench.Sweep(("BLAST",), 5, (1,)))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert record["correct"] and record["failed"] == 0

    # The traced record: every per-layer metric, and the end-to-end metrics
    # of its untraced pass, each on a line with its unit.
    out = io.StringIO()
    traced = bench.report(record, out)
    text = out.getvalue()
    for m in spec["end_to_end"]:
        assert re.search(rf"^metric {re.escape(m['name'])} = \S+ {re.escape(m['unit'])}\b",
                         text, re.M), m["name"]
    for name, unit in bench.INFO_UNITS.items():
        assert re.search(rf"^metric {re.escape(name)} = \S+ {re.escape(unit)}\b", text, re.M)
    for m in spec["per_layer"]:
        assert re.search(rf"^layer {re.escape(m['name'])} = \S+ {re.escape(m['unit'])}$",
                         text, re.M), m["name"]
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }

    # The untraced JSON result carries exactly the end-to-end metrics.
    untraced = bench.report({**record, "trace": False, "per_layer": None}, io.StringIO())
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert all(v["value"] > 0 for v in untraced["metrics"].values())
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}


def test_a_dropped_retained_pair_fails_the_operation(tmp_path, monkeypatch):
    import repro.core.pipeline as pipeline

    real = pipeline._pruner

    def dropping_one_bcl_pair(algorithm, arts, blast_r):
        prune = real(algorithm, arts, blast_r)
        if algorithm != "BCl":
            return prune

        def pruned(scored):
            kept = prune(scored)
            first = kept.orderBy("id1", "id2").limit(1)
            return kept.join(first, ["id1", "id2"], "left_anti")

        return pruned

    monkeypatch.setattr(pipeline, "_pruner", dropping_one_bcl_pair)
    record = run_tiny(tmp_path, "dirty")
    assert {f["label"] for f in record["failures"]} == {"BCl"}
    assert record["failed"] == 2  # one per pass: counts, then pairs
    assert record["correct"]  # the output is self-consistent, only wrong
    (bcl,) = [r for r in record["runs"] if r["label"] == "BCl"]
    assert bcl["failed"] and bcl["mismatch_pairs"] == 1
    assert bcl["spark"][0] == bcl["numpy"][0] - 1
    assert record["per_layer"]["check.engine_mismatch_pairs"] == 1


def test_benchmark_json_names_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench.workloads()) == {w["name"] for w in spec["workloads"]}
