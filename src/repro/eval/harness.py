"""Experiment harness: run (dataset x method x seed) grids and summarise.

The Spark-engine tables of ``repro.eval.tables`` (5, 7 and Section 5.5) are
grids of runs over prepared datasets: ``evaluate_grid`` repeats each method
over several seeds (the paper averages 10 runs; the tables use 2-3, noted in
EXPERIMENTS.md) on artifacts that are shared across methods, and
``summarize`` averages the seeds. ``to_markdown`` renders any table (no
external tabulate dependency).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import pandas as pd

from repro.core.pipeline import DatasetArtifacts, run_method


@dataclass(frozen=True)
class MethodSpec:
    """One labelled method configuration (algorithm + features + training).

    ``n_train_per_class < 0`` selects the [21] rule: 5% of the positive
    class, balanced (the BCl2/CNP2 baselines).
    """

    label: str
    algorithm: str
    feature_set: tuple[str, ...]
    n_train_per_class: int
    blast_r: float = 0.35


def evaluate_grid(
    artifacts: dict[str, DatasetArtifacts],
    specs: Iterable[MethodSpec],
    seeds: Iterable[int],
) -> pd.DataFrame:
    """Run every (dataset, method, seed) cell; one tidy row each."""
    rows = []
    for name, arts in artifacts.items():
        for spec in specs:
            for seed in seeds:
                res = run_method(
                    arts,
                    spec.algorithm,
                    feature_set=spec.feature_set,
                    n_train_per_class=spec.n_train_per_class,
                    seed=seed,
                    blast_r=spec.blast_r,
                )
                rows.append(
                    {
                        "dataset": name,
                        "method": spec.label,
                        "seed": seed,
                        "n_candidates": arts.n_candidates,
                        "recall": res.eff.recall,
                        "precision": res.eff.precision,
                        "f1": res.eff.f1,
                        "rt_s": res.runtime_s,
                    }
                )
    return pd.DataFrame(rows)


def summarize(grid: pd.DataFrame) -> pd.DataFrame:
    """Mean over seeds per (dataset, method), preserving run order."""
    return (
        grid.groupby(["dataset", "method"], sort=False, as_index=False)
        .agg(
            n_candidates=("n_candidates", "first"),
            recall=("recall", "mean"),
            precision=("precision", "mean"),
            f1=("f1", "mean"),
            rt_s=("rt_s", "mean"),
        )
    )


def to_markdown(df: pd.DataFrame, *, floatfmt: str = "%.4f") -> str:
    """Small GFM table renderer (tabulate is not installed offline)."""
    cols = list(df.columns)
    def fmt(v):
        if isinstance(v, float):
            return floatfmt % v
        return str(v)
    lines = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    # Column-wise iteration: .iterrows() would upcast mixed-dtype rows and
    # render integers as floats.
    for vals in zip(*[df[c].tolist() for c in cols]):
        lines.append("| " + " | ".join(fmt(v) for v in vals) + " |")
    return "\n".join(lines)
