"""Pandas mirror of the scoring + pruning pipeline.

The 255-combination feature sweep (paper Section 5.3) runs each algorithm
9 datasets x 255 subsets x several seeds — far too many tiny Spark jobs to
launch profitably. Features are therefore computed *once* per dataset in
Spark, collected, and the sweep runs on this NumPy/pandas mirror whose
semantics are equivalence-tested against the Spark engine
(tests/test_pipeline.py, tests/test_pruning.py). Production scoring/pruning stays in
Spark; this module exists only to make the brute-force sweep tractable.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.classifier.logistic import LogisticModel, fit_logistic
from repro.classifier.training import match_mask, sample_balanced
from repro.eval.metrics import Effectiveness


def score_local(features: pd.DataFrame, model: LogisticModel) -> pd.DataFrame:
    """``(id1, id2, p)`` with p from the fitted model."""
    X = features[list(model.columns)].to_numpy(dtype=np.float64)
    return pd.DataFrame(
        {"id1": features["id1"], "id2": features["id2"], "p": model.predict_proba(X)}
    )


def _endpoint_series(valid: pd.DataFrame) -> pd.DataFrame:
    """Explode valid pairs into (entity_id, p) endpoint rows."""
    return pd.concat(
        [
            valid[["id1", "p"]].rename(columns={"id1": "entity_id"}),
            valid[["id2", "p"]].rename(columns={"id2": "entity_id"}),
        ],
        ignore_index=True,
    )


def prune_local(
    scored: pd.DataFrame,
    algorithm: str,
    *,
    K: int = 0,
    k: int = 1,
    r: float = 0.35,
) -> pd.DataFrame:
    """Pandas implementation of every pruning algorithm (same semantics and
    tie-breaking as the Spark versions)."""
    valid = scored[scored["p"] >= 0.5]
    if algorithm == "BCl":
        return valid[["id1", "id2"]]
    if algorithm == "WEP":
        if valid.empty:
            return valid[["id1", "id2"]]
        return valid[valid["p"] >= valid["p"].mean()][["id1", "id2"]]
    if algorithm in ("WNP", "RWNP"):
        means = _endpoint_series(valid).groupby("entity_id")["p"].mean()
        t1 = valid["id1"].map(means).to_numpy()
        t2 = valid["id2"].map(means).to_numpy()
        p = valid["p"].to_numpy()
        keep = (p >= t1) & (p >= t2) if algorithm == "RWNP" else (p >= t1) | (p >= t2)
        return valid[keep][["id1", "id2"]]
    if algorithm == "BLAST":
        mx = _endpoint_series(valid).groupby("entity_id")["p"].max()
        m1 = valid["id1"].map(mx).to_numpy()
        m2 = valid["id2"].map(mx).to_numpy()
        return valid[valid["p"].to_numpy() >= r * (m1 + m2)][["id1", "id2"]]
    if algorithm == "CEP":
        ordered = valid.sort_values(
            ["p", "id1", "id2"], ascending=[False, True, True]
        )
        return ordered.head(int(K))[["id1", "id2"]]
    if algorithm in ("CNP", "RCNP"):
        ordered = valid.sort_values(
            ["p", "id1", "id2"], ascending=[False, True, True]
        ).reset_index(drop=True)
        pair_rows = ordered.index.to_numpy()
        in_top: list[set[int]] = [set(), set()]
        for side, col in enumerate(["id1", "id2"]):
            ranks = ordered.groupby(col).cumcount()
            in_top[side] = set(pair_rows[(ranks < int(k)).to_numpy()])
        keep1 = ordered.index.isin(in_top[0])
        keep2 = ordered.index.isin(in_top[1])
        keep = (keep1 & keep2) if algorithm == "RCNP" else (keep1 | keep2)
        return ordered[keep][["id1", "id2"]]
    raise ValueError(f"unknown algorithm {algorithm!r}")


def effectiveness_local(pairs: pd.DataFrame, gt: pd.DataFrame) -> Effectiveness:
    """Pandas twin of ``eval.metrics.effectiveness``."""
    found = int(match_mask(pairs, gt).sum())
    return Effectiveness(
        n_pairs=len(pairs), n_matches_found=found, n_matches_total=len(gt)
    )


def run_method_local(
    features: pd.DataFrame,
    gt: pd.DataFrame,
    algorithm: str,
    cols: list[str],
    *,
    n_train_per_class: int,
    seed: int,
    K: int = 0,
    k: int = 1,
    r: float = 0.35,
) -> Effectiveness:
    """Full train->score->prune->evaluate on the local engine."""
    X, y = sample_balanced(
        features, gt, cols, n_per_class=n_train_per_class, seed=seed
    )
    model = fit_logistic(X, y, cols)
    scored = score_local(features, model)
    retained = prune_local(scored, algorithm, K=K, k=k, r=r)
    return effectiveness_local(retained, gt)
