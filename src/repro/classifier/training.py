"""Balanced training-set sampling (undersampling, paper Sections 1.1/5.1).

Positives are candidate pairs present in the ground truth; negatives are the
rest. ``sample_balanced`` draws ``n_per_class`` of each, deterministically in
``seed``: candidates are ordered by ``(id1, id2)`` and shuffled by a seeded
NumPy permutation (``canonical_order`` skips the sort when the frame is
already in that order, as ``prepare_dataset`` stores it). The sampler is
pure pandas/NumPy and is shared verbatim by the Spark pipeline (which
collects the feature frame once per dataset) and the local sweep engine, so
the two engines train on *identical* labelled sets.
"""
from __future__ import annotations

import numpy as np
import pandas as pd


def match_mask(pairs: pd.DataFrame, gt: pd.DataFrame) -> np.ndarray:
    """Boolean mask: is each (id1, id2) row of ``pairs`` in the truth?"""
    key = pd.MultiIndex.from_frame(gt[["id1", "id2"]])
    return pd.MultiIndex.from_frame(pairs[["id1", "id2"]]).isin(key)


def canonical_order(features: pd.DataFrame) -> pd.DataFrame:
    """``features`` in stable ``(id1, id2)`` order; returned as is when it
    already is (one O(n) check instead of an O(n log n) sort)."""
    id1 = features["id1"].to_numpy()
    id2 = features["id2"].to_numpy()
    d1 = np.diff(id1)
    if ((d1 > 0) | ((d1 == 0) & (np.diff(id2) >= 0))).all():
        return features
    return features.sort_values(["id1", "id2"], kind="mergesort").reset_index(
        drop=True
    )


def sample_balanced(
    features: pd.DataFrame,
    gt: pd.DataFrame,
    cols: list[str],
    *,
    n_per_class: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced labelled sample ``(X, y)`` over ``cols``.

    If a class has fewer than ``n_per_class`` members, all are taken (the
    paper's smallest datasets behave the same way under its 5% rule).
    """
    ordered = canonical_order(features)
    is_pos = match_mask(ordered, gt)
    g = np.random.default_rng(seed)
    pos_idx = np.flatnonzero(is_pos)
    neg_idx = np.flatnonzero(~is_pos)
    pos_take = pos_idx[g.permutation(len(pos_idx))[: int(n_per_class)]]
    neg_take = neg_idx[g.permutation(len(neg_idx))[: int(n_per_class)]]
    take = np.concatenate([pos_take, neg_take])
    X = ordered.iloc[take][cols].to_numpy(dtype=np.float64)
    y = np.concatenate(
        [np.ones(len(pos_take)), np.zeros(len(neg_take))]
    )
    return X, y
