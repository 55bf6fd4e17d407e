"""Vectorised NumPy engine for the brute-force sweeps.

``run_method_local`` (core.local_engine) is the readable pandas reference;
this module is the O(sort) NumPy equivalent used by the 255-combination
sweeps and the figure-section grids, where thousands of train/score/prune
runs hit feature frames of up to ~10M pairs. ``LocalContext`` factorises the
pair endpoints and the ground-truth membership once per dataset; each run is
then a matrix multiply plus a few sorts/scatter-adds.

Equivalence with both the pandas engine and the Spark pipeline is asserted
in tests/test_fast_local.py — same sampler, same classifier, same pruning
semantics and tie-breaking.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.classifier.logistic import fit_logistic
from repro.classifier.training import canonical_order
from repro.eval.metrics import Effectiveness


def _group_cumcount(codes: np.ndarray) -> np.ndarray:
    """Occurrence index of each element within its group, preserving input
    order (NumPy twin of pandas ``groupby(...).cumcount()``)."""
    idx = np.argsort(codes, kind="stable")
    sorted_codes = codes[idx]
    n = len(codes)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.r_[0, np.flatnonzero(np.diff(sorted_codes)) + 1]
    sizes = np.diff(np.r_[starts, n])
    within = np.arange(n) - np.repeat(starts, sizes)
    out = np.empty(n, dtype=np.int64)
    out[idx] = within
    return out


class LocalContext:
    """Per-dataset precomputation for fast sweep runs."""

    def __init__(self, features: pd.DataFrame, gt: pd.DataFrame):
        # The canonical (id1, id2) order the shared sampler
        # (classifier.training.sample_balanced) uses.
        f = canonical_order(features)
        self.id1 = f["id1"].to_numpy()
        self.id2 = f["id2"].to_numpy()
        ids = np.concatenate([self.id1, self.id2])
        uniq, codes = np.unique(ids, return_inverse=True)
        self.n_entities = len(uniq)
        n = len(f)
        self.c1 = codes[:n]
        self.c2 = codes[n:]
        self.columns = [c for c in f.columns if c not in ("id1", "id2")]
        self.X = f[self.columns].to_numpy(dtype=np.float64)
        key = pd.MultiIndex.from_frame(gt[["id1", "id2"]])
        self.is_match = pd.MultiIndex.from_frame(f[["id1", "id2"]]).isin(key)
        self.n_gt = len(gt)

    # -- training ----------------------------------------------------------
    def sample(self, cols: list[str], n_per_class: int, seed: int):
        """Identical semantics to ``sample_balanced`` on the same frame."""
        g = np.random.default_rng(seed)
        pos_idx = np.flatnonzero(self.is_match)
        neg_idx = np.flatnonzero(~self.is_match)
        pos_take = pos_idx[g.permutation(len(pos_idx))[: int(n_per_class)]]
        neg_take = neg_idx[g.permutation(len(neg_idx))[: int(n_per_class)]]
        take = np.concatenate([pos_take, neg_take])
        ci = [self.columns.index(c) for c in cols]
        X = self.X[np.ix_(take, ci)]
        y = np.concatenate([np.ones(len(pos_take)), np.zeros(len(neg_take))])
        return X, y

    # -- scoring -----------------------------------------------------------
    def score(self, cols: list[str], n_per_class: int, seed: int) -> np.ndarray:
        X, y = self.sample(cols, n_per_class, seed)
        model = fit_logistic(X, y, cols)
        ci = [self.columns.index(c) for c in cols]
        return model.predict_proba(self.X[:, ci])

    # -- pruning -----------------------------------------------------------
    def prune(
        self, p: np.ndarray, algorithm: str, *, K: int = 0, k: int = 1,
        r: float = 0.35,
    ) -> np.ndarray:
        """Boolean retained-mask over the context's (sorted) pair order."""
        valid = p >= 0.5
        if algorithm == "BCl":
            return valid
        if algorithm == "WEP":
            if not valid.any():
                return valid
            return valid & (p >= p[valid].mean())
        if algorithm in ("WNP", "RWNP"):
            sums = np.zeros(self.n_entities)
            cnts = np.zeros(self.n_entities)
            np.add.at(sums, self.c1[valid], p[valid])
            np.add.at(cnts, self.c1[valid], 1.0)
            np.add.at(sums, self.c2[valid], p[valid])
            np.add.at(cnts, self.c2[valid], 1.0)
            means = np.divide(sums, cnts, out=np.zeros_like(sums), where=cnts > 0)
            b1 = p >= means[self.c1]
            b2 = p >= means[self.c2]
            comb = (b1 & b2) if algorithm == "RWNP" else (b1 | b2)
            return valid & comb
        if algorithm == "BLAST":
            mx = np.zeros(self.n_entities)
            np.maximum.at(mx, self.c1[valid], p[valid])
            np.maximum.at(mx, self.c2[valid], p[valid])
            return valid & (p >= r * (mx[self.c1] + mx[self.c2]))
        if algorithm == "CEP":
            vi = np.flatnonzero(valid)
            if len(vi) <= K:
                return valid
            order = np.lexsort((self.id2[vi], self.id1[vi], -p[vi]))
            keep = np.zeros_like(valid)
            keep[vi[order[: int(K)]]] = True
            return keep
        if algorithm in ("CNP", "RCNP"):
            vi = np.flatnonzero(valid)
            order = np.lexsort((self.id2[vi], self.id1[vi], -p[vi]))
            ranked = vi[order]  # pair indices in global quality order
            in1 = _group_cumcount(self.c1[ranked]) < int(k)
            in2 = _group_cumcount(self.c2[ranked]) < int(k)
            comb = (in1 & in2) if algorithm == "RCNP" else (in1 | in2)
            keep = np.zeros_like(valid)
            keep[ranked[comb]] = True
            return keep
        raise ValueError(f"unknown algorithm {algorithm!r}")

    # -- end to end --------------------------------------------------------
    def run(
        self,
        algorithm: str,
        cols: list[str],
        *,
        n_train_per_class: int,
        seed: int,
        K: int = 0,
        k: int = 1,
        r: float = 0.35,
    ) -> Effectiveness:
        p = self.score(cols, n_train_per_class, seed)
        keep = self.prune(p, algorithm, K=K, k=k, r=r)
        return Effectiveness(
            n_pairs=int(keep.sum()),
            n_matches_found=int((keep & self.is_match).sum()),
            n_matches_total=self.n_gt,
        )
