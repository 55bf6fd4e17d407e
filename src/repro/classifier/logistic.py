"""Deterministic L2-regularised logistic regression (Newton/IRLS).

Features are standardised internally (stored mean/std) for numerical
stability; the learned model exposes both the standardised coefficients and
the equivalent raw-space ``coef``/``intercept`` (what paper Table 6 prints).
``as_spark_probability`` compiles ``sigmoid(w.x + b)`` into a native Spark
Column so applying the model to millions of pairs is pure Catalyst — no UDF.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import Column
from pyspark.sql import functions as F


@dataclass(frozen=True)
class LogisticModel:
    """A fitted binary logistic-regression model over named feature columns."""

    columns: tuple[str, ...]
    coef: np.ndarray  # raw-space coefficients, one per column
    intercept: float

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """P(match) for a (n, d) raw-feature matrix."""
        z = X @ self.coef + self.intercept
        return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))

    def as_spark_probability(self) -> Column:
        """``sigmoid(w.x + b)`` as a Spark Column over ``self.columns``."""
        z = F.lit(float(self.intercept))
        for c, w in zip(self.columns, self.coef):
            z = z + F.col(c) * F.lit(float(w))
        return F.lit(1.0) / (F.lit(1.0) + F.exp(-z))


def fit_logistic(
    X: np.ndarray,
    y: np.ndarray,
    columns: list[str] | tuple[str, ...],
    *,
    l2: float = 1e-4,
    max_iter: int = 100,
    tol: float = 1e-10,
) -> LogisticModel:
    """Fit by Newton/IRLS on standardised features; returns raw-space model.

    ``l2`` regularises the standardised weights (not the intercept), which
    both guarantees a unique optimum on separable tiny training sets and
    mirrors sklearn's default-regularised behaviour. A sample holding only
    one class raises ``ValueError``.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError(f"bad shapes X={X.shape} y={y.shape}")
    if X.shape[1] != len(columns):
        raise ValueError("columns must name every feature dimension")
    classes = np.unique(y)
    if len(classes) < 2:
        # One class has no decision boundary: the fit would be a constant
        # model that keeps every pair or none.
        raise ValueError(
            f"training sample needs both classes, got labels {classes.tolist()}"
        )
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)  # constant column -> no signal
    Z = (X - mu) / sd

    n, d = Z.shape
    Zb = np.concatenate([Z, np.ones((n, 1))], axis=1)
    w = np.zeros(d + 1)
    reg = np.full(d + 1, l2)
    reg[-1] = 0.0  # never regularise the intercept
    for _ in range(max_iter):
        z = np.clip(Zb @ w, -500, 500)
        p = 1.0 / (1.0 + np.exp(-z))
        g = Zb.T @ (p - y) + reg * w
        s = np.maximum(p * (1 - p), 1e-10)
        H = (Zb * s[:, None]).T @ Zb + np.diag(reg)
        step = np.linalg.solve(H, g)
        w = w - step
        if np.max(np.abs(step)) < tol:
            break
    # Undo standardisation: w_raw = w_std / sd ; b_raw = b - sum(w_std*mu/sd).
    coef = w[:d] / sd
    intercept = float(w[d] - np.sum(w[:d] * mu / sd))
    return LogisticModel(columns=tuple(columns), coef=coef, intercept=intercept)
