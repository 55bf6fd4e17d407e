"""Tests for the NumPy IRLS logistic regression (the sklearn/Weka stand-in)."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.classifier.logistic import LogisticModel, fit_logistic


def _separable(n=40, seed=0):
    g = np.random.default_rng(seed)
    X = np.concatenate([g.normal(-2, 0.5, (n, 1)), g.normal(2, 0.5, (n, 1))])
    y = np.concatenate([np.zeros(n), np.ones(n)])
    return X, y


class TestFit:
    def test_separable_data_classified_correctly(self):
        X, y = _separable()
        m = fit_logistic(X, y, ["x"])
        assert ((m.predict_proba(X) >= 0.5) == y.astype(bool)).all()

    def test_positive_slope_for_positive_class_at_high_x(self):
        X, y = _separable()
        m = fit_logistic(X, y, ["x"])
        assert m.coef[0] > 0

    def test_probabilities_in_unit_interval(self):
        X, y = _separable()
        p = fit_logistic(X, y, ["x"]).predict_proba(X)
        assert ((p > 0) & (p < 1)).all()

    def test_deterministic(self):
        X, y = _separable()
        a = fit_logistic(X, y, ["x"])
        b = fit_logistic(X, y, ["x"])
        assert np.array_equal(a.coef, b.coef) and a.intercept == b.intercept

    def test_scale_invariance_of_probabilities(self):
        """Internal standardisation: rescaling a feature leaves predicted
        probabilities (almost) unchanged."""
        X, y = _separable()
        p1 = fit_logistic(X, y, ["x"]).predict_proba(X)
        p2 = fit_logistic(X * 1000, y, ["x"]).predict_proba(X * 1000)
        np.testing.assert_allclose(p1, p2, atol=1e-6)

    def test_constant_column_is_ignored(self):
        X, y = _separable()
        Xc = np.concatenate([X, np.full((len(X), 1), 7.0)], axis=1)
        m = fit_logistic(Xc, y, ["x", "const"])
        assert abs(m.coef[1]) < 1e-8
        np.testing.assert_allclose(
            m.predict_proba(Xc), fit_logistic(X, y, ["x"]).predict_proba(X), atol=1e-6
        )

    def test_balanced_uninformative_data_gives_half(self):
        g = np.random.default_rng(5)
        X = g.normal(size=(50, 2))
        y = np.concatenate([np.zeros(25), np.ones(25)])
        p = fit_logistic(X, y, ["a", "b"]).predict_proba(X)
        assert abs(p.mean() - 0.5) < 0.15

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            fit_logistic(np.zeros((4, 2)), np.zeros(3), ["a", "b"])
        with pytest.raises(ValueError):
            fit_logistic(np.zeros((4, 2)), np.zeros(4), ["a"])

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_single_class_sample_is_a_value_error(self, label):
        """All-positive or all-negative samples have no decision boundary."""
        X = np.random.default_rng(1).normal(size=(10, 2))
        with pytest.raises(ValueError, match="both classes"):
            fit_logistic(X, np.full(10, label), ["a", "b"])

    def test_extreme_inputs_do_not_overflow(self):
        X = np.array([[-1e8], [1e8], [-1e8], [1e8]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        p = fit_logistic(X, y, ["x"]).predict_proba(X)
        assert np.isfinite(p).all()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_tiny_training_sets_always_fit(self, seed):
        """Property: IRLS converges to finite parameters on any balanced
        two-class sample, including degenerate/separable ones."""
        g = np.random.default_rng(seed)
        n = int(g.integers(2, 30))
        X = g.normal(size=(2 * n, 3)) * g.uniform(0.1, 100)
        y = np.concatenate([np.zeros(n), np.ones(n)])
        m = fit_logistic(X, y, ["a", "b", "c"])
        assert np.isfinite(m.coef).all() and np.isfinite(m.intercept)
        assert np.isfinite(m.predict_proba(X)).all()


class TestSparkScoring:
    def test_spark_probability_matches_numpy(self, spark):
        """The compiled Catalyst sigmoid must equal predict_proba exactly
        (same closed form, double precision)."""
        import pandas as pd

        X, y = _separable(30, seed=3)
        X2 = np.concatenate([X, X**2], axis=1)
        m = fit_logistic(X2, y, ["f1", "f2"])
        pdf = pd.DataFrame({"id1": range(len(X2)), "id2": range(len(X2)),
                            "f1": X2[:, 0], "f2": X2[:, 1]})
        sdf = spark.createDataFrame(pdf)
        got = (
            sdf.select("id1", m.as_spark_probability().alias("p"))
            .toPandas()
            .sort_values("id1")["p"]
            .to_numpy()
        )
        np.testing.assert_allclose(got, m.predict_proba(X2), rtol=1e-12)

    def test_model_roundtrip_fields(self):
        m = LogisticModel(columns=("a",), coef=np.array([2.0]), intercept=-1.0)
        np.testing.assert_allclose(
            m.predict_proba(np.array([[0.5]])), 1 / (1 + np.exp(0.0))
        )
