"""Unit tests for the pandas local engine (sweep fast-path)."""
import numpy as np
import pandas as pd
import pytest

from repro.classifier.logistic import LogisticModel
from repro.core.local_engine import (
    effectiveness_local,
    prune_local,
    run_method_local,
    score_local,
)


@pytest.fixture()
def feats():
    g = np.random.default_rng(0)
    n = 100
    pdf = pd.DataFrame(
        {
            "id1": np.arange(n),
            "id2": np.arange(n) + 500,
            "a": np.where(np.arange(n) < 20, 3.0, 0.5) + g.random(n) * 0.1,
            "b": g.random(n),
        }
    )
    gt = pd.DataFrame({"id1": np.arange(20), "id2": np.arange(20) + 500})
    return pdf, gt


class TestScoreLocal:
    def test_matches_model_probabilities(self, feats):
        pdf, _ = feats
        m = LogisticModel(columns=("a", "b"), coef=np.array([1.0, -2.0]), intercept=0.3)
        got = score_local(pdf, m)
        want = m.predict_proba(pdf[["a", "b"]].to_numpy())
        np.testing.assert_allclose(got["p"].to_numpy(), want)
        assert list(got.columns) == ["id1", "id2", "p"]


class TestPruneLocalEdgeCases:
    def test_empty_scored(self):
        empty = pd.DataFrame({"id1": [], "id2": [], "p": []})
        for algo in ["BCl", "WEP", "WNP", "RWNP", "BLAST", "CEP", "CNP", "RCNP"]:
            out = prune_local(empty, algo, K=5, k=2)
            assert len(out) == 0

    def test_single_valid_pair_survives_everything(self):
        one = pd.DataFrame({"id1": [1], "id2": [2], "p": [0.9]})
        for algo in ["BCl", "WEP", "WNP", "RWNP", "BLAST", "CEP", "CNP", "RCNP"]:
            out = prune_local(one, algo, K=5, k=2)
            assert len(out) == 1, algo

    @pytest.mark.parametrize("algo, want", [
        ("CNP", {(1, 2), (2, 3), (2, 4)}),
        ("RCNP", {(1, 2)}),
    ])
    def test_dirty_entity_ranked_over_both_sides(self, algo, want):
        """Entity 2 is ``id2`` of its best pair and ``id1`` of the others:
        its top-1 is (1, 2) over all of its pairs, as Spark's window ranks."""
        scored = pd.DataFrame(
            {"id1": [1, 2, 2], "id2": [2, 3, 4], "p": [0.9, 0.8, 0.7]}
        )
        out = prune_local(scored, algo, k=1)
        assert set(zip(out["id1"], out["id2"])) == want

    def test_cep_zero_K(self):
        one = pd.DataFrame({"id1": [1], "id2": [2], "p": [0.9]})
        assert len(prune_local(one, "CEP", K=0)) == 0


class TestRunMethodLocal:
    def test_deterministic(self, feats):
        pdf, gt = feats
        a = run_method_local(pdf, gt, "BLAST", ["a", "b"], n_train_per_class=10,
                             seed=4, K=50, k=2)
        b = run_method_local(pdf, gt, "BLAST", ["a", "b"], n_train_per_class=10,
                             seed=4, K=50, k=2)
        assert a == b

    def test_informative_feature_yields_high_f1(self, feats):
        pdf, gt = feats
        eff = run_method_local(pdf, gt, "BCl", ["a"], n_train_per_class=10,
                               seed=0, K=50, k=2)
        assert eff.f1 > 0.8

    def test_effectiveness_local_counts(self, feats):
        pdf, gt = feats
        eff = effectiveness_local(pdf[["id1", "id2"]], gt)
        assert eff.n_pairs == 100
        assert eff.n_matches_found == 20
        assert eff.recall == 1.0
