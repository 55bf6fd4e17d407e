"""Tests for balanced training-set sampling."""
import numpy as np
import pandas as pd
import pytest

from repro.classifier.training import canonical_order, match_mask, sample_balanced


@pytest.fixture()
def toy():
    feats = pd.DataFrame(
        {
            "id1": [1, 1, 2, 2, 3, 3, 4, 4],
            "id2": [11, 12, 11, 12, 11, 13, 12, 13],
            "f": [0.9, 0.1, 0.2, 0.8, 0.3, 0.7, 0.4, 0.6],
        }
    )
    gt = pd.DataFrame({"id1": [1, 2, 3], "id2": [11, 12, 13]})
    return feats, gt


class TestMatchMask:
    def test_marks_exactly_the_truth(self, toy):
        feats, gt = toy
        mask = match_mask(feats, gt)
        got = feats[mask][["id1", "id2"]].apply(tuple, axis=1).tolist()
        assert sorted(got) == [(1, 11), (2, 12), (3, 13)]

    def test_empty_truth(self, toy):
        feats, _ = toy
        assert match_mask(feats, pd.DataFrame({"id1": [], "id2": []})).sum() == 0


class TestSampleBalanced:
    def test_balance(self, toy):
        feats, gt = toy
        X, y = sample_balanced(feats, gt, ["f"], n_per_class=2, seed=0)
        assert X.shape == (4, 1)
        assert y.sum() == 2 and len(y) == 4

    def test_labels_are_correct(self, toy):
        """Sampled positives must carry feature values of true matches."""
        feats, gt = toy
        X, y = sample_balanced(feats, gt, ["f"], n_per_class=3, seed=1)
        pos_fs = {0.9, 0.8, 0.7}  # f values of the three matches
        assert set(X[y == 1, 0]) <= pos_fs

    def test_takes_all_when_class_too_small(self, toy):
        feats, gt = toy
        X, y = sample_balanced(feats, gt, ["f"], n_per_class=100, seed=0)
        assert y.sum() == 3 and (y == 0).sum() == 5

    def test_deterministic_in_seed(self, toy):
        feats, gt = toy
        a = sample_balanced(feats, gt, ["f"], n_per_class=2, seed=7)
        b = sample_balanced(feats, gt, ["f"], n_per_class=2, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_row_order_invariance(self, toy):
        """The sample depends on (id1,id2) and seed, not input row order."""
        feats, gt = toy
        shuffled = feats.sample(frac=1.0, random_state=3)
        a = sample_balanced(feats, gt, ["f"], n_per_class=2, seed=5)
        b = sample_balanced(shuffled, gt, ["f"], n_per_class=2, seed=5)
        assert np.array_equal(a[0], b[0])

    def test_different_seeds_eventually_differ(self, toy):
        feats, gt = toy
        draws = {
            tuple(sample_balanced(feats, gt, ["f"], n_per_class=2, seed=s)[0].ravel())
            for s in range(6)
        }
        assert len(draws) > 1


class TestCanonicalOrder:
    def test_sorted_frame_returned_as_is(self, toy):
        feats, _ = toy
        assert canonical_order(feats) is feats

    def test_unsorted_frame_sorted_stably(self, toy):
        feats, _ = toy
        shuffled = feats.sample(frac=1.0, random_state=3)
        got = canonical_order(shuffled)
        pd.testing.assert_frame_equal(got, feats)
        assert canonical_order(got) is got
