"""Integration tests: full GSM pipeline on a small synthetic Clean-Clean
task, Spark-vs-local-engine end-to-end equivalence, and the qualitative
behaviours the paper's evaluation rests on."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

import repro.core.pipeline as pipeline
from repro.classifier.training import canonical_order
from repro.core.pipeline import (
    FEATURES_21,
    FEATURES_BLAST,
    FEATURES_RCNP,
    PRUNERS,
    prepare_dataset,
    resolve_n_train,
    run_method,
)
from repro.core.local_engine import run_method_local
from repro.er_data.generator import ERConfig, clean_clean, to_spark
from repro.eval.metrics import Effectiveness
from repro.features.schemes import columns_for


@pytest.fixture(scope="module")
def arts(spark):
    ent, gt = clean_clean(
        ERConfig(n_matches=60, n_only1=15, n_only2=15, vocab_size=700, seed=42)
    )
    return prepare_dataset(
        spark, "it", to_spark(spark, ent), to_spark(spark, gt), "clean"
    )


@pytest.fixture(scope="module")
def results(arts):
    return {
        algo: run_method(
            arts, algo, feature_set=FEATURES_21, n_train_per_class=20, seed=3
        )
        for algo in PRUNERS
    }


class TestPrepare:
    def test_block_collection_regime(self, arts):
        """Token blocking must land in the paper's regime: near-perfect
        recall, very low precision (Table 2)."""
        assert arts.block_quality.recall > 0.9
        assert arts.block_quality.precision < 0.1

    def test_features_cached_and_collected_consistently(self, arts):
        assert len(arts.features_pdf) == arts.n_candidates
        assert arts.features.count() == arts.n_candidates

    def test_features_pdf_in_canonical_order(self, arts):
        assert canonical_order(arts.features_pdf) is arts.features_pdf

    def test_features_are_a_plan_leaf(self, arts):
        """The feature frame is checkpointed: its analysed plan is a leaf
        scan, not the blocking + feature lineage that every DataFrame step
        of ``run_method`` would re-analyse."""
        plan = arts.features._jdf.queryExecution().analyzed().toString().strip()
        assert plan.startswith("LogicalRDD") and len(plan.splitlines()) == 1, plan

    def test_k_parameters_positive(self, arts):
        assert arts.cep_K > 0 and arts.cnp_k >= 1

    def test_resolve_n_train_5pct_rule(self, arts):
        n = resolve_n_train(arts, -1)
        assert n == max(1, round(0.05 * arts.block_quality.n_matches_found))
        assert resolve_n_train(arts, 25) == 25


def test_no_shared_token_gives_empty_dataset(spark):
    """No block survives: zero statistics and no candidates, not a crash."""
    ents = pd.DataFrame(
        {"entity_id": [0, 1, 2], "source": [1, 1, 1], "text": ["ab", "cd", "ef"]}
    )
    gt = pd.DataFrame({"id1": [0], "id2": [1]})
    arts = prepare_dataset(
        spark, "empty", to_spark(spark, ents), to_spark(spark, gt), "dirty"
    )
    assert arts.n_candidates == 0
    assert arts.block_quality == Effectiveness(0, 0, 1)
    assert (arts.gstats.n_blocks, arts.gstats.sum_block_sizes) == (0, 0)


def test_out_of_range_feature_stops_prepare(spark, monkeypatch):
    """A NaN feature would silently drop its pair at ``p >= 0.5``; the
    range check in ``prepare_dataset`` raises and names the column."""
    compute = pipeline.compute_features

    def with_nan(collection):
        features, gstats = compute(collection)
        return features.withColumn("nrs", F.lit(float("nan"))), gstats

    monkeypatch.setattr(pipeline, "compute_features", with_nan)
    ent, gt = clean_clean(ERConfig(n_matches=20, n_only1=5, n_only2=5, seed=3))
    with pytest.raises(ValueError, match="'nrs'"):
        prepare_dataset(spark, "nan", to_spark(spark, ent), to_spark(spark, gt), "clean")


class TestRunAllAlgorithms:
    @pytest.mark.parametrize("algo", PRUNERS)
    def test_improves_precision_over_blocks(self, results, arts, algo):
        """Definition 2: Pr(B') >> Pr(B) while Re(B') stays close."""
        r = results[algo]
        assert r.eff.precision > arts.block_quality.precision
        assert r.eff.recall > 0.5

    @pytest.mark.parametrize("algo", PRUNERS)
    def test_prunes_candidates(self, results, arts, algo):
        assert results[algo].eff.n_pairs < arts.n_candidates

    def test_reciprocal_variants_prune_deeper(self, results):
        assert results["RWNP"].eff.n_pairs <= results["WNP"].eff.n_pairs
        assert results["RCNP"].eff.n_pairs <= results["CNP"].eff.n_pairs

    def test_weight_algorithms_subset_of_bcl(self, results):
        for algo in ["WEP", "WNP", "RWNP", "BLAST"]:
            assert results[algo].eff.n_pairs <= results["BCl"].eff.n_pairs

    def test_cep_respects_K(self, results, arts):
        assert results["CEP"].eff.n_pairs <= arts.cep_K

    def test_deterministic_given_seed(self, arts):
        a = run_method(arts, "BLAST", feature_set=FEATURES_BLAST,
                       n_train_per_class=20, seed=9)
        b = run_method(arts, "BLAST", feature_set=FEATURES_BLAST,
                       n_train_per_class=20, seed=9)
        assert a.eff == b.eff
        assert (a.model.coef == b.model.coef).all()

    def test_unknown_algorithm_raises(self, arts):
        with pytest.raises(ValueError):
            run_method(arts, "XXX", feature_set=FEATURES_21,
                       n_train_per_class=5, seed=0)


class TestEngineEquivalence:
    """The pandas sweep engine must reproduce the Spark pipeline exactly:
    same sampler, same classifier, same pruning semantics."""

    @pytest.mark.parametrize("algo", PRUNERS)
    def test_end_to_end_equal(self, arts, algo):
        spark_res = run_method(
            arts, algo, feature_set=FEATURES_RCNP, n_train_per_class=15, seed=5
        )
        local_eff = run_method_local(
            arts.features_pdf,
            arts.gt_pdf,
            algo,
            columns_for(FEATURES_RCNP),
            n_train_per_class=15,
            seed=5,
            K=arts.cep_K,
            k=arts.cnp_k,
        )
        assert spark_res.eff == local_eff
