"""End-to-end Generalized Supervised Meta-blocking pipeline.

``prepare_dataset`` runs blocking + feature generation once per dataset,
materialises the Spark feature frame with ``localCheckpoint()`` *and*
collects it to the driver in canonical ``(id1, id2)`` order (at most a few
million rows at these scales): the pandas copy feeds the deterministic
training sampler and the sweep engine, while scoring and pruning — the
paper's contribution — run in Spark. The checkpoint cuts the blocking +
feature lineage, so every ``run_method`` plan starts from a leaf scan
instead of re-analysing ~1900 plan lines per DataFrame step (a cached
frame keeps its lineage). ``run_method`` trains the
probabilistic classifier, scores every candidate pair with a Catalyst sigmoid
expression, applies one pruning algorithm and measures effectiveness and
run-time. RT covers training + scoring + pruning + evaluation (the paper's
Section 2.1 definition), not the one-off blocking.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.blocking.pipeline import BlockCollection, build_blocks
from repro.classifier.logistic import LogisticModel, fit_logistic
from repro.classifier.training import (
    canonical_order,
    match_mask,
    sample_balanced,
)
from repro.eval.metrics import Effectiveness, effectiveness
from repro.features.schemes import check_ranges, compute_features, columns_for
from repro.features.stats import GlobalStats
from repro.core import prune_weight, prune_cardinality

#: Default feature sets (paper Formulas 1 & 2 and the [21] baseline set).
FEATURES_21 = ("CF-IBF", "RACCB", "JS", "LCP")
FEATURES_BLAST = ("CF-IBF", "RACCB", "RS", "NRS")  # Formula 1 (paper set 78)
FEATURES_RCNP = ("CF-IBF", "RACCB", "JS", "LCP", "WJS")  # Formula 2 (set 187)


@dataclass
class DatasetArtifacts:
    """Blocking + feature artifacts shared by every method on a dataset."""

    name: str
    collection: BlockCollection
    features: DataFrame  # checkpointed Spark frame: (id1, id2, 9 features)
    features_pdf: pd.DataFrame  # driver copy in (id1, id2) order
    gstats: GlobalStats
    ground_truth: DataFrame
    gt_pdf: pd.DataFrame
    n_candidates: int
    block_quality: Effectiveness

    @property
    def cep_K(self) -> int:
        """CEP's K = floor(sum of |b| / 2) (Section 3.2)."""
        return self.gstats.sum_block_sizes // 2

    @property
    def cnp_k(self) -> int:
        """CNP's k = max(1, floor(sum of |b| / #entities)) (Section 3.2)."""
        return max(1, self.gstats.sum_block_sizes // self.collection.n_entities)


@dataclass(frozen=True)
class MethodResult:
    """One (dataset, algorithm, feature set, training size, seed) run."""

    dataset: str
    algorithm: str
    feature_set: tuple[str, ...]
    n_train_per_class: int
    seed: int
    eff: Effectiveness
    runtime_s: float
    model: LogisticModel


def prepare_dataset(
    spark: SparkSession,
    name: str,
    entities: DataFrame,
    ground_truth: DataFrame,
    task: str,
) -> DatasetArtifacts:
    """Block the dataset, compute all 8 features once, checkpoint + collect,
    check the feature ranges, and measure the input block collection's
    quality (paper Table 2)."""
    collection = build_blocks(entities, task)
    features, gstats = compute_features(collection)
    # Few, larger partitions: every candidate set here is <= a few million
    # rows, where per-stage scheduling overhead dominates shuffles. Rebinding
    # ``features`` drops the lazy frame, which releases compute_features'
    # cache of the per-pair aggregates.
    features = features.repartition(8).localCheckpoint()  # one job
    features_pdf = canonical_order(features.toPandas())  # reads the checkpoint
    check_ranges(features_pdf)
    gt = ground_truth.select("id1", "id2").cache()
    gt_pdf = gt.toPandas()
    n_found = int(match_mask(features_pdf, gt_pdf).sum())
    block_quality = Effectiveness(
        n_pairs=len(features_pdf),
        n_matches_found=n_found,
        n_matches_total=len(gt_pdf),
    )
    return DatasetArtifacts(
        name=name,
        collection=collection,
        features=features,
        features_pdf=features_pdf,
        gstats=gstats,
        ground_truth=gt,
        gt_pdf=gt_pdf,
        n_candidates=len(features_pdf),
        block_quality=block_quality,
    )


#: Algorithm name -> Spark pruner of ``(scored, arts, blast_r)``.
_SPARK_PRUNERS: dict[
    str, Callable[[DataFrame, DatasetArtifacts, float], DataFrame]
] = {
    "BCl": lambda s, arts, r: prune_weight.bcl(s),
    "WEP": lambda s, arts, r: prune_weight.wep(s),
    "WNP": lambda s, arts, r: prune_weight.wnp(s),
    "RWNP": lambda s, arts, r: prune_weight.rwnp(s),
    "BLAST": lambda s, arts, r: prune_weight.blast(s, r=r),
    "CEP": lambda s, arts, r: prune_cardinality.cep(s, K=arts.cep_K),
    "CNP": lambda s, arts, r: prune_cardinality.cnp(s, k=arts.cnp_k),
    "RCNP": lambda s, arts, r: prune_cardinality.rcnp(s, k=arts.cnp_k),
}
PRUNERS = tuple(_SPARK_PRUNERS)


def _pruner(
    algorithm: str, arts: DatasetArtifacts, blast_r: float
) -> Callable[[DataFrame], DataFrame]:
    """The scored-frame -> retained-pairs function of one configuration."""
    if algorithm not in _SPARK_PRUNERS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    prune = _SPARK_PRUNERS[algorithm]
    return lambda scored: prune(scored, arts, blast_r)


def score_pairs(features: DataFrame, model: LogisticModel) -> DataFrame:
    """Attach the matching probability ``p`` as a Catalyst expression."""
    return features.select("id1", "id2", model.as_spark_probability().alias("p"))


def resolve_n_train(arts: DatasetArtifacts, n_train_per_class: int) -> int:
    """Negative value selects the [21] rule: 5% of the positive class."""
    if n_train_per_class >= 0:
        return n_train_per_class
    return max(1, round(0.05 * arts.block_quality.n_matches_found))


def run_method(
    arts: DatasetArtifacts,
    algorithm: str,
    *,
    feature_set: tuple[str, ...],
    n_train_per_class: int,
    seed: int,
    blast_r: float = 0.35,
) -> MethodResult:
    """Train, score, prune, evaluate one configuration on one dataset."""
    cols = columns_for(feature_set)
    n_train_per_class = resolve_n_train(arts, n_train_per_class)
    t0 = time.perf_counter()
    X, y = sample_balanced(
        arts.features_pdf,
        arts.gt_pdf,
        cols,
        n_per_class=n_train_per_class,
        seed=seed,
    )
    model = fit_logistic(X, y, cols)
    scored = score_pairs(arts.features, model)
    retained = _pruner(algorithm, arts, blast_r)(scored)
    eff = effectiveness(  # single Spark job; forces execution
        retained, arts.ground_truth, n_total=arts.block_quality.n_matches_total
    )
    runtime = time.perf_counter() - t0
    return MethodResult(
        dataset=arts.name,
        algorithm=algorithm,
        feature_set=tuple(feature_set),
        n_train_per_class=n_train_per_class,
        seed=seed,
        eff=eff,
        runtime_s=runtime,
        model=model,
    )
