"""Plan-shape regression tests for the blocking and feature dataflow.

Blocking is a chain of window passes with no join, and feature generation
runs the pair-block self-join once, meeting every small statistic table by
broadcast. The counts walk the live plan tree: each cached relation is
entered once, however many scans read it, and a reused exchange is not
entered at all, because neither runs its child again.
"""
import gc
from collections import Counter

import pytest

from repro.blocking import build_blocks
from repro.er_data.generator import ERConfig, clean_clean, dirty, to_spark
from repro.features import compute_features


def _children(node):
    kids = node.children()
    return [kids.apply(i) for i in range(kids.size())]


def _logical_nodes(plan):
    yield plan.nodeName()
    for child in _children(plan):
        yield from _logical_nodes(child)


def _live_nodes(spark, plan, seen=None):
    """Physical node names of ``plan``, each cached relation entered once."""
    seen = set() if seen is None else seen
    yield plan.nodeName()
    children = _children(plan)
    if plan.getClass().getSimpleName() == "InMemoryTableScanExec":
        relation = plan.relation()
        key = spark._jvm.System.identityHashCode(relation.cacheBuilder())
        if key not in seen:
            seen.add(key)
            children.append(relation.cachedPlan())
    for child in children:
        yield from _live_nodes(spark, child, seen)


@pytest.fixture(scope="module", params=["clean", "dirty"])
def collection(request, spark):
    cfg = ERConfig(n_matches=40, n_only1=20, n_only2=20, vocab_size=600, seed=78)
    gen = clean_clean if request.param == "clean" else dirty
    ent, _ = gen(cfg)
    return build_blocks(to_spark(spark, ent), request.param)


def test_blocking_has_no_join(spark, collection):
    """Purging, filtering and the comparison-bearing test are window passes:
    the optimised plan of the assignments holds no ``Join``."""
    analyzed = collection.assignments._jdf.queryExecution().analyzed()
    optimized = spark._jsparkSession.sessionState().optimizer().execute(analyzed)
    names = Counter(_logical_nodes(optimized))
    assert names["Join"] == 0
    assert names["Window"] >= 3


def test_features_run_one_self_join_and_broadcast_the_rest(spark, collection):
    features, _ = compute_features(collection)
    executed = features._jdf.queryExecution().executedPlan()
    joins = Counter(n for n in _live_nodes(spark, executed) if "Join" in n)
    assert joins["SortMergeJoin"] == 1  # the pair-block self-join
    assert set(joins) == {"SortMergeJoin", "BroadcastHashJoin"}


def test_pair_cache_lives_as_long_as_the_feature_frame(spark, collection):
    collection.assignments.count()
    persisted = spark.sparkContext._jsc.getPersistentRDDs

    before = set(persisted().keySet())
    features, _ = compute_features(collection)
    features.count()
    added = set(persisted().keySet()) - before
    assert added  # the per-pair aggregates
    del features
    gc.collect()
    assert not added & set(persisted().keySet())
