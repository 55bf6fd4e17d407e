"""Cardinality-based supervised pruning algorithms (paper Section 3.2).

- CEP  — retain the globally top-K valid pairs, K = floor(sum of |b| / 2)
  over the block collection (Algorithm 4).
- CNP  — per entity, retain its top-k valid pairs,
  k = max(1, floor(sum of |b| / (|E1|+|E2|))); a pair survives if it is in
  the top-k list of *either* endpoint (Algorithm 5).
- RCNP — same lists, but the pair must be in the top-k of *both* endpoints.

The paper's priority queues are tie-order dependent; we make results
deterministic by ranking on ``(p desc, id1, id2)`` (DESIGN.md §3). CNP and
RCNP rank each entity over all of its valid pairs with ``row_number`` in
the shared node-centric window pass (``prune_weight.node_prune``).
"""
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.prune_weight import _valid, by_entity, node_prune


def _quality_order() -> tuple[F.Column, ...]:
    """The deterministic ranking ``(p desc, id1, id2)``."""
    return F.col("p").desc(), F.col("id1").asc(), F.col("id2").asc()


def cep(scored: DataFrame, *, K: int) -> DataFrame:
    """Supervised Cardinality Edge Pruning: global top-K valid pairs."""
    return (
        _valid(scored)
        .orderBy(*_quality_order())
        .limit(int(K))
        .select("id1", "id2")
    )


def _rank() -> F.Column:
    """Each endpoint row's rank among its entity's valid pairs."""
    return F.row_number().over(by_entity().orderBy(*_quality_order()))


def cnp(scored: DataFrame, *, k: int) -> DataFrame:
    """Supervised Cardinality Node Pruning: in either endpoint's top-k."""
    return node_prune(scored, _rank(), F.max(F.col("s") <= int(k)))


def rcnp(scored: DataFrame, *, k: int) -> DataFrame:
    """Reciprocal CNP: in both endpoints' top-k (deeper pruning)."""
    return node_prune(scored, _rank(), F.min(F.col("s") <= int(k)))
