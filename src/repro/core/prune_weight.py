"""Weight-based supervised pruning algorithms (paper Section 3.1).

Every function maps a scored pair frame ``(id1, id2, p)`` to the retained
subset ``(id1, id2)``. A pair is *valid* iff p >= 0.5 (Definition 2); each
algorithm then applies its weight threshold over the valid pairs:

- BCl   — the [21] baseline: keep every valid pair (global 0.5 threshold).
- WEP   — keep pairs with p >= global mean of valid probabilities (Alg. 1).
- WNP   — keep pairs beating the mean of *either* endpoint entity (Alg. 2).
- RWNP  — keep pairs beating the mean of *both* endpoints.
- BLAST — keep pairs with p >= r * (max_i + max_j) using per-entity maxima
  (Alg. 3, r = 0.35 in the paper's experiments).

The node-centric algorithms (WNP, RWNP, BLAST here; CNP, RCNP in
``prune_cardinality``) share one window pass, ``node_prune``: each valid
pair is exploded into one row per endpoint, a window over the endpoint
entity attaches its statistic, and one ``groupBy(id1, id2)`` applies the
algorithm's combine rule — pure DataFrame algebra, no UDFs, no joins.
"""
from pyspark.sql import DataFrame, Window, WindowSpec
from pyspark.sql import functions as F


def _valid(scored: DataFrame) -> DataFrame:
    """The valid pairs of Definition 2: probability >= 0.5."""
    return scored.filter(F.col("p") >= 0.5)


def by_entity() -> WindowSpec:
    """The window of one endpoint entity's valid pairs."""
    return Window.partitionBy("entity_id")


def node_prune(scored: DataFrame, stat: F.Column, keep: F.Column) -> DataFrame:
    """Node-centric pruning in one window pass.

    ``stat`` is a window function over ``entity_id`` evaluated on the rows
    ``(entity_id, id1, id2, p)`` — each valid pair once per endpoint — and
    becomes column ``s``. ``keep`` is an aggregate over a pair's two endpoint
    rows (columns ``p`` and ``s``) that is true for retained pairs.
    """
    ends = _valid(scored).select(
        F.explode(F.array("id1", "id2")).alias("entity_id"), "id1", "id2", "p"
    )
    return (
        ends.withColumn("s", stat)
        .groupBy("id1", "id2")
        .agg(keep.alias("_keep"))
        .filter(F.col("_keep"))
        .select("id1", "id2")
    )


def bcl(scored: DataFrame) -> DataFrame:
    """Binary-classifier pruning of [21]: retain all valid pairs."""
    return _valid(scored).select("id1", "id2")


def wep(scored: DataFrame) -> DataFrame:
    """Supervised Weighted Edge Pruning (Algorithm 1)."""
    valid = _valid(scored)
    mean_row = valid.agg(F.avg("p").alias("m")).collect()[0]
    if mean_row["m"] is None:  # no valid pairs at all
        return scored.select("id1", "id2").limit(0)
    return valid.filter(F.col("p") >= float(mean_row["m"])).select("id1", "id2")


def wnp(scored: DataFrame) -> DataFrame:
    """Supervised Weighted Node Pruning (Algorithm 2): beat either mean."""
    beats = F.col("p") >= F.col("s")
    return node_prune(scored, F.avg("p").over(by_entity()), F.max(beats))


def rwnp(scored: DataFrame) -> DataFrame:
    """Reciprocal WNP: beat both endpoint means (deeper pruning)."""
    beats = F.col("p") >= F.col("s")
    return node_prune(scored, F.avg("p").over(by_entity()), F.min(beats))


def blast(scored: DataFrame, *, r: float = 0.35) -> DataFrame:
    """Supervised BLAST (Algorithm 3): p >= r * (max_i + max_j)."""
    keep = F.max("p") >= F.lit(float(r)) * F.sum("s")
    return node_prune(scored, F.max("p").over(by_entity()), keep)
