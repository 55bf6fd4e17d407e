"""End-to-end blocking: entities -> filtered, comparison-bearing blocks.

``build_blocks`` chains Token Blocking -> Block Purging -> Block Filtering
and finally restricts the collection to *comparison-bearing* blocks (>= 1
candidate pair; for Clean-Clean that needs both sources present). All block
statistics downstream (|B|, ||B||, sum of |b|) are over this collection
(DESIGN.md §3).

Every step is a window pass instead of a per-token aggregate joined back
onto the assignments: after the distinct of Token Blocking, the plan is a
window over ``token`` (purging, and filtering's block size), one over
``entity_id`` (filtering's ranks) and one over ``token`` (the
comparison-bearing test), with no join.
"""
from dataclasses import dataclass

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.blocking.token_blocking import token_blocking
from repro.blocking.purging import block_purging
from repro.blocking.filtering import block_filtering


@dataclass(frozen=True)
class BlockCollection:
    """A finished block collection plus the inputs it was derived from."""

    assignments: DataFrame  # (token, entity_id, source), comparison-bearing
    task: str  # "clean" | "dirty"
    n_entities: int  # |E1| + |E2| (clean) or |E| (dirty)


def _comparison_bearing(assignments: DataFrame, task: str) -> DataFrame:
    """Keep only blocks that generate at least one comparison: both sources
    present (Clean-Clean) or at least two entities (Dirty), tested with a
    window over ``token``."""
    by_token = Window.partitionBy("token")
    if task == "clean":
        ok = F.min("source").over(by_token) != F.max("source").over(by_token)
    else:
        ok = F.count("*").over(by_token) >= 2
    return (
        assignments.withColumn("_ok", ok)
        .filter(F.col("_ok"))
        .select("token", "entity_id", "source")
    )


def build_blocks(
    entities: DataFrame, task: str, *, filtering_ratio: float = 0.8
) -> BlockCollection:
    """Run the full blocking pipeline of the paper's Section 5.1."""
    n_entities = entities.count()
    assignments = token_blocking(entities)
    assignments = block_purging(assignments, n_entities)
    assignments = block_filtering(assignments, ratio=filtering_ratio)
    assignments = _comparison_bearing(assignments, task)
    return BlockCollection(
        assignments=assignments.cache(), task=task, n_entities=n_entities
    )
