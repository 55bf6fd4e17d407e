"""The eight weighting schemes as one DataFrame computation.

``compute_features`` produces, per distinct candidate pair, every scheme of
paper Section 4:

- CF-IBF(c_ij) = |B_i ∩ B_j| * log(|B|/|B_i|) * log(|B|/|B_j|)
- RACCB(c_ij)  = sum over common blocks of 1/||b||
- JS(c_ij)     = |B_i ∩ B_j| / (|B_i| + |B_j| - |B_i ∩ B_j|)
- LCP(e)       = number of distinct candidates of e (two columns)
- EJS(c_ij)    = JS * log(||B||/||e_i||) * log(||B||/||e_j||)
- WJS(c_ij)    = RACCB / (Σ_{B_i} 1/||b|| + Σ_{B_j} 1/||b|| - RACCB)
- RS(c_ij)     = sum over common blocks of 1/|b|
- NRS(c_ij)    = RS / (Σ_{B_i} 1/|b| + Σ_{B_j} 1/|b| - RS)

Everything is join/groupBy algebra on the pair-block relation — no UDFs.
The per-block and per-entity tables are broadcast onto the pair frame.
"""
import weakref

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.blocking.candidates import pair_block_relation
from repro.blocking.pipeline import BlockCollection
from repro.features.stats import GlobalStats, block_stats, entity_stats, global_stats

#: Feature name -> feature columns. LCP is one *feature* with two columns.
FEATURE_COLUMNS: dict[str, list[str]] = {
    "CF-IBF": ["cf_ibf"],
    "RACCB": ["raccb"],
    "JS": ["js"],
    "LCP": ["lcp_1", "lcp_2"],
    "EJS": ["ejs"],
    "WJS": ["wjs"],
    "RS": ["rs"],
    "NRS": ["nrs"],
}
FEATURE_NAMES: list[str] = list(FEATURE_COLUMNS)


#: Ratio schemes, which lie in (0, 1] for every candidate pair.
RATIO_COLUMNS = ("js", "wjs", "nrs")


def check_ranges(features: pd.DataFrame) -> None:
    """Raise ``ValueError`` naming the first feature column that holds a
    non-finite value, or a ratio scheme outside ``(0, 1]`` (with 1e-12 of
    rounding slack). A NaN would otherwise fail every ``p >= 0.5`` test
    downstream and its pair would silently vanish."""
    for col in columns_for(FEATURE_NAMES):
        v = features[col].to_numpy(dtype=np.float64)
        ok = np.isfinite(v)
        if col in RATIO_COLUMNS:
            ok &= (v > 0) & (v <= 1 + 1e-12)
        if not ok.all():
            bad = v[~ok][:3].tolist()
            raise ValueError(
                f"feature column {col!r} has {int((~ok).sum())} invalid "
                f"value(s), e.g. {bad}"
            )


def columns_for(feature_set: list[str] | tuple[str, ...]) -> list[str]:
    """Flatten feature names into their dataframe columns, in canonical order."""
    cols: list[str] = []
    for name in FEATURE_NAMES:
        if name in feature_set:
            cols.extend(FEATURE_COLUMNS[name])
    return cols


def compute_features(
    collection: BlockCollection,
) -> tuple[DataFrame, GlobalStats]:
    """All eight schemes per candidate pair of ``collection``.

    Returns ``(features, gstats)``: ``features`` has ``id1, id2`` plus the
    nine feature columns of :data:`FEATURE_COLUMNS`.

    The pair-block self-join and its ``groupBy(id1, id2)`` run once: the
    per-pair aggregates are cached, because both the pair columns and LCP
    read them. The cache is released when the returned ``features`` object
    is garbage collected (frames derived from it do not keep it alive), so
    a caller materialises what it needs first: ``prepare_dataset`` drops
    the frame once it is checkpointed.

    The small statistic tables — one row per block, one per entity — are
    joined by explicit broadcast, so the pair frame is never shuffled to
    meet them.
    """
    assignments = collection.assignments
    blocks = block_stats(assignments, collection.task)
    gstats = global_stats(blocks)

    pair_agg = (
        pair_block_relation(assignments, collection.task)
        .join(F.broadcast(blocks), "token")
        .groupBy("id1", "id2")
        .agg(
            F.count("*").alias("cb"),  # |B_i ∩ B_j|
            F.sum(1.0 / F.col("pair_card")).alias("raccb"),
            F.sum(1.0 / F.col("size")).alias("rs"),
        )
        .cache()
    )

    # One row per entity: its block statistics and LCP, the number of its
    # distinct candidates. Every entity of a comparison-bearing block has one.
    lcp = (
        pair_agg.select(F.explode(F.array("id1", "id2")).alias("entity_id"))
        .groupBy("entity_id")
        .agg(F.count("*").alias("lcp"))
    )
    ent = F.broadcast(
        entity_stats(assignments, blocks).join(F.broadcast(lcp), "entity_id")
    )
    # Aliases, not renamed copies: both sides then read one broadcast.
    e1, e2 = ent.alias("e1"), ent.alias("e2")

    def side(col: str, k: int) -> F.Column:
        return F.col(f"e{k}.{col}")

    n_b = F.lit(float(gstats.n_blocks))
    total_pc = F.lit(gstats.total_pair_card)
    js = F.col("cb") / (side("n_blocks", 1) + side("n_blocks", 2) - F.col("cb"))

    features = (
        pair_agg.join(e1, F.col("id1") == side("entity_id", 1))
        .join(e2, F.col("id2") == side("entity_id", 2))
        .select(
            "id1",
            "id2",
            (
                F.col("cb")
                * F.log(n_b / side("n_blocks", 1))
                * F.log(n_b / side("n_blocks", 2))
            ).alias("cf_ibf"),
            F.col("raccb").cast("double").alias("raccb"),
            js.cast("double").alias("js"),
            side("lcp", 1).cast("double").alias("lcp_1"),
            side("lcp", 2).cast("double").alias("lcp_2"),
            (
                js
                * F.log(total_pc / side("sum_pair_card", 1))
                * F.log(total_pc / side("sum_pair_card", 2))
            ).alias("ejs"),
            (
                F.col("raccb")
                / (
                    side("sum_inv_pair_card", 1)
                    + side("sum_inv_pair_card", 2)
                    - F.col("raccb")
                )
            ).alias("wjs"),
            F.col("rs").cast("double").alias("rs"),
            (
                F.col("rs")
                / (side("sum_inv_size", 1) + side("sum_inv_size", 2) - F.col("rs"))
            ).alias("nrs"),
        )
    )
    # The cache lives as long as the frame that reads it.
    weakref.finalize(features, pair_agg.unpersist).atexit = False
    return features, gstats
