"""The one local SparkSession configuration, shared by the test and benchmark
fixture (root ``conftest.py``) and the table jobs (``jobs/run.py``).

Settings, none of which changes any result:

- ``local[*]`` master; the driver heap is :func:`driver_memory`.
- 8 shuffle partitions: the synthetic datasets are small, and per-stage
  scheduling overhead dominates at Spark's default of 200.
- Arrow on, for the driver collect of the feature frame.
- Automatic broadcast joins off (``autoBroadcastJoinThreshold = -1``), so
  the pipeline exercises the shuffle path at this scale. Code that wants a
  broadcast join asks for it with ``F.broadcast`` on the small side (as
  feature generation and evaluation do) and does not raise the threshold.
- Adaptive Query Execution off: AQE's per-stage driver-side replanning is
  pathologically slow under gVisor-style virtualisation (a cached 2.4k-row
  scan took ~20 s with AQE vs ~0.3 s without; measured, not guessed).
- ``spark.driver.maxResultSize=4g``: preparing the biggest analogs collects
  a multi-million-row feature frame once per dataset.
- Spark UI off and the driver bound to ``127.0.0.1`` (no network).

Every setting is passed as a builder config. PySpark hands a new session's
configs to ``spark-submit`` as ``--conf`` when it launches the JVM, so even
``spark.driver.memory`` takes effect; if a session already exists,
``getOrCreate`` returns it.
"""
from __future__ import annotations

import os
from pathlib import Path

from pyspark.sql import SparkSession

MASTER = "local[*]"
SHUFFLE_PARTITIONS = 8

#: cgroup v2, then v1, memory-limit files. A missing file, v2's "max", or
#: v1's ~9.2e18 "unlimited" sentinel never lowers the heap.
CGROUP_LIMITS = (
    "/sys/fs/cgroup/memory.max",
    "/sys/fs/cgroup/memory/memory.limit_in_bytes",
)


def driver_memory() -> tuple[str, str]:
    """Driver heap and where it came from: ``SPARK_DRIVER_MEM`` when set,
    else half of physical memory, capped at 75% of a readable cgroup limit.

    The cgroup read is best effort: under gVisor the sysfs emulation may not
    pass the host limit through, and then physical memory alone decides.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m, "env:SPARK_DRIVER_MEM"
    heap = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2
    src = "half of physical memory"
    for p in CGROUP_LIMITS:
        try:
            limit = int(Path(p).read_text())
        except (OSError, ValueError):
            continue
        if limit * 3 // 4 < heap:
            heap, src = limit * 3 // 4, f"75% of cgroup {p}={limit}"
    return f"{max(1, heap >> 30)}g", src


def get_session(app: str) -> SparkSession:
    """The local session with the settings above (see the module docstring)."""
    spark = (
        SparkSession.builder.appName(app)
        .master(MASTER)
        .config("spark.driver.memory", driver_memory()[0])
        .config("spark.driver.maxResultSize", "4g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.adaptive.enabled", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark
