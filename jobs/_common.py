"""Shared plumbing for the spark-submit job entrypoints.

Each ``jobs/<name>.py`` wraps one function from ``repro.eval.tables``: it
builds a local session (with the sandbox tunings measured in
tests/conftest.py), runs the experiment and prints the table as markdown.
Under pytest, the same functions are driven through the session fixture —
jobs never create a second session in that case because ``getOrCreate``
returns the active one.
"""
import logging
import os

from pyspark.sql import SparkSession

from repro.eval.harness import to_markdown  # noqa: F401  (re-exported)

log = logging.getLogger("jobs")


def _driver_mem() -> tuple[str, str]:
    """Driver heap and its source: ``SPARK_DRIVER_MEM`` when set (as in the
    root conftest.py), else half of the host's physical memory."""
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m, "env:SPARK_DRIVER_MEM"
    half = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2
    return f"{max(1, half >> 30)}g", "half of physical memory"


def get_session(app: str) -> SparkSession:
    """Session for standalone job runs (mirrors conftest.py's settings)."""
    logging.basicConfig(level=logging.INFO, format="[%(name)s] %(message)s")
    if "PYSPARK_SUBMIT_ARGS" in os.environ:
        log.info("driver memory as set in PYSPARK_SUBMIT_ARGS")
    else:
        mem, src = _driver_mem()
        log.info("driver memory %s (src=%s)", mem, src)
        os.environ["PYSPARK_SUBMIT_ARGS"] = (
            f"--master local[*] --driver-memory {mem} "
            "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
            "--conf spark.ui.showConsoleProgress=false "
            "--conf spark.driver.maxResultSize=4g pyspark-shell"
        )
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "8"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.adaptive.enabled", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark
