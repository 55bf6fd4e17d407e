"""Time every paper table end to end and write ``results/<name>.md``.

Parametrised over ``repro.eval.tables.TABLES``. One pedantic round per
name: each is an end-to-end experiment, not a microbenchmark, and its
wall-clock (reported by pytest-benchmark) is the cost of regenerating the
table from the artifacts shared in the session. Run with
``pytest benchmarks/ --benchmark-only``.
"""
import pathlib

import pytest

from repro.eval.tables import TABLES, render

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.mark.parametrize("name", TABLES)
def test_table(spark, benchmark, name):
    md = benchmark.pedantic(render, args=(spark, name), rounds=1, iterations=1)
    print(f"\n### {name}\n{md}")
    # Every table has a header, a separator and at least one row.
    assert all(len(t.splitlines()) > 2 for t in md.split("\n\n"))
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}.md").write_text(md + "\n")
