"""Regenerate paper tables: ``python jobs/run.py <name> [<name> ...]``.

Each name is a key of ``repro.eval.tables.TABLES`` (``table1`` …
``table7``, ``section52``, ``section54``, ``section55``). All names share
one local session and the per-dataset blocking and feature artifacts. Each
table is printed as markdown and written to ``results/<name>.md``. Run with
``PYTHONPATH=src`` (or after ``pip install -e .``), or under spark-submit.
"""
import argparse
import pathlib
import sys

from repro.eval.tables import TABLES, render
from repro.session import driver_memory, get_session

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


def parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("names", nargs="+", choices=TABLES, metavar="name",
                   help=", ".join(TABLES))
    return p


def main(argv: list[str] | None = None) -> None:
    names = parser().parse_args(argv).names
    print("[jobs] driver memory %s (src=%s)" % driver_memory(), file=sys.stderr)
    spark = get_session("repro-jobs")
    RESULTS.mkdir(exist_ok=True)
    for name in names:
        md = render(spark, name)
        print(md)
        out = RESULTS / f"{name}.md"
        out.write_text(md + "\n")
        print(f"wrote {out}")


if __name__ == "__main__":
    main()
