"""The table registry and its job entry point, without a JVM; the cheaper
harnesses run end to end on one analog."""
import importlib.util
import pathlib
from types import SimpleNamespace

import pytest

from repro.eval import tables
from repro.eval.tables import TABLES

RUN = pathlib.Path(__file__).resolve().parent.parent / "jobs" / "run.py"


@pytest.fixture(scope="module")
def run():
    """``jobs/run.py`` as a module (``jobs/`` is not a package)."""
    spec = importlib.util.spec_from_file_location("jobs_run", RUN)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestRegistry:
    @pytest.mark.parametrize("name", TABLES)
    def test_name_is_a_job_choice(self, run, name):
        assert run.parser().parse_args([name]).names == [name]

    @pytest.mark.parametrize("name", TABLES)
    def test_entries_are_callable(self, name):
        assert TABLES[name]
        assert all(callable(fn) for fn in TABLES[name])

    def test_unknown_name_exits_nonzero(self, run):
        with pytest.raises(SystemExit) as exc:
            run.main(["table99"])
        assert exc.value.code != 0

    def test_table1_renders_table1b_as_second_table(self, monkeypatch):
        # table1/table1b read only |C| from the artifacts; the rest is config.
        monkeypatch.setattr(
            tables, "get_artifacts", lambda spark, name: SimpleNamespace(n_candidates=7)
        )
        blocks = tables.render(None, "table1").split("\n\n")
        assert len(blocks) == 2
        t1, t1b = (b.splitlines() for b in blocks)
        assert t1[0].startswith("| dataset | E1 | E2 | D | C |")
        assert t1b[0] == "| dataset | E | D | C | paper_E |"
        assert len(t1) == 2 + 9 and len(t1b) == 2 + 5


class TestHarnessSmoke:
    """Run the cheaper harnesses on a single small analog."""

    def test_table2_single_dataset(self, spark):
        from repro.eval.tables import table2

        df = table2(spark, names=["AbtBuy"])
        assert len(df) == 1
        row = df.iloc[0]
        assert row["recall"] > 0.8 and row["precision"] < 0.2

    def test_table5_single_dataset_single_seed(self, spark):
        from repro.eval.tables import table5

        df = table5(spark, names=["AbtBuy"], seeds=[1])
        assert list(df.columns) == [
            "dataset", "method", "recall", "precision", "f1", "rt_s",
            "paper_recall", "paper_precision", "paper_f1",
        ]
        assert list(df["method"]) == ["BLAST", "BCl1", "BCl2"]
        assert df["f1"].between(0, 1).all()

    def test_section54_small_grid(self, spark):
        from repro.eval.tables import section54

        df = section54(spark, names=["AbtBuy"], sizes=[20, 100], seeds=[1])
        assert set(df["size"]) == {20, 100}
        assert set(df["algorithm"]) == {"BLAST", "RCNP", "BCl"}

    def test_artifact_cache_is_shared(self, spark):
        from repro.eval.tables import get_artifacts

        a = get_artifacts(spark, "AbtBuy")
        b = get_artifacts(spark, "AbtBuy")
        assert a is b
