import sys

import pytest


@pytest.fixture(scope="session")
def spark():
    """One local-mode SparkSession for the whole test or benchmark session,
    with the settings of ``repro.session`` (see its docstring)."""
    # Imported here, not at module level: perfbench's self-tests load this
    # conftest before they put ``src/`` on the path, and never use the fixture.
    from repro.session import driver_memory, get_session

    s = get_session("repro")
    # One line in the test log that says where the driver heap came from,
    # e.g. whether the cgroup limit was seen.
    mem, src = driver_memory()
    print(
        f"[conftest] SPARK_DRIVER_MEM={mem} (src={src}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
