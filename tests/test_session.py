"""The driver-heap rule of ``repro.session``, with the environment and the
cgroup files patched; no JVM starts."""
import os

import pytest

from repro import session
from repro.session import driver_memory

PHYS = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


@pytest.fixture
def no_env(monkeypatch):
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)


def test_env_wins(monkeypatch, tmp_path):
    limit = tmp_path / "memory.max"
    limit.write_text(str(1 << 30))
    monkeypatch.setattr(session, "CGROUP_LIMITS", (str(limit),))
    monkeypatch.setenv("SPARK_DRIVER_MEM", "3g")
    assert driver_memory() == ("3g", "env:SPARK_DRIVER_MEM")


def test_fallback_is_half_of_physical_memory(monkeypatch, tmp_path, no_env):
    monkeypatch.setattr(session, "CGROUP_LIMITS", (str(tmp_path / "absent"),))
    mem, src = driver_memory()
    assert src == "half of physical memory"
    assert mem == f"{max(1, PHYS // 2 >> 30)}g"
    assert int(mem[:-1]) << 30 <= PHYS


@pytest.mark.parametrize("raw", ["max", "9223372036854771712", "not a number"])
def test_unbounded_or_unreadable_cgroup_limit_is_ignored(monkeypatch, tmp_path, no_env, raw):
    limit = tmp_path / "memory.max"
    limit.write_text(raw + "\n")
    monkeypatch.setattr(session, "CGROUP_LIMITS", (str(limit),))
    assert driver_memory()[1] == "half of physical memory"


def test_bounded_cgroup_limit_caps_the_heap(monkeypatch, tmp_path, no_env):
    limit = tmp_path / "memory.max"
    limit.write_text(f"{PHYS // 2}\n")
    monkeypatch.setattr(session, "CGROUP_LIMITS", (str(limit),))
    mem, src = driver_memory()
    assert src == f"75% of cgroup {limit}={PHYS // 2}"
    assert mem == f"{max(1, (PHYS // 2) * 3 // 4 >> 30)}g"
    assert int(mem[:-1]) << 30 <= PHYS
