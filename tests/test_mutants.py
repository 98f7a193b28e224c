"""The mutation harness (scripts/mutants.py): each run of the test command is
bounded in memory as well as in time, so a mutant that never ends fails early."""

import importlib.util
import os
import sys

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "mutants.py")
spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


def mapping(size: int) -> list[str]:  # a child that maps size bytes, untouched
    return [sys.executable, "-c", f"import mmap; mmap.mmap(-1, {size})"]


def test_a_child_past_the_memory_limit_fails(tmp_path):
    # 4 GiB asked for and never touched: the kernel would lend it unbounded
    assert not mutants.passes(mapping(1 << 32), "", str(tmp_path), 60)
    assert mutants.passes(mapping(1 << 20), "", str(tmp_path), 60)
    assert mutants.MEMORY_LIMIT < 1 << 32
