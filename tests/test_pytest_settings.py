"""The suite's own pytest settings keep reporting tests one by one."""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    # On a failure hypothesis imports libcst, whose import warns with a
    # DeprecationWarning; as an error that aborted the whole session.
    (tmp_path / "test_child.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True, database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """))
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = child.stdout + child.stderr
    assert child.returncode == 1, output
    assert "1 failed, 1 passed" in output
    assert "INTERNALERROR" not in output
