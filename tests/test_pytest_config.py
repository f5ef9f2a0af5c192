"""The pytest configuration in pyproject.toml reports a failing test as a failure.

A failing Hypothesis test makes the hypothesis plugin import libcst, whose
import emits a DeprecationWarning; pyproject.toml turns DeprecationWarnings
into errors, and one raised there would end the session in INTERNALERROR.
"""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_hypothesis_test_is_one_failure(tmp_path):
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_sample.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 5\n\n\n"
        "def test_passes():\n"
        "    pass\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = result.stdout + result.stderr
    assert "INTERNALERROR" not in out
    assert "FAILED tests/test_sample.py::test_fails" in out
    assert "PASSED tests/test_sample.py::test_passes" in out
    assert result.returncode == 1
