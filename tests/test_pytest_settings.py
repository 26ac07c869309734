"""The repository's pytest settings, applied to a small throwaway suite."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SUITE = '''
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers(), st.integers())
def test_failing_property(x, y):
    assert x < 10


def test_deprecated_call():
    warnings.warn("old API", DeprecationWarning)
'''


def test_failing_property_shows_its_example_and_deprecations_still_fail(tmp_path):
    (tmp_path / "test_suite.py").write_text(SUITE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_suite.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "2 failed" in out
