"""The suite's pytest configuration reports a failing test as it should."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_a_failing_property_prints_its_example_and_the_session_goes_on(tmp_path):
    # Hypothesis imports libcst to report a failure, and libcst raises a
    # DeprecationWarning on import; under error::DeprecationWarning alone that
    # ended the session in an INTERNALERROR, with no example and no later test
    (tmp_path / "test_tiny.py").write_text(_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_tiny.py"],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "Falsifying example" in result.stdout
    assert "1 failed, 1 passed" in result.stdout
