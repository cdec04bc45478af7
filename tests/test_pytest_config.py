"""The suite's own pytest configuration: a failing property is reported
as a failure, and the session goes on."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
"""


def test_a_failing_property_does_not_end_the_session(tmp_path):
    # hypothesis imports libcst to write its failing-example patch, and a
    # warning raised there as an error used to end the run with exit 3
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out, out
