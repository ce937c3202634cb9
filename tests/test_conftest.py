"""A failing property test is reported like any other failing test under the
repository's pytest settings (``filterwarnings = ["error"]``) and conftest,
and the tests after it still run."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_failing_property_test_does_not_end_the_session(tmp_path):
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_two.py").write_text(_TWO_TESTS)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
