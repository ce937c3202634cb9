"""Every demo runs to completion as a script."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", [path.name for path in sorted((ROOT / "demos").glob("*.py"))])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, capture_output=True,
        text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
