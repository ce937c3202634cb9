"""The demos that finish in seconds run to completion as scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    ["01_encoding_and_decoding.py", "02_chimera_embedding.py", "04_thermal_boost.py",
     "05_meanfield_landscape.py"],
)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, capture_output=True,
        text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
