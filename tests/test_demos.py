"""Every narrative script in demos/ runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs_clean(script, tmp_path):
    # conftest exports src on PYTHONPATH; run from a scratch directory so a
    # demo cannot leave files in the checkout.
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, cwd=tmp_path, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
