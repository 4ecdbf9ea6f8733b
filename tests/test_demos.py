"""Smoke test: every narrative script in demos/ runs to completion, and the
README's library tour prints what it says."""

import doctest
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS  # an empty glob would silently skip every case below


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_tour():
    failures, attempted = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert attempted and not failures
