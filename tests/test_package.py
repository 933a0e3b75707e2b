import os
import subprocess
import sys
from pathlib import Path

import setcomplete

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_public_name_resolves():
    missing = [name for name in setcomplete.__all__ if not hasattr(setcomplete, name)]
    assert not missing


def test_importing_the_package_and_cli_leaves_scipy_unloaded():
    # a fresh interpreter: this one may already hold scipy through other test modules
    code = "import sys, setcomplete, setcomplete.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_computing_the_interval_loads_scipy_special_but_not_scipy_stats():
    code = (
        "import sys, setcomplete.evaluation as e; e.binomial_ci(13, 100); "
        "print('scipy.stats' in sys.modules, 'scipy.special' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]
