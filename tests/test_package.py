import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import setcomplete

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"


def test_every_public_name_resolves():
    missing = [name for name in setcomplete.__all__ if not hasattr(setcomplete, name)]
    assert not missing


def test_readme_names_only_code_that_exists():
    # every backticked `module.name` of the package, every backticked
    # `Class.attr` of a class the package defines, and every backticked
    # ALL_CAPS constant, must name something the modules define
    modules = {m.name: importlib.import_module(f"setcomplete.{m.name}") for m in pkgutil.iter_modules(setcomplete.__path__)}
    classes = {name: obj for mod in modules.values() for name, obj in vars(mod).items()
               if isinstance(obj, type) and obj.__module__ == mod.__name__}
    spans = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
    named = [m.groups() for span in spans for m in re.finditer(r"(?<![\w.])([a-z_]+)\.(\w+)", span) if m[1] in modules]
    attrs = [m.groups() for span in spans for m in re.finditer(r"(?<!\w)([A-Z]\w*)\.(\w+)", span) if m[1] in classes]
    constants = [span for span in spans if re.fullmatch(r"[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+", span)]
    assert named and attrs and constants
    assert [f"{mod}.{name}" for mod, name in named if not hasattr(modules[mod], name)] == []
    assert [f"{cls}.{attr}" for cls, attr in attrs
            if not hasattr(classes[cls], attr) and attr not in getattr(classes[cls], "__dataclass_fields__", {})] == []
    assert [c for c in constants if not any(hasattr(mod, c) for mod in modules.values())] == []


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
