"""The demo scripts run to completion, and the bundled data regenerates exactly.

Each script in demos/ runs in its own interpreter against the package the
tests import.  build_bundled_data.py writes into a temporary directory;
every file under src/contextdep/data/ must come out byte for byte, which
checks the simulator end to end (the neighbor dataset is sampled from
simulated probabilities).
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import contextdep
from contextdep.datasets import data_path

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SCRIPTS = sorted(p.name for p in DEMOS.glob("*.py"))


def import_demo(name):
    """A script in demos/ as a module, without running its main: the
    design and error-model writers live in build_bundled_data."""
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name, *args):
    package_root = str(Path(contextdep.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=package_root + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, str(DEMOS / name), *args], env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", [s for s in SCRIPTS if s != "build_bundled_data.py"])
def test_demo_runs(name):
    proc = run_script(name)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_bundled_data_regenerates_byte_for_byte(tmp_path):
    proc = run_script("build_bundled_data.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    bundled = data_path("design_drift.json").parent
    names = sorted(p.name for p in bundled.glob("*.json"))
    assert names == sorted(p.name for p in tmp_path.iterdir())
    for name in names:
        assert (tmp_path / name).read_bytes() == (bundled / name).read_bytes(), name
