import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_console_scripts_resolve_to_callables():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"console script {name} -> {target}"


@pytest.mark.parametrize("package", ["numpy", "scipy"])
def test_dependency_floor_is_what_the_min_versions_job_installs(package):
    # read as text, so that the check also runs on Python 3.10 (no tomllib)
    floors = re.findall(rf'"{package}>=([0-9.]+)"', PYPROJECT.read_text())
    pins = re.findall(rf'"{package}==([0-9.]+)\.\*"', WORKFLOW.read_text())
    assert len(floors) == 1, f"pyproject.toml floors of {package}: {floors}"
    assert len(pins) == 1, f"min-versions pins of {package}: {pins}"
    assert floors == pins
