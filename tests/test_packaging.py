"""pyproject.toml declares only what the package has."""

import importlib
import pathlib
import re
import tomllib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def test_every_script_target_imports():
    for name, target in PROJECT.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name!r} target {target!r} is not callable"


def test_every_dependency_is_imported():
    source = "\n".join(p.read_text() for p in (ROOT / "src" / "demuskin").glob("*.py"))
    for dep in PROJECT.get("dependencies", []):
        name = re.match(r"[A-Za-z0-9_.-]+", dep).group(0).replace("-", "_")
        assert re.search(rf"^\s*(import|from) {name}\b", source, re.M), \
            f"dependency {dep!r} is never imported"
