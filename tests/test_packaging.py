"""The package declares only what it uses, and contains only what it calls."""

import ast
import collections
import importlib
import pathlib
import re
import sys
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


def requirement_name(req):
    return re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")


def test_every_test_import_is_declared():
    """Each non-stdlib top-level module that a test suite imports is either
    local (the package, or a module next to the tests) or in the test extra."""
    suites = sorted((ROOT / "tests").glob("*.py")) + [ROOT / "perfbench" / "test_perfbench.py"]
    local = {"demuskin"} | {p.stem for d in ("tests", "perfbench")
                            for p in (ROOT / d).glob("*.py")}
    declared = {requirement_name(r) for r in PROJECT["optional-dependencies"]["test"]}
    for path in suites:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for top in {m.partition(".")[0] for m in modules}:
                assert top in sys.stdlib_module_names or top in local or top in declared, \
                    f"{path.name} imports {top!r}, which the test extra does not declare"


def test_src_imports_are_used():
    """Every name a module of the package imports is read somewhere in it."""
    for path in sorted((ROOT / "src" / "demuskin").glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            for name in bound:
                assert name in read, f"{path.name} imports {name!r} and never uses it"


def test_every_src_definition_has_a_caller():
    """Every top-level function or class and every non-dunder method of the
    package is named somewhere in the package outside its own definition,
    or in the benchmark, whose tracer names its targets as strings."""
    trees = [ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "demuskin").glob("*.py"))]
    bench = [ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))]

    def mentions(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                yield sub.value

    total = collections.Counter(name for tree in trees + bench for name in mentions(tree))
    definitions = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append(node)
            if isinstance(node, ast.ClassDef):
                definitions.extend(
                    m for m in node.body if isinstance(m, ast.FunctionDef)
                    and not (m.name.startswith("__") and m.name.endswith("__")))
    uncalled = [d.name for d in definitions
                if total[d.name] == collections.Counter(mentions(d))[d.name]]
    assert uncalled == [], f"defined in src/demuskin and never called: {uncalled}"
