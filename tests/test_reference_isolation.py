"""Parity oracles stay out of production code.

Every reference implementation lives in :mod:`repro.reference`.  Only
tests and the bench parity sections (``repro/exec/bench.py``) may import
it, and the engine/kernel switches that used to expose the oracles from
production classes must not come back anywhere else.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
# Paths relative to SRC that may use the oracles.
ALLOWED_FILES = {"exec/bench.py"}
ALLOWED_DIR = "reference/"
BANNED_STRINGS = ('engine="legacy"', "tree_kernel", "predict_tree_loop")


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), path


def _is_production(rel: str) -> bool:
    return not rel.startswith(ALLOWED_DIR) and rel not in ALLOWED_FILES


def _imported_modules(rel: str, tree: ast.AST) -> list[str]:
    """Absolute names of every module ``tree`` imports, including
    ``from repro import reference``, relative imports and
    ``importlib.import_module("...")`` / ``__import__("...")`` calls
    with a literal name."""
    package = ["repro", *rel.split("/")[:-1]]
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module or ""
            names.append(module)
            names += [f"{module}.{alias.name}" for alias in node.names]
        elif (
            isinstance(node, ast.Call)
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
            and (
                (isinstance(node.func, ast.Name) and node.func.id == "__import__")
                or (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "import_module")
            )
        ):
            names.append(node.args[0].value)
    return names


def _imports_reference(rel: str, source: str) -> bool:
    return any(
        name == "repro.reference" or name.startswith("repro.reference.")
        for name in _imported_modules(rel, ast.parse(source))
    )


def test_only_bench_and_reference_import_the_oracles():
    offenders = [
        rel for rel, path in _modules()
        if _is_production(rel) and _imports_reference(rel, path.read_text())
    ]
    assert offenders == []


def test_detector_sees_the_allowed_importer():
    # Guards against a vacuous pass: the bench parity sections do import
    # the oracles, so the detector must flag them.
    rel = "exec/bench.py"
    assert _imports_reference(rel, (SRC / rel).read_text())


@pytest.mark.parametrize("snippet", [
    "import repro.reference",
    "from repro.reference import TunableAdvisor",
    "from repro.reference.trees import predict_tree_loop",
    "from repro import reference",
    "from ..reference import ReferenceContentionComputer",
    "importlib.import_module('repro.reference')",
    "def f():\n    from repro.reference import endpoint_columns\n",
])
def test_detector_catches_import_forms(snippet):
    assert _imports_reference("serve/batch.py", snippet)


def test_removed_switches_stay_removed():
    offenders = [
        (rel, banned)
        for rel, path in _modules() if _is_production(rel)
        for banned in BANNED_STRINGS if banned in path.read_text()
    ]
    assert offenders == []
