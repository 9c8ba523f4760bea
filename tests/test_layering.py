"""The package's module layering, read from its source with ``ast``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qps"


def _imported(node) -> set:
    """The qps modules (and other top-level names) an import statement brings in."""
    if isinstance(node, ast.Import):
        return {alias.name.removeprefix("qps.") for alias in node.names}
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "qps":
            return set()
        module = module.removeprefix("qps").lstrip(".")
        return {module.split(".")[0]} if module else {alias.name for alias in node.names}
    return set()


def test_only_wh_model_touches_the_family_store_and_only_cli_imports_transform():
    store, transform = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # grid._family, read or written, or named as a string for getattr and setattr
            if (isinstance(node, ast.Attribute) and node.attr == "_family") or (
                isinstance(node, ast.Constant) and node.value == "_family"
            ):
                store.add(path.stem)
            if "transform" in _imported(node):
                transform.add(path.stem)
    assert store == {"wh_model"}
    assert transform == {"cli"}
