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


def _names(path: Path, name: str) -> bool:
    """True when the module at ``path`` names the attribute ``name``: ``x.name``, read or
    written, or ``name`` as a string for getattr and setattr."""
    return any(
        (isinstance(node, ast.Attribute) and node.attr == name) or (isinstance(node, ast.Constant) and node.value == name)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    )


def test_only_wh_model_touches_the_family_store_and_only_cli_imports_transform():
    store, transform = set(), set()
    for path in sorted(SRC.glob("*.py")):
        if _names(path, "_family"):
            store.add(path.stem)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if "transform" in _imported(node):
                transform.add(path.stem)
    assert store == {"wh_model"}
    assert transform == {"cli"}


def test_only_wh_model_reads_the_grid_slots():
    # the slot layout is read by PhaseGrid.locate and PhaseGrid.reflections alone
    assert {path.stem for path in sorted(SRC.glob("*.py")) if _names(path, "slots")} == {"wh_model"}
