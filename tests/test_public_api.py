"""Every public module-level function and class of the package is used
by the package or its benchmark, or exported in `terragp.__all__`.

A function only the tests call belongs in `tests/helpers.py`.  A name
counts as used where it appears as an identifier (a call, an attribute
or a reference) or as a whole string literal, as the benchmark's traced
layers name their functions (`kernels.gram_gradients` and `gram_dr2`
are used nowhere else); its own definition and its imports do not
count."""

import ast
from pathlib import Path

import terragp

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "terragp"


def used_names(paths) -> set[str]:
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return used


def public_definitions(path) -> list[str]:
    return [
        node.name
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def test_every_public_definition_has_a_non_test_user():
    modules = sorted(SRC.glob("*.py"))
    used = used_names(modules + sorted((ROOT / "perfbench").glob("*.py")))
    used |= set(terragp.__all__)
    unused = [
        f"{path.stem}.{name}"
        for path in modules
        for name in public_definitions(path)
        if name not in used
    ]
    assert unused == [], f"public but used only by tests (move to tests/helpers.py): {unused}"

