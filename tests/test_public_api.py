"""Every public module-level function, class and assigned name of the
package is used by the package or its benchmark, or exported in
`terragp.__all__`.

A function only the tests call belongs in `tests/helpers.py`.  A name
counts as used where it appears as an identifier (a call, an attribute
or a reference) or as a whole string literal, as the benchmark's traced
layers name their functions (`kernels.gram_gradients` and `gram_dr2`
are used nowhere else); its own definition and its imports do not
count, and neither does the assignment that binds a name (an alias such
as `f = _g` is a public name like any other)."""

import ast
from pathlib import Path

import terragp

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "terragp"


def used_names(paths) -> set[str]:
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return used


def public_definitions(path) -> list[str]:
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [
                n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            ]
    return [name for name in names if not name.startswith("_")]


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

