"""Every public function and class in ``src/gwsim`` has a caller in ``src``.

Code whose only callers are tests is reachable from no ``gwsim`` command.
The scan is syntactic: a name counts as used where a ``Name`` or
``Attribute`` node outside its own definition spells it, in any module but
``__init__`` (which only re-exports). Docstrings and ``__all__`` strings are
constants, so they never count.
"""

import ast
from pathlib import Path

import gwsim

SRC = Path(gwsim.__file__).parent

# Kept without a caller in src, each for a stated reason.
ALLOWED_WITHOUT_CALLER = {
    "scenario.evolve_to": "named by BENCHMARK.json; the tests' replay oracle for analyze",
    "measurement.measure": "named by BENCHMARK.json; the tests' per-trial reference samplers",
    "models.born_violation_check": "named by BENCHMARK.json; the tests' check of violation_mask",
}


def _modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


def _public_definitions(modules):
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{module}.{node.name}", node


def _spelled_names(modules):
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id, node
            elif isinstance(node, ast.Attribute):
                yield node.attr, node


def test_every_public_definition_has_a_caller_in_src():
    modules = _modules()
    uses: dict[str, list[ast.AST]] = {}
    for name, node in _spelled_names(modules):
        uses.setdefault(name, []).append(node)
    callerless = []
    for qualified, definition in _public_definitions(modules):
        own = {id(node) for node in ast.walk(definition)}
        if not any(id(node) not in own for node in uses.get(definition.name, [])):
            callerless.append(qualified)
    assert sorted(set(callerless) - set(ALLOWED_WITHOUT_CALLER)) == []


def test_allowlist_names_only_existing_definitions():
    defined = {qualified for qualified, _ in _public_definitions(_modules())}
    assert set(ALLOWED_WITHOUT_CALLER) <= defined


def test_every_exported_name_resolves():
    missing = [name for name in gwsim.__all__ if not hasattr(gwsim, name)]
    assert missing == []
