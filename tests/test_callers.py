"""Every public function, class, method and constant, and every module-level
private function, in ``src/gwsim`` has a use in ``src``.

Code whose only callers are tests is reachable from no ``gwsim`` command.
The scan is syntactic: a name counts as used where a ``Name`` or
``Attribute`` node outside its own definition spells it, in any module but
``__init__`` (which only re-exports). Docstrings and ``__all__`` strings are
constants, so they never count. A constant is a module-level assignment to
an upper-case name; a method is a public class's public method or property.
The scan goes by name alone, so a method whose name a variable in ``src``
also spells counts as used.
"""

import ast
import re
from pathlib import Path

import gwsim

SRC = Path(gwsim.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"

# Kept without a caller in src, each for a stated reason.
ALLOWED_WITHOUT_CALLER = {
    "scenario.evolve_to": "named by BENCHMARK.json; the tests' replay oracle for analyze_stack",
    "scenario.support_constraint": (
        "named by BENCHMARK.json; the tests' reference for the stacked pass"
    ),
    "measurement.measure": "named by BENCHMARK.json; the tests' per-trial reference samplers",
    "models.born_violation_check": "named by BENCHMARK.json; the tests' check of violation_mask",
    "models.trial_rng": "the tests' reference uniforms for the device stream",
    "measurement.haar_random_unitary": (
        "named by BENCHMARK.json; the tests' Haar draws from a numpy Generator"
    ),
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
                yield f"{module}.{node.name}", node.name, node


def _private_functions(modules):
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                yield f"{module}.{node.name}", node.name, node


def _public_methods(modules):
    for module, tree in modules.items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                        yield f"{module}.{cls.name}.{node.name}", node.name, node


def _public_constants(modules):
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    if not target.id.startswith("_"):
                        yield f"{module}.{target.id}", target.id, node


def _spelled_names(modules):
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id, node
            elif isinstance(node, ast.Attribute):
                yield node.attr, node


def _unused(modules, definitions) -> list[str]:
    """Qualified names of the definitions no node outside them spells."""
    uses: dict[str, list[ast.AST]] = {}
    for name, node in _spelled_names(modules):
        uses.setdefault(name, []).append(node)
    unused = []
    for qualified, name, definition in definitions:
        own = {id(node) for node in ast.walk(definition)}
        if not any(id(node) not in own for node in uses.get(name, [])):
            unused.append(qualified)
    return unused


def test_every_public_definition_has_a_caller_in_src():
    modules = _modules()
    callerless = _unused(modules, _public_definitions(modules))
    assert sorted(set(callerless) - set(ALLOWED_WITHOUT_CALLER)) == []


def test_allowlisted_names_have_no_caller_in_src():
    # An entry whose name gained a caller no longer needs its exemption.
    modules = _modules()
    callerless = _unused(modules, _public_definitions(modules))
    assert sorted(set(ALLOWED_WITHOUT_CALLER) - set(callerless)) == []


def test_every_public_method_has_a_caller_in_src():
    modules = _modules()
    assert _unused(modules, _public_methods(modules)) == []


def test_the_method_scan_sees_public_methods_and_properties():
    source = (
        "class K:\n"
        "    def __new__(cls): return cls.used(cls)\n"
        "    def used(self): return self.shown\n"
        "    @property\n"
        "    def shown(self): return 1\n"
        "    @property\n"
        "    def unread(self): return self.unread\n"
        "    def _private(self): pass\n"
        "class _Hidden:\n"
        "    def method(self): pass\n"
    )
    modules = {"m": ast.parse(source)}
    found = [q for q, _, _ in _public_methods(modules)]
    assert found == ["m.K.used", "m.K.shown", "m.K.unread"]
    assert _unused(modules, _public_methods(modules)) == ["m.K.unread"]


def test_every_private_function_has_a_caller_in_src():
    # A helper whose last caller went is dead code, public or not.
    modules = _modules()
    assert _unused(modules, _private_functions(modules)) == []


def test_the_private_scan_sees_module_level_private_functions():
    source = (
        "def _used(): return _helper()\n"
        "def _helper(): return 1\n"
        "def _left(): return _left()\n"
        "def public(): return _used()\n"
        "class _K:\n"
        "    def _method(self): pass\n"
    )
    modules = {"m": ast.parse(source)}
    found = [q for q, _, _ in _private_functions(modules)]
    assert found == ["m._used", "m._helper", "m._left"]
    assert _unused(modules, _private_functions(modules)) == ["m._left"]


def test_every_public_constant_has_a_reader_in_src():
    modules = _modules()
    assert _unused(modules, _public_constants(modules)) == []


def test_the_constant_scan_sees_module_level_constants():
    modules = {"m": ast.parse("A_B = 1\nC: int = 2\n_D = 3\ne = 4\nF = A_B\n")}
    assert [q for q, _, _ in _public_constants(modules)] == ["m.A_B", "m.C", "m.F"]
    assert _unused(modules, _public_constants(modules)) == ["m.C", "m.F"]


def test_allowlist_names_only_existing_definitions():
    defined = {qualified for qualified, _, _ in _public_definitions(_modules())}
    assert set(ALLOWED_WITHOUT_CALLER) <= defined


def test_readme_names_every_allowlisted_entry():
    # The README item that introduces the allowlist names each entry's function.
    items = re.split(r"\n(?:\n|\* )", README.read_text(encoding="utf-8"))
    (item,) = [text for text in items if "`ALLOWED_WITHOUT_CALLER`" in text]
    unnamed = [q for q in ALLOWED_WITHOUT_CALLER if f"`{q.rpartition('.')[2]}`" not in item]
    assert unnamed == []


def test_every_exported_name_resolves():
    missing = [name for name in gwsim.__all__ if not hasattr(gwsim, name)]
    assert missing == []
