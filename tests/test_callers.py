"""Every public function, class, method and constant, and every module-level
private function, in ``src/gwsim`` has a use in ``src``; no module imports
another's private name; and the package itself defines nothing.

Code whose only callers are tests is reachable from no ``gwsim`` command,
and so is a parameter default that only tests leave out: every default in
``src`` is left out by at least one ``src`` call.
The scan is syntactic: a name counts as used where a ``Name`` or
``Attribute`` node outside its own definition spells it, in any module but
``__init__`` (which defines nothing: code imports from the modules).
Docstrings are constants, so they never count. A constant is a module-level
assignment to an upper-case name; a method is a public class's public method
or property. The scan goes by name alone, so a method whose name a variable
in ``src`` also spells counts as used.
"""

import ast
import os
import re
import subprocess
import sys
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


def _private_imports(modules):
    """``importer: module.name`` for each ``_``-prefixed name a module imports
    from a module of the package."""
    for importer, tree in modules.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or (node.module or "").partition(".")[0] == "gwsim":
                for alias in node.names:
                    if alias.name.startswith("_"):
                        yield f"{importer}: {node.module}.{alias.name}"


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


def _defaults(modules):
    """``module.function(parameter=)`` for each parameter default, with the
    function's name, the parameter's name and its position among those a
    call fills (a method's first parameter is its instance)."""
    for module, tree in modules.items():
        methods = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = (args.posonlyargs + args.args)[id(node) in methods :]
            named = positional[len(positional) - len(args.defaults) :]
            named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for arg in named:
                position = positional.index(arg) if arg in positional else None
                yield f"{module}.{node.name}({arg.arg}=)", node.name, arg.arg, position


def _commands(modules) -> set[str]:
    """The functions ``cli.COMMANDS`` names: ``parse_args`` passes each only
    the flags given, as ``**arguments``, so each leaves out every default."""
    (table,) = [
        node.value
        for node in modules["cli"].body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "COMMANDS"
    ]
    return {entry.elts[0].id for entry in table.values}


def _defaults_never_left_out(modules) -> list[str]:
    calls: dict[str, list[ast.Call]] = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    commands = _commands(modules)

    def leaves_out(call, parameter, position):
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords
        ):
            return False  # what a * or ** call passes is not read here
        passed = position is not None and position < len(call.args)
        return not passed and parameter not in {k.arg for k in call.keywords}

    return [
        qualified
        for qualified, function, parameter, position in _defaults(modules)
        if function not in commands
        and not any(leaves_out(c, parameter, position) for c in calls.get(function, []))
    ]


def test_every_parameter_default_is_left_out_by_a_call_in_src():
    # A default that only tests leave out is a knob only tests turn.
    assert _defaults_never_left_out(_modules()) == []


def test_the_default_scan_sees_defaults_only_a_call_in_src_leaves_out():
    source = (
        "def f(a, b=1, *, c=2): return f(a, 2, c=3)\n"
        "def g(a, b=1): return g(a, b=2)\n"
        "def h(a=1): return h(a=2)\n"
        "def p(a, b=1): return p(0, 1)\n"
        "def q(a=1): return q(**{})\n"
        "def r(a=1): return r(*[])\n"
        "def run(config, flag=False): pass\n"
        "COMMANDS = {'run': (run, 'help', '')}\n"
        "class K:\n"
        "    def m(self, x, y=0): return self.m(x)\n"
        "    def n(self, x=0): return self.n(1)\n"
        "f(0)\n"
        "g(0)\n"
    )
    modules = {"cli": ast.parse(source)}
    found = [q for q, *_ in _defaults(modules)]
    assert found == [
        "cli.f(b=)", "cli.f(c=)", "cli.g(b=)", "cli.h(a=)", "cli.p(b=)", "cli.q(a=)",
        "cli.r(a=)", "cli.run(flag=)", "cli.m(y=)", "cli.n(x=)",
    ]
    assert _defaults_never_left_out(modules) == [
        "cli.h(a=)", "cli.p(b=)", "cli.q(a=)", "cli.r(a=)", "cli.n(x=)"
    ]


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


def test_no_module_imports_another_modules_private_name():
    # A helper another module calls is that module's API, so it has a public name.
    assert list(_private_imports(_modules())) == []


def test_the_import_scan_sees_private_names_from_the_package():
    source = (
        "from __future__ import annotations\n"
        "from ._x import _a, b\n"
        "from .y import c, _d\n"
        "from gwsim.w import _e\n"
        "from os import _exit\n"
        "def f():\n"
        "    from .z import _g\n"
    )
    found = list(_private_imports({"m": ast.parse(source)}))
    assert found == ["m: _x._a", "m: y._d", "m: gwsim.w._e", "m: z._g"]


def test_importing_the_package_loads_only_the_package():
    # ``gwsim`` re-exports nothing, so importing it loads no submodule and no numpy.
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    code = "import sys; before = set(sys.modules); import gwsim; print(*set(sys.modules) - before)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["gwsim"]
