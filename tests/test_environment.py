"""No module in ``src/gwsim`` reads the environment.

A report then depends only on its command line and config file, so the
command line a report echoes is enough to reproduce it. The scan is
syntactic, like ``tests/test_callers.py``: it flags every attribute access
and every ``from os import`` that names one of the environment readers.
"""

import ast
from pathlib import Path

import gwsim

SRC = Path(gwsim.__file__).parent
READERS = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree: ast.Module) -> list[int]:
    """The line numbers where the module names an environment reader."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in READERS:
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            lines += [node.lineno for alias in node.names if alias.name in READERS]
    return sorted(lines)


def test_no_module_reads_the_environment():
    reads = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := _environment_reads(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert reads == {}


def test_the_scan_sees_each_way_of_reading_the_environment():
    source = (
        "import os\n"
        "import os as system\n"
        "from os import getenv\n"
        "from os import environ as env, path\n"
        "a = os.environ.get('X')\n"
        "b = system.getenv('X')\n"
        "c = os.environb\n"
        "d = os.path.join('a', 'b')\n"
        "e = os.devnull\n"
    )
    assert _environment_reads(ast.parse(source)) == [3, 4, 5, 6, 7]
