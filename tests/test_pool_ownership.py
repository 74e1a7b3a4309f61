"""Every thread in the package comes from ``donn.propagation``'s pool.

Stages run on worker threads only through ``propagation.map_chunks``,
whose chunks write into arrays the calling thread allocated. Work handed
to threads any other way, such as whole HIBL layers realized side by
side, allocates in the workers' own malloc arenas and raises peak
memory. This scan keeps such a path from appearing: no module other
than ``propagation.py`` may name ``ThreadPoolExecutor`` or ``_POOL``.
"""

import ast
from pathlib import Path

import donn

SOURCES = sorted(Path(donn.__file__).parent.glob("*.py"))
POOL_NAMES = {"ThreadPoolExecutor", "_POOL"}


def _pool_uses(tree):
    """Each use of a pool name: imported, referenced or read as an attribute."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            uses += [a.name for a in node.names if a.name.rsplit(".", 1)[-1] in POOL_NAMES]
        elif isinstance(node, ast.Name) and node.id in POOL_NAMES:
            uses.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in POOL_NAMES:
            uses.append(node.attr)
    return uses


def test_only_propagation_owns_the_pool():
    owners = [p.name for p in SOURCES if _pool_uses(ast.parse(p.read_text()))]
    assert owners == ["propagation.py"]


def test_scan_catches_a_second_pool():
    uses = _pool_uses(ast.parse(
        "import concurrent.futures\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from . import propagation\n"
        "pool = concurrent.futures.ThreadPoolExecutor(2)\n"
        "propagation._POOL.submit(print)\n"
    ))
    assert sorted(uses) == ["ThreadPoolExecutor", "ThreadPoolExecutor", "_POOL"]
