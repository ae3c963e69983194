"""Every module under ``src/repro`` earns its place.

A module must be imported by name from program code — ``src/`` outside
its own package ``__init__``, ``benchmarks/`` or ``examples/`` — or sit
in :data:`ALLOWLIST` with a one-line reason.  A module that only its
tests import backs no figure, ablation or example; it goes with its test.
The program uses absolute imports only, so the walk reads no relative
ones.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

ALLOWLIST = {
    "repro.core.pipeline": "DESIGN §2's stage-fit model of the pipeline",
    "repro.net.wire": "the on-wire format the golden wire tests pin",
    "repro.tools.__main__": "entry point of `python -m repro.tools`",
    "repro.obs.export": "re-exported as repro.obs.*; tools/perf calls it",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _imported_names(path: Path):
    """Dotted names *path* imports, with ``from a import b`` as ``a.b``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _unused_modules():
    modules = {_module_name(p) for p in SRC.rglob("*.py")
               if p.name != "__init__.py"}
    used = set()
    importers = list(SRC.rglob("*.py"))
    for tree in ("benchmarks", "examples"):
        importers += (ROOT / tree).rglob("*.py")
    for path in importers:
        own_package = (_module_name(path) if path.name == "__init__.py"
                       and SRC in path.parents else None)
        for name in _imported_names(path):
            if name in modules and name.rpartition(".")[0] != own_package:
                used.add(name)
    return sorted(modules - used - set(ALLOWLIST))


def test_every_module_is_used_outside_the_tests():
    assert _unused_modules() == []


def test_allowlist_names_real_modules():
    for name in ALLOWLIST:
        assert (SRC / Path(*name.split("."))).with_suffix(".py").exists(), name
