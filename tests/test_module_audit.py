"""Every module under ``src/repro`` and every rack option earns its place.

A module must be imported by name from program code — ``src/`` outside
its own package ``__init__``, ``benchmarks/`` or ``examples/`` — or sit
in :data:`ALLOWLIST` with a one-line reason.  A module that only its
tests import backs no figure, ablation or example; it goes with its test.
The program uses absolute imports only, so the walk reads no relative
ones.

Likewise a field of the rack config hierarchy must be set by program
code, be re-declared with another default further down the hierarchy,
or sit in :data:`OPTION_ALLOWLIST`: an option with one value in use is a
constant.
"""

import ast
import dataclasses
from pathlib import Path

from repro.faults.runner import ChaosConfig
from repro.sim.cluster import ClusterConfig
from repro.sim.simcore import SimCoreConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

ALLOWLIST = {
    "repro.core.pipeline": "DESIGN §2's stage-fit model of the pipeline",
    "repro.net.wire": "the on-wire format the golden wire tests pin",
    "repro.tools.__main__": "entry point of `python -m repro.tools`",
    "repro.obs.export": "re-exported as repro.obs.*; tools/perf calls it",
}


#: rack options no program sets yet, each with why it stays an option.
OPTION_ALLOWLIST = {
    "link_latency": "the per-hop latency behind Fig 10(c); a link sweep "
                    "sets it",
}

#: the rack config hierarchy, base first.
CONFIGS = (ClusterConfig, SimCoreConfig, ChaosConfig)

#: calls whose keywords set rack options: the configs themselves,
#: ``dataclasses.replace``, the rack and chaos shortcuts, and ``dict``
#: (keyword sets splatted into a config).
CONFIG_BUILDERS = {"ClusterConfig", "SimCoreConfig", "ChaosConfig",
                   "replace", "make_cluster", "run_chaos", "dict"}


def _program_files():
    yield from SRC.rglob("*.py")
    for tree in ("benchmarks", "examples"):
        yield from (ROOT / tree).rglob("*.py")


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
    for path in _program_files():
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


def _set_options():
    """Names program code passes to a config builder as a keyword, or
    uses as a string key of a dict literal (per-scenario overrides)."""
    names = set()
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.attr if isinstance(func, ast.Attribute)
                        else getattr(func, "id", None))
                if name in CONFIG_BUILDERS:
                    names.update(kw.arg for kw in node.keywords if kw.arg)
            elif isinstance(node, ast.Dict):
                names.update(key.value for key in node.keys
                             if isinstance(key, ast.Constant)
                             and isinstance(key.value, str))
    return names


def test_every_rack_option_is_set_by_a_program():
    defaults = {}
    for config in CONFIGS:
        for field in dataclasses.fields(config):
            defaults.setdefault(field.name, set()).add(repr(field.default))
    redeclared = {name for name, seen in defaults.items() if len(seen) > 1}
    unset = (set(defaults) - _set_options() - redeclared
             - set(OPTION_ALLOWLIST))
    assert sorted(unset) == []


def test_option_allowlist_names_real_options():
    fields = {field.name for config in CONFIGS
              for field in dataclasses.fields(config)}
    assert set(OPTION_ALLOWLIST) <= fields
