"""Every module, rack option and public symbol under ``src/repro`` earns
its place.

Program code is ``src/`` outside package ``__init__`` re-exports, plus
the trees under :data:`CI_TREES` that a CI step runs: a tree nothing
runs keeps nothing alive.  Each program file is parsed once and the
parse is shared by the three audits.

A module must be imported by name from program code or sit in
:data:`ALLOWLIST` with a one-line reason.  A module that only its tests
import backs no figure, ablation or example; it goes with its test.
The program uses absolute imports only, so the walk reads no relative
ones.

Likewise a field of the rack config hierarchy must be set by program
code, be re-declared with another default further down the hierarchy,
or sit in :data:`OPTION_ALLOWLIST`: an option with one value in use is a
constant.

And a public top-level function or class, a public method, or an
UPPER_CASE module-level constant must be referenced from program code
outside its own body (or value) — by name, attribute, import, string
annotation or string attribute name — or sit in :data:`SYMBOL_ALLOWLIST`.
References are matched by name, so a name any live definition shares
keeps every definition of it alive; the rule runs to a fixed point, so a
reference from a dead body keeps nothing alive.

Last, no file under ``src/`` or ``tests/`` imports a name it never loads
(package ``__init__`` re-exports and ``__future__`` imports aside).
"""

import ast
import dataclasses
import functools
import inspect
import re
from pathlib import Path

from repro.faults.runner import ChaosConfig
from repro.sim.cluster import ClusterConfig
from repro.sim.simcore import SimCoreConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CI = ROOT / ".github" / "workflows" / "ci.yml"

ALLOWLIST = {
    "repro.core.pipeline": "DESIGN §2's stage-fit model of the pipeline",
    "repro.net.wire": "the on-wire format the golden wire tests pin",
    "repro.tools.__main__": "entry point of `python -m repro.tools`",
    "repro.obs.export": "re-exported as repro.obs.*; tools/perf calls it",
}

#: program trees outside ``src/``: glob -> (CI job, text of the step
#: command in that job that runs the tree).
CI_TREES = {
    "examples/*.py": ("tests", "for example in examples/*.py"),
    "benchmarks/*.py": ("figure-benches", "pytest benchmarks/"),
    "benchmarks/e2e/*.py": ("benchmark-self-test", "benchmarks/e2e/run.py"),
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

#: public symbols no program references, each with why it stays; what
#: their bodies reference stays with them.
SYMBOL_ALLOWLIST = {
    "repro.obs.export.registry_from_jsonl":
        "artefact reader a `repro explain` over emitted JSONL needs",
    "repro.faults.invariants.InvariantSuite.check_now":
        "a test's only handle on the suite's checks between ticks",
    "repro.client.api.NetCacheClient.outstanding":
        "a test's only handle on the client's in-flight request table",
}

#: modules whose symbols the audit skips: specs and models kept whole.
SYMBOL_EXEMPT = {"repro.core.pipeline", "repro.net.wire"}

#: the executable spec: its methods twin a program class's and stay while
#: a live program definition of the same name does.
SPEC = "repro.sketch.reference"

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
_CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


_JOB = re.compile(r"^  ([\w-]+):\s*$", re.M)


def _ci_jobs():
    """job name -> text of that job in ``ci.yml``, comment lines dropped.

    Read as text, not YAML: jobs are the two-space-indented keys under
    ``jobs:``, and each job's text runs to the next such key."""
    text = CI.read_text().split("\njobs:\n", 1)[1]
    heads = list(_JOB.finditer(text))
    ends = [head.start() for head in heads[1:]] + [len(text)]
    return {head.group(1): "\n".join(
                line for line in text[head.end():end].splitlines()
                if not line.lstrip().startswith("#"))
            for head, end in zip(heads, ends)}


def _run_trees():
    jobs = _ci_jobs()
    return [tree for tree, (job, command) in CI_TREES.items()
            if command in jobs.get(job, "")]


@functools.lru_cache(maxsize=None)
def _parsed():
    """path -> AST of every program file, parsed once."""
    paths = list(SRC.rglob("*.py"))
    for tree in _run_trees():
        paths.extend(ROOT.glob(tree))
    return {path: ast.parse(path.read_text(), str(path)) for path in paths}


def _where(path: Path, node) -> str:
    return f"{path.relative_to(ROOT)}:{node.lineno}"


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _imported_names(tree):
    """Dotted names *tree* imports, with ``from a import b`` as ``a.b``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _unused_modules():
    modules = {_module_name(p): p for p in SRC.rglob("*.py")
               if p.name != "__init__.py"}
    used = set()
    for path, tree in _parsed().items():
        own_package = (_module_name(path) if path.name == "__init__.py"
                       and SRC in path.parents else None)
        for name in _imported_names(tree):
            if name in modules and name.rpartition(".")[0] != own_package:
                used.add(name)
    return [f"{modules[name].relative_to(ROOT)}:1 {name}: no program "
            f"code imports it (module rule)"
            for name in sorted(set(modules) - used - set(ALLOWLIST))]


def test_every_module_is_used_outside_the_tests():
    assert _unused_modules() == []


def test_allowlist_names_real_modules():
    for name in ALLOWLIST:
        assert (SRC / Path(*name.split("."))).with_suffix(".py").exists(), name


def test_every_program_tree_runs_in_ci():
    """Each tree the audits count as program code is run by a CI step."""
    assert sorted(_run_trees()) == sorted(CI_TREES)


def _set_options():
    """Names program code passes to a config builder as a keyword, or
    uses as a string key of a dict literal (per-scenario overrides)."""
    names = set()
    for tree in _parsed().values():
        for node in ast.walk(tree):
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


def _field_sites():
    """Rack option -> ``file:line`` of its first declaration."""
    sites = {}
    for config in CONFIGS:
        path = Path(inspect.getsourcefile(config)).resolve()
        for node in _parsed()[path].body:
            if isinstance(node, ast.ClassDef) and node.name == config.__name__:
                for item in node.body:
                    if isinstance(item, ast.AnnAssign):
                        sites.setdefault(item.target.id, _where(path, item))
    return sites


def test_every_rack_option_is_set_by_a_program():
    defaults = {}
    for config in CONFIGS:
        for field in dataclasses.fields(config):
            defaults.setdefault(field.name, set()).add(repr(field.default))
    redeclared = {name for name, seen in defaults.items() if len(seen) > 1}
    unset = (set(defaults) - _set_options() - redeclared
             - set(OPTION_ALLOWLIST))
    sites = _field_sites()
    assert [f"{sites[name]} {name}: no program sets it (option rule)"
            for name in sorted(unset)] == []


def test_option_allowlist_names_real_options():
    fields = {field.name for config in CONFIGS
              for field in dataclasses.fields(config)}
    assert set(OPTION_ALLOWLIST) <= fields


def _definitions():
    """key -> (name, path, node) of every public top-level function or
    class under ``src/repro``, every public method of a top-level class
    and every UPPER_CASE module-level constant, outside
    :data:`SYMBOL_EXEMPT`."""
    found = {}
    for path, tree in _parsed().items():
        module = SRC in path.parents and _module_name(path)
        if not module or module in SYMBOL_EXEMPT:
            continue
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                found[f"{module}.{node.name}"] = (node.name, path, node)
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            for target in targets:
                if (isinstance(target, ast.Name)
                        and _CONSTANT.fullmatch(target.id)):
                    found[f"{module}.{target.id}"] = (target.id, path, node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        found[f"{module}.{node.name}.{item.name}"] = (
                            item.name, path, item)
    return found


def _reference_names(node):
    """Names *node* itself references: a name, an attribute, an imported
    name, or a string that is a dotted name (an annotation or an
    attribute looked up by name)."""
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Attribute):
        return (node.attr,)
    if isinstance(node, ast.alias):
        return tuple(node.name.split("."))
    if (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and _DOTTED.fullmatch(node.value)):
        return tuple(node.value.split("."))
    return ()


def _references(definitions):
    """name -> list of the definition keys enclosing each reference to
    it in program code (package ``__init__`` re-exports excepted)."""
    keys = {id(node): key for key, (_, _, node) in definitions.items()}
    refs = {}

    def visit(node, enclosing):
        for name in _reference_names(node):
            refs.setdefault(name, []).append(enclosing)
        if id(node) in keys:
            enclosing = enclosing | {keys[id(node)]}
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path, tree in _parsed().items():
        if path.name == "__init__.py" and SRC in path.parents:
            continue
        visit(tree, frozenset())
    return refs


def _unreferenced_symbols(allowlist):
    """key -> failure line of each public symbol the rule finds dead."""
    definitions = _definitions()
    refs = _references(definitions)
    # Allowlisted symbols and the spec's classes stay, and so does what
    # their bodies reference.
    kept = set(allowlist) | {key for key in definitions
                             if key.rpartition(".")[0] == SPEC}
    dead = set()
    while True:
        # A spec method stays while a live program definition shares its
        # name: it twins that subject.
        subjects = {name for key, (name, _, _) in definitions.items()
                    if key not in dead and not key.startswith(SPEC + ".")}
        newly = {
            key for key, (name, _, _) in definitions.items()
            if key not in dead and key not in kept
            and not (key.startswith(SPEC + ".") and name in subjects)
            and not any(key not in enclosing and not enclosing & dead
                        for enclosing in refs.get(name, ()))}
        if not newly:
            break
        dead |= newly
    return {key: f"{_where(path, node)} {key}: no program code references "
                 f"it (symbol rule)"
            for key, (_, path, node) in sorted(definitions.items())
            if key in dead}


def test_every_public_symbol_is_used_outside_the_tests():
    assert list(_unreferenced_symbols(SYMBOL_ALLOWLIST).values()) == []


def test_symbol_allowlist_names_needed_symbols():
    """Each allowlisted symbol exists and would fail the rule without
    its line."""
    assert len(SYMBOL_ALLOWLIST) <= 8
    assert set(SYMBOL_ALLOWLIST) <= set(_unreferenced_symbols(()))


def _loaded_names(tree):
    """Names *tree* loads, also inside string annotations."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield from _loaded_names(ast.parse(node.value, mode="eval"))


def _unused_imports(path: Path):
    tree = ast.parse(path.read_text(), str(path))
    loaded = set(_loaded_names(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.partition(".")[0]
                     for alias in node.names]
        elif (isinstance(node, ast.ImportFrom)
                and node.module != "__future__"):
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        yield from (f"{_where(path, node)} {name}: imported, never loaded"
                    for name in names if name not in loaded)


def test_every_imported_name_is_loaded():
    paths = [path for tree in ("src", "tests")
             for path in sorted((ROOT / tree).rglob("*.py"))
             if path.name != "__init__.py"]
    assert [line for path in paths for line in _unused_imports(path)] == []
