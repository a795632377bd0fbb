"""Every import in src/condflow, tests/ and demos/ is used: a stdlib-only
stand-in for a linter's unused-import rule.  Every parameter is read, so no
function takes a setting it ignores, and every dataclass field is read, so
no record keeps a value nothing uses.  The package exports exactly its
modules' public names, and a program (the package itself or a demo) reads
each of them.  One step kernel: only `simulate` draws step normals.  No
module executes text: config expressions are parsed, never run.  The only
scipy import is `ndtri`.  And a module imports another's private names
only where listed, each with its reason."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "condflow"


def declared_all(tree: ast.Module) -> set[str]:
    """The names a module lists in `__all__`."""
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)):
            names |= set(ast.literal_eval(node.value))
    return names


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; names listed in `__all__`
    count as read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= declared_all(tree)
    return [name for name in imported if name not in used]


def test_detects_unused_import():
    source = "import math\nimport numpy as np\nfrom os import path, sep\nnp.zeros(1)\nsep\n"
    assert unused_imports(source) == ["math", "path"]
    assert unused_imports("from os import sep\n__all__ = ['sep']\n") == []


# the package __init__ imports its public names in order to export them
@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(f"{folder}/{p.name}" for folder in ("tests", "demos")
                                        for p in (ROOT / folder).glob("*.py")))
def test_no_unused_imports_in_tests_and_demos(path):
    assert unused_imports((ROOT / path).read_text(encoding="utf-8")) == []


def unread_parameters(source: str) -> list[str]:
    """`function(parameter)` for each parameter a function's body never
    reads, nested functions included.  Names starting with `_`, lambdas
    and a method's first parameter (its receiver) are exempt."""
    tree = ast.parse(source)
    receivers = {id(method.args.args[0]) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for method in cls.body if isinstance(method, ast.FunctionDef) and method.args.args
                 and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in method.decorator_list)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        params = [arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg)
                  if arg is not None and id(arg) not in receivers]
        read = {name.id for stmt in node.body for name in ast.walk(stmt)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        found += [f"{node.name}({arg.arg})" for arg in params
                  if not arg.arg.startswith("_") and arg.arg not in read]
    return found


def test_detects_unread_parameters():
    source = ("def f(a, b, _c, *args, d=1, **kw):\n    return a + sum(args)\n"
              "def g(x):\n    def inner(y):\n        return x\n    return inner\n"
              "class C:\n    def m(self, v):\n        return 0\n"
              "    @staticmethod\n    def s(v):\n        return 0\n"
              "h = lambda unused: 0\n")
    assert unread_parameters(source) == ["f(b)", "f(d)", "f(kw)", "inner(y)", "m(v)", "s(v)"]


# parameters kept unread on purpose, each with its reason
_UNREAD_BY_DESIGN = {
    "cli.py": ["cmd_verify(conf)"],         # every subcommand takes (conf, args)
    "scenarios.py": ["run_scenario(threads)"],  # accepted and ignored until ROADMAP item 11
}


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unread_parameters(module):
    found = unread_parameters((SRC / module).read_text(encoding="utf-8"))
    assert found == _UNREAD_BY_DESIGN.get(module, [])


def unread_fields(sources: list[str]) -> list[str]:
    """`Class.field` for each field of a `@dataclass` in `sources` that no
    source reads as an attribute (`obj.field`, not a store).  The match is by
    name alone, whatever the object: a field whose name is read off some
    other record (a `label` beside `DiffusionSpec.label`, say) counts as
    read, so this catches a field no code reads under any owner."""
    trees = [ast.parse(source) for source in sources]
    fields = [f"{cls.name}.{stmt.target.id}" for tree in trees for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef)
              and any(ast.unparse(d).split("(")[0] == "dataclass" for d in cls.decorator_list)
              for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [name for name in fields if name.split(".")[1] not in read]


def test_detects_unread_fields():
    records = ("from dataclasses import dataclass\n"
               "@dataclass\nclass A:\n    x: int\n    y: int = 0\n    k = 1\n"
               "@dataclass(frozen=True)\nclass B:\n    w: int\n"
               "class C:\n    v: int\n")
    reader = "def f(a, b, c):\n    a.y = b.w\n    return a.x\n"
    assert unread_fields([records, reader]) == ["A.y"]


# fields kept unread on purpose, each with its reason
_UNREAD_FIELDS_BY_DESIGN = [
    "SimConfig.n_threads",  # accepted and ignored until ROADMAP item 1 or 11
]


def test_every_dataclass_field_is_read():
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert unread_fields(sources) == _UNREAD_FIELDS_BY_DESIGN


def test_package_exports_the_public_names():
    # condflow re-exports every module's __all__ and nothing else; callers
    # reach cli and rng as modules
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    public = set().union(*(declared_all(ast.parse(p.read_text(encoding="utf-8")))
                           for p in SRC.glob("*.py")
                           if p.name not in ("__init__.py", "cli.py", "rng.py")))
    assert exported == public


def _reads(tree: ast.Module) -> set[str]:
    """The names a module reads, as a loaded `Name` or attribute; a name
    read only inside its own top-level definition does not count."""
    read = set()
    for stmt in tree.body:
        own = {stmt.name} if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else set()
        read |= {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(stmt)
                 if isinstance(node, (ast.Name, ast.Attribute))
                 and isinstance(node.ctx, ast.Load)} - own
    return read


def unread_public_names(modules: dict[str, str], callers: list[str]) -> list[str]:
    """`module.name` for each name a module of `modules` lists in `__all__`
    that no source, of `modules` or `callers`, reads.  Imports and the
    strings of `__all__` are not reads."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    read = set().union(*map(_reads, [*trees.values(), *map(ast.parse, callers)]))
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name in declared_all(tree) if name not in read)


def test_detects_unread_public_names():
    lib = ("__all__ = ['f', 'g', 'h', 'C']\n"
           "def f():\n    return f()\n"
           "def g():\n    return 0\n"
           "def h():\n    return g()\n"
           "class C:\n    def m(self):\n        return C\n")
    caller = "import lib\nfrom lib import f\nlib.h()\n"
    assert unread_public_names({"lib": lib}, [caller]) == ["lib.C", "lib.f"]


# public names no program reads: named by perfbench/tracing._SPANS until
# ROADMAP item 1
_UNCALLED_BY_DESIGN = ["jumpwalk.walk_vs_bm", "stats.ecdf", "stats.weighted_ecdf"]


def test_every_public_name_has_a_program_caller():
    # a public name that only tests read is code kept for the tests' sake
    modules = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    demos = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "demos").glob("*.py"))]
    assert unread_public_names(modules, demos) == _UNCALLED_BY_DESIGN


def traced_names(source: str) -> set[str]:
    """`layer.name` for each function the `_SPANS` table of a tracing module
    (layer -> [(name, hook), ...]) wraps in a span."""
    spans = next(node.value for node in ast.parse(source).body if isinstance(node, ast.Assign)
                 and any(isinstance(target, ast.Name) and target.id == "_SPANS"
                         for target in node.targets))
    return {f"{layer.value}.{entry.elts[0].value}"
            for layer, entries in zip(spans.keys, spans.values) for entry in entries.elts}


def test_uncalled_names_are_still_traced():
    # the exemption's reason: the benchmark's tracer names them
    source = (ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8")
    assert set(_UNCALLED_BY_DESIGN) <= traced_names(source)


def normals_callers(source: str) -> bool:
    """Whether a module reads `rng.normals` or imports `normals` from `rng`."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "normals"
                and isinstance(node.value, ast.Name) and node.value.id == "rng"):
            return True
        if (isinstance(node, ast.ImportFrom) and (node.module or "").endswith("rng")
                and any(alias.name == "normals" for alias in node.names)):
            return True
    return False


def test_detects_normals_caller():
    assert normals_callers("from . import rng\nz = rng.normals(keys, 0)\n")
    assert normals_callers("from .rng import normals\n")
    assert not normals_callers("from . import rng\nu = rng.uniforms(keys, 0, 1)\n")


def test_only_the_step_kernel_draws_normals():
    # every simulator's Euler step is simulate._simulate; a second step loop
    # would draw its own normals
    callers = sorted(p.name for p in SRC.glob("*.py")
                     if p.name != "rng.py" and normals_callers(p.read_text(encoding="utf-8")))
    assert callers == ["simulate.py"]


def exec_calls(source: str) -> list[str]:
    """The builtins among eval, exec and compile that a module calls."""
    return [node.func.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("eval", "exec", "compile")]


def test_detects_exec_calls():
    source = ("v = eval(text)\nexec(code)\nc = compile(text, '<expr>', 'eval')\n"
              "pattern = re.compile('a')\nexpr.eval(1.0)\n__call__ = eval\n")
    assert exec_calls(source) == ["eval", "exec", "compile"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_executes_text(module):
    # a coefficient expression from a config reaches ast.parse and a
    # whitelisted walk, never the interpreter
    assert exec_calls((SRC / module).read_text(encoding="utf-8")) == []


def scipy_imports(source: str) -> list[str]:
    """Each scipy import of a module, as `import scipy.x` or
    `from scipy.x import name`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"import {alias.name}" for alias in node.names
                      if alias.name.split(".")[0] == "scipy"]
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "scipy"):
            found += [f"from {node.module} import {alias.name}" for alias in node.names]
    return found


def test_detects_scipy_imports():
    source = ("import scipy\nimport scipy.stats as st\nimport scipyx\n"
              "from scipy.interpolate import PchipInterpolator, interp1d\n"
              "from .scale import scipy\nfrom numpy import scipy_like\n")
    assert scipy_imports(source) == [
        "import scipy", "import scipy.stats",
        "from scipy.interpolate import PchipInterpolator",
        "from scipy.interpolate import interp1d"]


def test_only_scipy_import_is_ndtri():
    # scipy.interpolate costs tens of MB of resident memory, so the scale's
    # PCHIP is written out (scale._Pchip) instead of imported
    found = [line for p in sorted(SRC.glob("*.py"))
             for line in scipy_imports(p.read_text(encoding="utf-8"))]
    assert found == ["from scipy.special import ndtri"]


def private_imports(source: str) -> list[str]:
    """`module.name` for each private name a module imports from a module of
    its own package (`from .module import _name`); what a module imports it
    may rename at will."""
    return [".".join(filter(None, (node.module, alias.name)))
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if alias.name.startswith("_")]


def test_detects_private_imports():
    source = ("from .simulate import SimConfig, _simulate\nfrom . import rng, _cache\n"
              "from .model import bm as _bm\nfrom os import _exit\nimport numpy._core\n"
              "from __future__ import annotations\n")
    assert private_imports(source) == ["simulate._simulate", "_cache"]


# private names imported across modules on purpose: the counterexample's walk
# runs on the step kernel, with its snapshot slack, regime count and the
# horizon rule, and the lattice walk shares the kernel's block size
_PRIVATE_IMPORTS_BY_DESIGN = {
    "counterexample.py": ["conditioning._check_horizon", "simulate._TIME_SLACK",
                          "simulate._regime", "simulate._simulate"],
    "jumpwalk.py": ["simulate._BLOCK_DRAWS"],
}


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_imports_another_modules_private_names(module):
    found = private_imports((SRC / module).read_text(encoding="utf-8"))
    assert found == _PRIVATE_IMPORTS_BY_DESIGN.get(module, [])
