"""Source hygiene: every module of the package and of the tests uses each
name it imports, every public name of the package is read by the package,
the acceptance tests or perfbench, every private module-level name of the
package is read by a package module, every function of the package and of
the test oracles reads each of its parameters, only `spectral` works out a
grid size, since it derives every collocation grid, every field of the
package's dataclasses and NamedTuples is read as an attribute somewhere,
the package raises every exception class it defines, and importing the CLI
loads no scipy module.

Stdlib `ast` checks, since no lint tool is part of the toolchain.
`__init__.py` is skipped because its imports are the public re-exports.
The CLI runners share one `(cfg, outdir)` signature through `cli.RUNNERS`,
so their parameters are exempt.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "nls_transport"
PERFBENCH = TESTS.parent / "perfbench"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never referenced."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_detects_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import json\nimport numpy as np\nfrom .a import b, c\n"
              "x = np.zeros(b)\n")
    assert unused_imports(source) == ["c (line 4)", "json (line 2)"]


def test_no_unused_imports_in_package():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


def test_no_unused_imports_in_tests():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(TESTS.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def read_names(source: str) -> set[str]:
    """Names a module reads: bare names, attribute names and string
    constants (the perfbench tracer names the functions it patches)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def unreached_names(init_source: str, sources) -> list[str]:
    """Names that `init_source` imports and none of `sources` reads."""
    public = {alias.asname or alias.name
              for node in ast.walk(ast.parse(init_source))
              if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    read = set().union(*(read_names(source) for source in sources))
    return sorted(public - read)


def test_detects_an_unreached_name():
    init = "from .a import b, c, d, e\nfrom .f import g as h\n"
    sources = ["x = b(1)\n", "import pkg\ny = pkg.c\n",
               "patch('mod', 'd')\n"]
    assert unreached_names(init, sources) == ["e", "h"]


def test_every_public_name_is_reached():
    # a public name that no module, acceptance test or perfbench file
    # reads is kept alive by its own unit tests alone
    paths = ([path for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"]
             + [TESTS / "test_acceptance.py"]
             + sorted(PERFBENCH.rglob("*.py")))
    assert unreached_names((PACKAGE / "__init__.py").read_text(),
                           [path.read_text() for path in paths]) == []


def private_definitions(source: str) -> set[str]:
    """Module-level private names a module binds: functions, classes and
    constants whose name starts with a single underscore."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names |= {n.id for target in targets for n in ast.walk(target)
                      if isinstance(n, ast.Name)}
    return {name for name in names
            if name.startswith("_") and not name.startswith("__")}


def loaded_names(source: str) -> set[str]:
    """Names a module reads as a value, bare or as an attribute."""
    return {getattr(node, "id", None) or node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def orphaned_private_names(sources) -> list[str]:
    """Private module-level names that one of `sources` defines and none
    of them reads."""
    defined = set().union(*(private_definitions(source) for source in sources))
    read = set().union(*(loaded_names(source) for source in sources))
    return sorted(defined - read)


def test_detects_an_orphaned_private_name():
    sources = ["_A = 1\n_B: int = 2\n__all__ = []\n"
               "def _f(x):\n    return _A + x\n"
               "class _C:\n    pass\n"
               "def _g():\n    _h = 3\n    return _h\n",
               "import a\nobj._B = a._f(1)\n_D = 4\npublic = 5\n"]
    assert orphaned_private_names(sources) == ["_B", "_C", "_D", "_g"]


def test_no_orphaned_private_names_in_package():
    # a private helper that no package module reads is dead code, or is
    # kept alive by its own unit tests alone
    assert orphaned_private_names(
        [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]) == []


def unused_parameters(source: str, exempt=frozenset()) -> list[str]:
    """Parameters of functions and lambdas that their body never reads;
    functions named in `exempt` are skipped."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if name in exempt:
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        found += [f"{name}.{p} (line {node.lineno})" for p in params
                  if p not in read]
    return sorted(found)


def cli_runners() -> frozenset:
    """Function names bound in the `RUNNERS` dict of cli.py."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "RUNNERS"
                        for t in node.targets)):
            return frozenset(v.id for v in node.value.values)
    raise AssertionError("cli.py defines no RUNNERS dict")


def test_detects_an_unused_parameter():
    source = ("def f(a, b, *args, c=1, **kw):\n"
              "    def g(x):\n        return a + c\n"
              "    return g, kw\n"
              "h = lambda u, v: u\n")
    assert unused_parameters(source) == [
        "<lambda>.v (line 5)", "f.args (line 1)", "f.b (line 1)",
        "g.x (line 2)"]
    assert unused_parameters(source, exempt={"f", "g", "<lambda>"}) == []


def test_no_unused_parameters_in_package():
    runners = cli_runners()
    assert "run_lemmas" in runners
    found = {path.name: unused_parameters(path.read_text(), runners)
             for path in sorted(PACKAGE.glob("*.py")) + [TESTS / "oracles.py"]}
    assert {name: names for name, names in found.items() if names} == {}


GRID_FUNCTIONS = ("quintic_product", "quintic_batch", "grid_values",
                  "_tangent_apply")


def grid_slots(sources) -> dict[str, int]:
    """The position of the `n_points` parameter, the grid size, in each of
    GRID_FUNCTIONS as `sources` define them."""
    return {node.name: [a.arg for a in node.args.args].index("n_points")
            for source in sources for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef)
            and node.name in GRID_FUNCTIONS}


def grid_constructions(source: str, slots: dict[str, int]) -> list[int]:
    """Lines that pass an integer literal or arithmetic as the grid size of
    a function in `slots`, by position or as n_points."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name not in slots:
            continue
        args = node.args[slots[name]:slots[name] + 1] + [
            k.value for k in node.keywords if k.arg == "n_points"]
        if any(isinstance(a, (ast.BinOp, ast.UnaryOp))
               or isinstance(a, ast.Constant) and isinstance(a.value, int)
               for a in args):
            found.append(node.lineno)
    return found


def package_sources() -> list[str]:
    return [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]


def test_detects_a_grid_construction():
    slots = grid_slots(package_sources())
    assert sorted(slots) == sorted(GRID_FUNCTIONS)
    source = ("a = quintic_batch(c, m, n, 64)\n"
              "b = spectral.grid_values(c, m, 6 * m + 2)\n"
              "p = quintic_product(n, default_grid(n), rows)\n"
              "d = _tangent_apply(u, h, n_points=-g)\n"
              "e = quintic_batch(c, m, 4, g)\n"
              "f = quintic_product(n, 2 * n, 4)\n")
    assert grid_constructions(source, slots) == [1, 2, 4, 6]


def test_only_spectral_constructs_grids():
    # a grid size is a number that spectral works out from the truncation
    slots = grid_slots(package_sources())
    found = {path.name: grid_constructions(path.read_text(), slots)
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "spectral.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def record_fields(source: str) -> list[str]:
    """Class.field for each field of the dataclasses and NamedTuples that a
    module defines."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        marks = [d.func if isinstance(d, ast.Call) else d
                 for d in node.decorator_list] + node.bases
        if not {getattr(m, "id", None) or getattr(m, "attr", None)
                for m in marks} & {"dataclass", "NamedTuple"}:
            continue
        found += [f"{node.name}.{stmt.target.id}" for stmt in node.body
                  if isinstance(stmt, ast.AnnAssign)
                  and isinstance(stmt.target, ast.Name)]
    return found


def attribute_reads(source: str) -> set[str]:
    """Names a module reads as an attribute, `obj.name`."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def unread_fields(record_sources, sources) -> list[str]:
    """Fields of the records in `record_sources` that none of `sources`
    reads as an attribute."""
    read = set().union(*(attribute_reads(source) for source in sources))
    return sorted(field for source in record_sources
                  for field in record_fields(source)
                  if field.split(".")[1] not in read)


def test_detects_an_unread_field():
    records = ("@dataclass(frozen=True)\nclass A:\n    x: int\n"
               "    y: float = 0.0\n"
               "@dataclasses.dataclass\nclass B:\n    z: int\n"
               "class C(NamedTuple):\n    w: int\n    v: int\n"
               "class D:\n    u: int\n")
    sources = [records, "print(a.x, c.w, v)\n", "b.z = 1\n"]
    assert unread_fields([records], sources) == ["A.y", "B.z", "C.v"]


def test_every_field_is_read():
    # a result field that nothing reads is computed and carried for nobody
    paths = [path for root in (PACKAGE, TESTS, PERFBENCH,
                               TESTS.parent / "scripts")
             for path in sorted(root.rglob("*.py"))]
    assert unread_fields(package_sources(),
                         [path.read_text() for path in paths]) == []


def raised_names(source: str) -> set[str]:
    """Names of the exceptions that raise statements name or construct."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.add(getattr(exc, "id", None) or getattr(exc, "attr", None))
    return found


def test_detects_raised_names():
    source = ("def f(x):\n    if x:\n        raise errors.A('a')\n"
              "    raise B\n")
    assert raised_names(source) == {"A", "B"}


def test_package_raises_every_error_it_defines():
    defined = [node.name for node in
               ast.parse((PACKAGE / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)]
    raised = set().union(*(raised_names(path.read_text())
                           for path in PACKAGE.glob("*.py")))
    assert [name for name in defined if name not in raised] == []


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only: a study's process imports numpy alone
    script = ("import sys, nls_transport.cli\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    # start-up is part of every run: the pool modules load at the first
    # call that hands out chunks, not with the package
    script = ("import sys, nls_transport.cli\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] in "
              "('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert out.stdout.strip() == "[]"
