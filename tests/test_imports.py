"""Every module-level import in the package is used or re-exported; every
function, method and private module-level class of the package is
referenced, every dataclass field read, every defaulted parameter passed and
every module-level constant read somewhere in src/, where a test module, an
``__init__.py``, the benchmark under bench/ and an attribute of a module from
outside the package, such as ``np.zeros``, count for nothing (the ``ALLOWED_*``
sets name the few reached another way, each with its reason: the benchmark's
entries also name the ROADMAP item that removes them); every name the
package re-exports is listed in, and defined by, its module's ``__all__``;
no module but ``dynamics`` reads the RK4 scheme's internals; no module but
``geometry``, ``dynamics`` and the independent ``oracle`` reads the drift's
matrix; and no module imports or reads another module's underscore name."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bisweep"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the source set of the four reach scans: src/ alone, read through ``live``;
# bench/ is no caller or reader
SOURCES = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
           for p in (ROOT / "src").rglob("*.py")}
DEFINING = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}

# What the reach scans report that is reached from outside the source set.
# Each entry must still be reported, so deleting its subject fails the test
# too.  The benchmark's entries pin code that no CLI command reaches; each
# names its bench caller and the ROADMAP item that deletes it or gives it a
# caller in src/, and the private helpers that go with it.
ALLOWED_DEFINITIONS = {
    # bench/workloads.py ``_validated``, on every workload; item 7 deletes it
    # with ``geometry.EXIT_ARC_SAMPLES``
    "Scenario.exit_boundary_samples",
    # the ``references`` workload's smoothed sigma pairs; item 26 with 4(a)'s
    # smoothed-level check, which calls it or deletes it with
    # ``dynamics.float_cone_coefficient``
    "sigma_smooth_value",
    # the ``references`` workload's sigma pairs; item 26 with 25's u0 maximum
    # condition, which calls it or deletes it with ``_sigma_window``,
    # ``_window_argmax`` and the ``SIGMA_*`` constants, ``SIGMA_U0`` first
    "sigma_sup_oracle",
}
ALLOWED_FIELDS = {
    # ``asdict`` writes every field of the report to feasibility.json
    "ViolationReport.node_h_lower",
    "ViolationReport.node_h_upper",
}
ALLOWED_PARAMETERS = {
    # the ``bisweep`` console script calls main() with no arguments
    "main(argv)",
    # the fixed-candidate evaluation the README documents; the MUTATIONS
    # tests of test_certificate.py pass their candidates through it
    "certify(multipliers)",
    # the ``references`` workload's smoothed pairs pass the cone gain, the
    # default; item 26 with 25, with ``sigma_sup_oracle`` itself
    "sigma_sup_oracle(coeff)",
}


def live(referencing: dict) -> dict:
    """The modules of ``referencing`` whose references count: not a test
    module (``test_*`` or ``conftest``), which is no caller or reader, and
    not an ``__init__``, whose imports from the package are re-exports."""
    return {module: source for module, source in referencing.items()
            if not (Path(module).stem.startswith("test_")
                    or Path(module).stem in ("conftest", "__init__"))}


def unallowed(found: list, allowed: set) -> list:
    """The labels of ``found`` that ``allowed`` does not name, and the
    entries of ``allowed`` that ``found`` does not report."""
    labels = {entry.rsplit(" (", 1)[0]: entry for entry in found}
    return sorted([entry for label, entry in labels.items() if label not in allowed]
                  + [f"{label} (allowed, not reported)" for label in allowed - set(labels)])


def module_all(tree) -> list:
    """The names a module's top-level ``__all__`` assignment lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def unused_imports(source: str) -> list:
    """Names bound by top-level imports that the module never references
    and does not list in ``__all__``."""
    tree = ast.parse(source)
    bound = {}
    exported = set(module_all(tree))
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used and name not in exported)


def test_scanner_flags_unused_and_spares_used_exported_and_future():
    src = ("from __future__ import annotations\n"
           "import os, sys\n"
           "from math import pi as PI, tau\n"
           "from json import dumps\n"
           "__all__ = ['dumps']\n"
           "def f(x: 'int') -> None:\n"
           "    return os.sep, PI\n")
    assert unused_imports(src) == ["sys (line 2)", "tau (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def outside_names(tree, internal: set) -> set:
    """Names that imports bind to modules outside ``internal`` (``np`` for
    ``import numpy as np``), and the names imported from them."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names
                         if a.name.split(".")[0] not in internal)
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] not in internal):
            names.update(a.asname or a.name for a in node.names)
    return names


def of_outside_module(attr: ast.Attribute, outside: set) -> bool:
    """True for ``np.linalg.norm`` when ``np`` names a module from outside."""
    root = attr.value
    while isinstance(root, ast.Attribute):
        root = root.value
    return isinstance(root, ast.Name) and root.id in outside


def dead_definitions(defining: dict, referencing: dict) -> list:
    """Functions and methods (dunders excepted) and private module-level
    classes defined in ``defining`` that no module in ``referencing``
    references by name, by attribute or by import from the package (``live``
    modules only).  An attribute of a module from outside the package does
    not count."""
    internal = {"bisweep"} | {Path(m).stem for m in defining}
    defined = {}
    for module, source in defining.items():
        tree = ast.parse(source)
        for cls in tree.body:
            if (isinstance(cls, ast.ClassDef) and cls.name.startswith("_")
                    and not cls.name.startswith("__")):
                defined[cls.name] = (cls.name, f"{module}:{cls.lineno}")
        owners = {id(fn): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for fn in cls.body}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                owner = owners.get(id(node))
                label = f"{owner}.{node.name}" if owner else node.name
                defined[label] = (node.name, f"{module}:{node.lineno}")
    used = set()
    for source in live(referencing).values():
        tree = ast.parse(source)
        outside = outside_names(tree, internal)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id not in outside:
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and not of_outside_module(node, outside):
                used.add(node.attr)
            elif (isinstance(node, ast.ImportFrom)
                  and (node.level > 0 or node.module.split(".")[0] in internal)):
                used.update(a.name for a in node.names)
    return sorted(f"{label} ({where})" for label, (name, where) in defined.items()
                  if name not in used)


def test_dead_definition_scanner_flags_unreferenced_functions_and_methods():
    package = {
        "a": ("def _dead(): pass\n"
              "def _called(): pass\n"
              "class _Model:\n"
              "    def __init__(self): pass\n"
              "    def used(self): pass\n"
              "    def unused(self): pass\n"
              "class _Orphan: pass\n"
              "def _by_attribute(): pass\n"
              "def __getattr__(name): pass\n"
              "def public_unused(): pass\n"
              "def public(): return _called()\n"
              "def outer():\n"
              "    def inner(): pass\n"
              "    def inner_dead(): pass\n"
              "    return inner()\n"
              "class Profile:\n"
              "    def zeros(self): pass\n"
              "def norm(): pass\n"
              "def argmax(): pass\n"
              "def only_tested(): pass\n"
              "def only_exported(): pass\n"),
        "b": ("from a import _Model\n"
              "import a\n"
              "handle = a._by_attribute\n"),
        # a re-export is no use
        "__init__": "from .a import only_exported, public\n",
    }
    # names that only a module from outside the package spells are no references
    callers = {"cli": ("from a import public, outer, Profile\n_Model().used()\n"
                       "import numpy as np\nfrom numpy import argmax\n"
                       "np.zeros(3), np.linalg.norm, argmax\n"),
               # a test is no caller
               "tests/test_a.py": "from a import only_tested\nonly_tested()\n",
               "tests/conftest.py": "import a\na.only_tested()\n"}
    assert dead_definitions(package, {**package, **callers}) == [
        "Profile.zeros (a:17)", "_Model.unused (a:6)", "_Orphan (a:7)", "_dead (a:1)",
        "argmax (a:19)", "inner_dead (a:14)", "norm (a:18)", "only_exported (a:21)",
        "only_tested (a:20)", "public_unused (a:10)"]


def test_no_dead_functions_methods_or_private_classes():
    assert unallowed(dead_definitions(DEFINING, SOURCES), ALLOWED_DEFINITIONS) == []


def test_the_benchmark_alone_reaches_its_allowlist_entries():
    # counted as a caller, bench/ takes exactly the benchmark's entries off
    # the reports of the definition and parameter scans
    assert SOURCES and all(Path(module).parts[0] == "src" for module in SOURCES)
    bench = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
             for p in (ROOT / "bench").rglob("*.py")}
    gone = set()
    for scan in (dead_definitions, dead_parameters):
        gone |= ({entry.rsplit(" (", 1)[0] for entry in scan(DEFINING, SOURCES)}
                 - {entry.rsplit(" (", 1)[0] for entry in scan(DEFINING, {**SOURCES, **bench})})
    assert gone == {"Scenario.exit_boundary_samples", "sigma_smooth_value", "sigma_sup_oracle",
                    "sigma_sup_oracle(coeff)"}


def test_allowlist_check_flags_new_reports_and_stale_entries():
    assert unallowed(["main(argv) (cli.py:9)", "f(x) (a.py:1)"], {"main(argv)", "gone"}) == [
        "f(x) (a.py:1)", "gone (allowed, not reported)"]
    assert unallowed(["main(argv) (cli.py:9)"], {"main(argv)"}) == []


def export_mismatches(init_source: str, modules: dict) -> list:
    """Names ``__init__`` imports from a package module that the module's
    ``__all__`` does not list, and ``__all__`` entries that a module does
    not define at top level itself (importing a name is no definition)."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    found = []
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in trees:
            listed = module_all(trees[node.module])
            found += [f"{node.module}.{a.name} re-exported, not in __all__"
                      for a in node.names if a.name not in listed]
    for name, tree in trees.items():
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        found += [f"{name}.__all__ lists {entry}, not defined there"
                  for entry in module_all(tree) if entry not in defined]
    return sorted(found)


def test_export_scanner_flags_unlisted_reexports_and_foreign_entries():
    modules = {
        "a": ("from .b import Grid\n"
              "__all__ = ['f', 'Grid', 'K', 'N']\n"
              "def f(): pass\n"
              "def g(): pass\n"
              "K = 1\n"
              "N: int = 2\n"),
        "b": ("class Grid: pass\n"
              "def h(): pass\n"),
    }
    init = "from .a import f, g, K\nfrom .b import Grid\nfrom numpy import zeros\n"
    assert export_mismatches(init, modules) == [
        "a.__all__ lists Grid, not defined there", "a.g re-exported, not in __all__",
        "b.Grid re-exported, not in __all__"]


def test_reexports_are_listed_in_and_defined_by_their_module():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    assert export_mismatches(init, modules) == []


def dead_fields(defining: dict, referencing: dict) -> list:
    """Fields of the dataclasses defined in ``defining`` whose name no
    ``live`` module in ``referencing`` reads as an attribute (``obj.field``
    in load context, or ``getattr(obj, "field")`` with a literal name).  A
    store is no read, and neither is an attribute of a module from outside
    the package."""
    internal = {"bisweep"} | {Path(m).stem for m in defining}
    fields = {}
    for module, source in defining.items():
        for cls in ast.walk(ast.parse(source)):
            if isinstance(cls, ast.ClassDef) and any(_is_dataclass(d) for d in cls.decorator_list):
                for node in cls.body:
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                        fields[f"{cls.name}.{node.target.id}"] = (node.target.id,
                                                                 f"{module}:{node.lineno}")
    read = set()
    for source in live(referencing).values():
        tree = ast.parse(source)
        outside = outside_names(tree, internal)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and not of_outside_module(node, outside)):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
    return sorted(f"{label} ({where})" for label, (name, where) in fields.items()
                  if name not in read)


def _is_dataclass(decorator) -> bool:
    """``@dataclass``, ``@dataclass(...)`` or ``@dataclasses.dataclass(...)``."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name == "dataclass"


def test_dead_field_scanner_flags_fields_nothing_reads():
    package = {
        "a": ("import dataclasses\n"
              "from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\n"
              "class Report:\n"
              "    conditions: dict\n"
              "    values: list\n"
              "    shape: tuple\n"
              "    by_name: int = 0\n"
              "    stored: int = 0\n"
              "    only_tested: int = 0\n"
              "    def ok(self):\n"
              "        return self.conditions\n"
              "@dataclasses.dataclass\n"
              "class Spec:\n"
              "    chunk: int = 1\n"
              "    unread: float = 0.0\n"
              "class Plain:\n"
              "    hint: int\n"),
        "b": ("import numpy as np\n"
              "from a import Report\n"
              "def f(r, s):\n"
              "    r.stored = 1\n"
              "    return np.shape, s.chunk.real, getattr(r, 'by_name'), r.values\n"),
        # a test, a conftest and an __init__ read nothing
        "tests/test_a.py": "def test(r):\n    assert r.only_tested\n",
        "tests/conftest.py": "def fixture(r):\n    return r.only_tested\n",
        "__init__": "def f(r):\n    return r.only_tested\n",
    }
    assert dead_fields({k: package[k] for k in ("a", "b")}, package) == [
        "Report.only_tested (a:10)", "Report.shape (a:7)", "Report.stored (a:9)",
        "Spec.unread (a:16)"]


def test_no_dead_dataclass_fields():
    assert unallowed(dead_fields(DEFINING, SOURCES), ALLOWED_FIELDS) == []


def dead_parameters(defining: dict, referencing: dict) -> list:
    """Parameters with a default, of the functions and methods defined in
    ``defining``, that no call in a ``live`` module of ``referencing``
    passes: by keyword, by enough positional arguments, or by
    ``*args``/``**kwargs``.  A call is matched by the called name
    (``Cls(...)`` for ``Cls.__init__``); a leading ``self``/``cls`` parameter
    is not counted among the positional ones."""
    params = {}
    for module, source in defining.items():
        tree = ast.parse(source)
        owners = {id(fn): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  for fn in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner = owners.get(id(node))
            called = owner if node.name == "__init__" else node.name
            label = f"{owner}.{node.name}" if owner else node.name
            a = node.args
            positional = a.posonlyargs + a.args
            offset = 1 if positional and positional[0].arg in ("self", "cls") else 0
            first = len(positional) - len(a.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                params[f"{label}({arg.arg})"] = (called, arg.arg, i - offset,
                                                 i >= len(a.posonlyargs), f"{module}:{node.lineno}")
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    params[f"{label}({arg.arg})"] = (called, arg.arg, None, True,
                                                     f"{module}:{node.lineno}")
    calls = {}
    for source in live(referencing).values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                f = node.func
                calls.setdefault(f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None),
                                 []).append(node)

    def passes(call, name, index, by_keyword):
        if any(k.arg is None or (by_keyword and k.arg == name) for k in call.keywords):
            return True
        return index is not None and (len(call.args) > index
                                      or any(isinstance(p, ast.Starred) for p in call.args))

    return sorted(f"{label} ({where})" for label, (called, name, index, by_keyword, where)
                  in params.items()
                  if not any(passes(c, name, index, by_keyword) for c in calls.get(called, [])))


def test_dead_parameter_scanner_flags_defaults_no_call_passes():
    package = {
        "a": ("def f(x, by_kw=1, by_pos=2, never=3, *, kw_only=4, kw_dead=5): pass\n"
              "def g(a=1, b=2): pass\n"
              "def h(a=1): pass\n"
              "def only(a=1, /): pass\n"
              "class Model:\n"
              "    def __init__(self, tol=1e-9, dead=0): pass\n"
              "    def fit(self, x, steps=10, spare=0): pass\n"
              "    @classmethod\n"
              "    def build(cls, size=3): pass\n"
              "def outer():\n"
              "    def inner(flag=False): pass\n"
              "    return inner()\n"),
    }
    calls = {"b": ("import a\n"
                   "a.f(0, by_kw=1, kw_only=2)\n"
                   "f(0, 1, 2)\n"
                   "g(*args)\n"
                   "h(**opts)\n"
                   "only(a=1)\n"
                   "a.Model(1e-6).fit(x, 5)\n"
                   "Model.build(4)\n"),
             # a test, a conftest and an __init__ call nothing
             "tests/test_a.py": "f(0, 1, 2, 3, kw_dead=5)\n",
             "tests/conftest.py": "Model(dead=1)\n",
             "__init__": "inner(flag=True)\n"}
    assert dead_parameters(package, {**package, **calls}) == [
        "Model.__init__(dead) (a:6)", "Model.fit(spare) (a:7)", "f(kw_dead) (a:1)",
        "f(never) (a:1)", "inner(flag) (a:11)", "only(a) (a:4)"]


def test_no_dead_parameters():
    assert unallowed(dead_parameters(DEFINING, SOURCES), ALLOWED_PARAMETERS) == []


def dead_constants(defining: dict, referencing: dict) -> list:
    """Module-level UPPER_CASE constants assigned in ``defining`` whose name
    no ``live`` module in ``referencing`` reads, by name or as an attribute,
    in load context.  An assignment or an import is no read, and neither is an
    attribute of a module from outside the package."""
    internal = {"bisweep"} | {Path(m).stem for m in defining}
    constants = {}
    for module, source in defining.items():
        for node in ast.parse(source).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id.lstrip("_").isupper():
                        constants[name.id] = f"{module}:{node.lineno}"
    read = set()
    for source in live(referencing).values():
        tree = ast.parse(source)
        outside = outside_names(tree, internal)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and not of_outside_module(node, outside)):
                read.add(node.attr)
    return sorted(f"{name} ({where})" for name, where in constants.items() if name not in read)


def test_dead_constant_scanner_flags_constants_nothing_reads():
    package = {
        "a": ("import numpy as np\n"
              "USED = 1\n"
              "DEAD = 2\n"
              "BY_ATTR = 3\n"
              "ONLY_IMPORTED = 4\n"
              "STORED = 5\n"
              "PI: float = 3.14\n"
              "LO, _HI = 0, 1\n"
              "lower_case = 6\n"
              "__all__ = []\n"
              "def f():\n"
              "    LOCAL = 7\n"
              "    return USED + np.PI\n"),
        "b": ("import a\n"
              "from a import ONLY_IMPORTED\n"
              "a.STORED = 8\n"
              "x = a.BY_ATTR + _HI\n"),
        # a test, a conftest and an __init__ read nothing
        "tests/test_a.py": "import a\nassert a.DEAD\n",
        "tests/conftest.py": "from a import LO\nx = LO\n",
        "__init__": "from .a import PI\nx = PI\n",
    }
    assert dead_constants({"a": package["a"]}, package) == [
        "DEAD (a:3)", "LO (a:8)", "ONLY_IMPORTED (a:5)", "PI (a:7)", "STORED (a:6)"]


def test_no_dead_module_constants():
    assert dead_constants(DEFINING, SOURCES) == []


# the RK4 scheme and its reverses live in dynamics; no other module rebuilds them
RK4_INTERNALS = ("RK4_OFFSETS", "RK4_WEIGHTS", "stage_values", "stage_slope", "plan_path")


def rk4_internal_uses(source: str) -> list:
    """The names of ``RK4_INTERNALS`` that a module imports from ``dynamics``
    or reads as an attribute of it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "dynamics":
            found.update(a.name for a in node.names if a.name in RK4_INTERNALS)
        elif (isinstance(node, ast.Attribute) and node.attr in RK4_INTERNALS
              and isinstance(node.value, ast.Name) and node.value.id == "dynamics"):
            found.add(node.attr)
    return sorted(found)


def test_rk4_internal_scanner_flags_imports_and_attributes():
    src = ("from .dynamics import TimeGrid, stage_slope\n"
           "from bisweep.dynamics import RK4_WEIGHTS as W\n"
           "from . import dynamics\n"
           "k = dynamics.plan_path, dynamics.plan_nodes\n")
    assert rk4_internal_uses(src) == ["RK4_WEIGHTS", "plan_path", "stage_slope"]


def test_rk4_internals_stay_in_dynamics():
    uses = {p.name: rk4_internal_uses(p.read_text(encoding="utf-8"))
            for p in PACKAGE.glob("*.py") if p.name != "dynamics.py"}
    assert {name: names for name, names in uses.items() if names} == {}


# the drift rule has one owner: ``geometry`` holds its ``DriftSpec``,
# ``dynamics.drift`` and its float form evaluate it, and the oracle keeps an
# independent Euler model; every other module reads f and its Jacobians
# through ``dynamics.drift``
DRIFT_MATRIX_READERS = ("geometry.py", "dynamics.py", "oracle.py")


def drift_matrix_reads(source: str) -> list:
    """The (line, attribute) pairs where a module reads ``.drift.matrix``
    (to call it) or ``.drift.A``."""
    return sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in ("matrix", "A")
                  and isinstance(node.value, ast.Attribute) and node.value.attr == "drift")


def test_drift_matrix_scanner_flags_matrix_calls_and_A_reads():
    src = ("A = s.drift.matrix(s.dim)\n"
           "B = sol.scenario.drift.A\n"
           "c = s.drift.name, drift(x, u, s), s.A, spec.matrix(2)\n")
    assert drift_matrix_reads(src) == [(1, "matrix"), (2, "A")]


def test_only_the_drift_owners_read_its_matrix():
    reads = {p.name: drift_matrix_reads(p.read_text(encoding="utf-8"))
             for p in MODULES if p.name not in DRIFT_MATRIX_READERS}
    assert {name: found for name, found in reads.items() if found} == {}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_name_uses(source: str) -> list:
    """The underscore names (not dunders) a module imports from another
    module of the package, or reads as an attribute of one it imported."""
    found, siblings = set(), set()
    nodes = list(ast.walk(ast.parse(source)))
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("bisweep")):
            owner = (node.module or "").split(".")[-1]
            if owner in ("", "bisweep"):   # from . import solver: each name is a module
                siblings.update(a.asname or a.name for a in node.names)
            found.update(f"{owner}.{a.name}" for a in node.names if owner and _private(a.name))
        elif isinstance(node, ast.Import):
            siblings.update(a.asname or a.name for a in node.names if a.name.startswith("bisweep."))
    for node in nodes:
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in siblings):
            found.add(f"{node.value.id}.{node.attr}")
    return sorted(found)


def test_private_name_scanner_flags_imports_and_attributes():
    src = ("from .solver import solve_lower, _x\n"
           "from bisweep.geometry import _y as y\n"
           "from . import solver, dynamics as dyn\n"
           "from .dynamics import __all__\n"
           "import bisweep.oracle as orc\n"
           "k = solver._z, dyn._w, dyn.plan_path, orc._v, np._u, solver.__name__\n")
    assert private_name_uses(src) == ["dyn._w", "geometry._y", "orc._v", "solver._x", "solver._z"]


def test_no_module_reads_another_modules_private_names():
    uses = {p.name: private_name_uses(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    assert {name: names for name, names in uses.items() if names} == {}
