"""Source hygiene: the package imports only the standard library and itself,
no module takes another's private names, every module-level import in the
package is used, every name the package
defines is named somewhere besides its definition, every parameter of a
function in the package is read, no regex the package compiles needs a newer
Python than the one it declares, the command line prints the same under that
oldest Python as under the one running the tests, no test asserts a
condition that cannot fail, the grammar's field rules list the keys of
the parser's field tables, the command line starts without the modules
that ``dataclasses`` pulls in, and no record instance carries a ``__dict__``."""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path
from typing import Iterable

import pytest

from datactl.model import record

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "datactl"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")  # __init__ re-exports
# Where a definition may be named: the package, its tests and its benchmark.
CORPUS = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def foreign_imports(source: str) -> list[str]:
    """Modules the source imports from outside the standard library and the
    package: the runtime is stdlib-only."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # not an import, or a relative one, which stays in the package
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names | {"datactl"}]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_foreign_import_is_reported():
    source = ("from __future__ import annotations\nimport os, numpy as np\nfrom . import dsl\n"
              "from datactl.model import SP\n\n\ndef load():\n    from yaml import safe_load\n"
              "    import xml.etree.ElementTree\n")
    assert foreign_imports(source) == ["line 2: numpy", "line 8: yaml"]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_imports(source: str) -> list[str]:
    """Underscore-prefixed names the source takes from another module of the
    package: imported by name, or read off an imported module."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "datactl"):
            for alias in node.names:
                if _is_private(alias.name):
                    found.append((node.lineno, f"{node.module or '.'}.{alias.name}"))
                modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name.split(".")[0] == "datactl"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _is_private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_names(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_private_import_is_reported():
    source = ("import re\nfrom .dsl import _perm_lines, serialize_set\n"
              "from . import architecture as arch_mod\nfrom datactl.model import _Hidden\n"
              "from os import _exit\nfrom .model import __version__\n\n\n"
              "def f(self):\n    return arch_mod._Kernel, arch_mod.search_states, re._compile,"
              " self._cache\n")
    assert private_imports(source) == [
        "line 2: dsl._perm_lines", "line 4: datactl.model._Hidden", "line 10: arch_mod._Kernel",
    ]


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # Names inside string annotations, e.g. ``tuple["Term", ...]``.
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "from __future__ import annotations\nimport os\nfrom typing import Any, List\nx: List = 1\n"
    assert unused_imports(source) == ["line 2: os", "line 3: Any"]


def definitions(source: str, methods: bool = True) -> list[tuple[str, int]]:
    """(name, line) of each module-level function, class and constant, and of
    each method unless ``methods`` is false, dunders excepted."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef) and methods:
            found += [(item.name, item.lineno) for item in node.body
                      if isinstance(item, ast.FunctionDef)]
    return [(name, line) for name, line in found
            if not (name.startswith("__") and name.endswith("__"))]


def references(source: str) -> set[str]:
    """Every name the source reads, imports or spells as an identifier string
    (string annotations, names looked up by string).  A name read through its
    module (``mod.NAME``, ``from <pkg>.mod import NAME``, ``from .mod import
    NAME``) is also recorded as ``mod.NAME``."""
    tree = ast.parse(source)
    modules = {alias.asname: alias.name.split(".")[-1]  # module aliases, e.g. arch_mod
               for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names if alias.asname}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            owner = node.value
            if isinstance(owner, ast.Name):
                names.add(f"{modules.get(owner.id, owner.id)}.{node.attr}")
            elif isinstance(owner, ast.Attribute):
                names.add(f"{owner.attr}.{node.attr}")
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[-1])
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.ImportFrom) and node.module:
            names |= {f"{node.module.split('.')[-1]}.{a.name}" for a in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return names


def unreferenced(source: str, referenced: set[str], module: str = "",
                 shared: frozenset[str] = frozenset()) -> list[str]:
    """Definitions in ``source`` (the module ``module``) that ``referenced``
    never names.  A name in ``shared``, which several modules define, counts
    only when ``module`` itself reads it or another file reads it as
    ``module.NAME``."""
    own = references(source)

    def named(name):
        if name in shared:
            return name in own or f"{module}.{name}" in referenced
        return name in referenced

    return [f"line {line}: {name}" for name, line in definitions(source) if not named(name)]


def shared_names(sources: list[str]) -> frozenset[str]:
    """Module-level names that more than one of ``sources`` defines."""
    counts = Counter(name for source in sources
                     for name in {name for name, _ in definitions(source, methods=False)})
    return frozenset(name for name, n in counts.items() if n > 1)


def test_every_definition_is_referenced():
    referenced = set().union(*(references(p.read_text(encoding="utf-8")) for p in CORPUS))
    shared = shared_names([p.read_text(encoding="utf-8") for p in MODULES])
    found = {path.name: unreferenced(path.read_text(encoding="utf-8"), referenced,
                                     path.stem, shared)
             for path in MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_unreferenced_definition_is_reported():
    source = (
        "LIMIT = 3\nUSED = 4\n\n\ndef helper():\n    return USED\n\n\n"
        "class Box:\n    def __init__(self):\n        self.x = helper()\n\n"
        "    def unused(self):\n        return self.x\n"
    )
    assert unreferenced(source, references(source)) == [
        "line 1: LIMIT", "line 9: Box", "line 13: unused"
    ]

    # Two modules define RULES; a reader of one does not reference the other.
    first = "RULES = (1,)\n\n\ndef count():\n    return len(RULES)\n"
    second = "RULES = (2,)\nOTHER = 3\n"
    reader = "from pkg.first import RULES, count\nfrom . import second as s\n\nprint(RULES, count(), s.OTHER)\n"
    shared = shared_names([first, second])
    referenced = references(first) | references(second) | references(reader)
    assert shared == {"RULES"}
    assert unreferenced(first, referenced, "first", shared) == []
    assert unreferenced(second, referenced, "second", shared) == ["line 1: RULES"]
    for read in ("import pkg.second\nprint(pkg.second.RULES)\n",
                 "from .second import RULES\n", "from pkg import second\nsecond.RULES\n"):
        assert unreferenced(second, referenced | references(read), "second", shared) == [], read


def unread_parameters(source: str) -> list[str]:
    """Parameters of a ``def`` that its body, nested functions included, never
    reads.  Lambdas are exempt: a dispatch table's lambdas share one signature."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                      if p is not None]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [f"line {node.lineno}: {node.name}({p})" for p in params if p not in read]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def test_unread_parameter_is_reported():
    source = (
        "READERS = {'a': lambda p, what: p.read()}\n\n\n"
        "def outer(x, y, *args, flag=False, **kwargs):\n"
        "    def inner(z):\n        return x + len(args)\n"
        "    return inner\n\n\n"
        "class Box:\n    def size(self, unit):\n        return self.n\n"
    )
    assert unread_parameters(source) == [
        "line 4: outer(y)", "line 4: outer(flag)", "line 4: outer(kwargs)",
        "line 5: inner(z)", "line 11: size(unit)",
    ]


try:
    from re import _parser as sre_parse  # Python 3.11 on
except ImportError:
    import sre_parse  # Python 3.10

# Regex syntax that Python 3.11 added; ``requires-python`` is ">=3.10".
NEWER_SYNTAX = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}


def newer_regex_syntax(pattern: str) -> list[str]:
    """The operators in ``pattern`` that Python 3.10's ``re`` rejects."""
    found = []

    def walk(node):
        if isinstance(node, sre_parse.SubPattern):
            for op, arg in node:
                if str(op) in NEWER_SYNTAX:
                    found.append(str(op))
                walk(arg)
        elif isinstance(node, (tuple, list)):
            for item in node:
                walk(item)

    walk(sre_parse.parse(pattern))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_regexes_parse_under_the_oldest_supported_python(path):
    module = importlib.import_module(f"datactl.{path.stem}")
    patterns = {name: value.pattern for name, value in vars(module).items()
                if isinstance(value, re.Pattern)}
    assert {name: newer_regex_syntax(p) for name, p in patterns.items()
            if newer_regex_syntax(p)} == {}


def test_newer_regex_syntax_is_reported():
    assert newer_regex_syntax(r'[ \t]*(?:#[^\n]*|)(a[b-]*|"[^"]*"|.|\Z)') == []
    assert newer_regex_syntax(r'a*+(?:b(?>c)|d)?(e++)') == [
        "POSSESSIVE_REPEAT", "ATOMIC_GROUP", "POSSESSIVE_REPEAT"]


# The oldest Python that pyproject.toml declares, e.g. "3.10".
OLDEST = re.search(r'requires-python = ">=(3\.\d+)"',
                   (ROOT / "pyproject.toml").read_text(encoding="utf-8"))[1]
FIX = ROOT / "fixtures" / "facebook"
DCP = str(FIX / "facebook.dcp")
CLI_RUNS = [
    *(["validate", str(path), *(["--policy", DCP] if path.suffix == ".dct" else [])]
      for path in sorted(FIX.iterdir())),
    ["check-trace", DCP, str(FIX / "fb_clean.dct")],
    ["check-trace", DCP, str(FIX / "fb_badpurpose.dct")],
    ["enumerate", str(FIX / "simplified.dca"), "--max-len", "3"],
    ["compare-archs", str(FIX / "full.dca"), str(FIX / "simplified.dca")],
    ["derive-arch", DCP, "--events", str(FIX / "fb_all.dct")],
]


def run_oldest(*args: str) -> subprocess.CompletedProcess:
    """``python<OLDEST> args`` with the package on its path; a pyenv shim
    picks that version through ``PYENV_VERSION``."""
    env = dict(os.environ, PYENV_VERSION=OLDEST, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([f"python{OLDEST}", *args], env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.fixture(scope="module")
def oldest_python():
    try:
        probe = run_oldest("-c", "import sys; print('%d.%d' % sys.version_info[:2])")
    except OSError as err:
        pytest.skip(f"no python{OLDEST}: {err}")
    if probe.returncode != 0 or probe.stdout.strip() != OLDEST:
        pytest.skip(f"python{OLDEST} does not start: {probe.stderr.strip()[-200:]}")


@pytest.mark.parametrize("argv", CLI_RUNS,
                         ids=lambda argv: " ".join(Path(a).name for a in argv))
def test_cli_agrees_under_the_oldest_supported_python(oldest_python, argv, capsys):
    from datactl.cli import main
    old = run_oldest("-m", "datactl.cli", *argv)
    assert old.stderr == ""
    assert (old.returncode, old.stdout) == (main(argv), capsys.readouterr().out)


TESTS = sorted((ROOT / "tests").glob("*.py"))


def vacuous_asserts(source: str) -> list[str]:
    """Asserts whose condition is an ``or`` ending in a truthy constant, so
    they pass whatever the rest of the condition says."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert) and isinstance(node.test, ast.BoolOp)
            and isinstance(node.test.op, ast.Or) and isinstance(node.test.values[-1], ast.Constant)
            and node.test.values[-1].value]


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_no_vacuous_asserts(path):
    assert vacuous_asserts(path.read_text(encoding="utf-8")) == []


def test_vacuous_assert_is_reported():
    source = ("def test():\n    assert x or True\n    assert x or 0\n"
              "    assert (x and y) or 'yes'\n    assert x or y\n    assert True\n")
    assert vacuous_asserts(source) == ["line 2", "line 4"]


GRAMMAR = ROOT / "docs" / "grammar.md"
# Each field rule of the grammar, and the field table in dsl.py that reads and
# prints the fields it lists.
FIELD_RULES = {"datum_field": "_DATUM_FIELDS", "policy_field": "_POLICY_FIELDS",
               "field": "_TRACE_FIELDS", "afield": "_ARCH_TRACE_FIELDS"}


def rule_keys(grammar: str, rule: str) -> list[str]:
    """The keys that the EBNF rule ``rule`` writes before an ``"="``:
    ``"t" , "=" , number`` gives t and ``( "or" | "tar" ) , "="`` gives or
    and tar.  An alternative without one, a nested block or another rule
    such as ``perm_line``, gives none."""
    body = re.search(rf"^{rule}\s*=(.*?)(?=^\S)", grammar, re.M | re.S)[1]
    body = re.sub(r"\(\*.*?\*\)", "", body, flags=re.S)  # comments
    return [key for m in re.finditer(r'((?:"[a-z]+"\s*\|\s*)*"[a-z]+")\s*\)?\s*,\s*"="', body)
            for key in re.findall(r'"([a-z]+)"', m[1])]


def field_rule_mismatches(grammar: str, tables: dict[str, Iterable[str]]) -> list[str]:
    """Keys that a field rule of ``grammar`` and its table do not share."""
    found = []
    for rule, table in tables.items():
        keys, listed = set(table), set(rule_keys(grammar, rule))
        found += [f"{rule}: {key!r} is in the table, not in the grammar" for key in sorted(keys - listed)]
        found += [f"{rule}: {key!r} is in the grammar, not in the table" for key in sorted(listed - keys)]
    return found


def test_grammar_field_rules_list_the_field_tables():
    dsl = importlib.import_module("datactl.dsl")
    tables = {rule: getattr(dsl, name) for rule, name in FIELD_RULES.items()}
    assert field_rule_mismatches(GRAMMAR.read_text(encoding="utf-8"), tables) == []


def test_field_rule_mismatch_is_reported():
    grammar = (
        "```ebnf\n"
        'field        = "t" , "=" , number\n'
        '             | ( "or" | "dt" ) , "=" , ident    (* "tar" , "=" is a comment *)\n'
        '             | "policy" , block | perm_line\n'
        '             | "value" , "=" , string ;          (* own only *)\n'
        'afield       = "t" , "=" , number ;\n'
        "```\n"
    )
    assert rule_keys(grammar, "field") == ["t", "or", "dt", "value"]
    assert field_rule_mismatches(grammar, {"field": ["t", "or", "tar", "dt", "value"],
                                           "afield": ["t"]}) == [
        "field: 'tar' is in the table, not in the grammar"]
    assert field_rule_mismatches(grammar, {"afield": []}) == [
        "afield: 't' is in the grammar, not in the table"]


# Modules whose import dominated the command line's start-up: ``dataclasses``
# and what it pulls in.  Every datactl command is a fresh process.
HEAVY = ("dataclasses", "inspect", "ast")


def heavy_imports(path: Path, module: str) -> list[str]:
    """The modules of HEAVY that a fresh ``python -E`` has loaded once it has
    imported ``module`` from the directory ``path``."""
    probe = (f"import sys; sys.path.insert(0, {str(path)!r}); import {module}; "
             f"print(*[m for m in {HEAVY!r} if m in sys.modules])")
    return subprocess.run([sys.executable, "-E", "-c", probe], capture_output=True, text=True,
                          check=True, timeout=60).stdout.split()


def test_command_line_starts_without_dataclasses():
    assert heavy_imports(ROOT / "src", "datactl.cli") == []


def test_heavy_import_is_reported(tmp_path):
    for name, source in (("slow", "import dataclasses\n"), ("quick", "import collections\n")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "__init__.py").write_text(source, encoding="utf-8")
    assert heavy_imports(tmp_path, "slow") == list(HEAVY)
    assert heavy_imports(tmp_path, "quick") == []


def records_with_instance_dicts(modules: Iterable[types.ModuleType]) -> list[str]:
    """The record classes (tuple subclasses) defined in ``modules`` whose
    instances carry a ``__dict__``, which a mixin without ``__slots__`` adds."""
    return [f"{module.__name__}.{name}" for module in modules for name, cls in vars(module).items()
            if isinstance(cls, type) and cls.__module__ == module.__name__
            and issubclass(cls, tuple) and cls.__dictoffset__]


def test_no_record_instance_carries_a_dict():
    modules = [importlib.import_module(f"datactl.{path.stem}") for path in MODULES]
    assert records_with_instance_dicts(modules) == []


def test_record_instance_dict_is_reported():
    module = types.ModuleType("synthetic")

    class Mixin:
        pass

    class SlottedMixin:
        __slots__ = ()

    for name, base in (("Leaky", Mixin), ("Tight", SlottedMixin)):
        cls = record(type(name, (base,), {"__annotations__": {"x": "int"}, "__module__": "synthetic"}))
        setattr(module, name, cls)
    assert records_with_instance_dicts([module]) == ["synthetic.Leaky"]
