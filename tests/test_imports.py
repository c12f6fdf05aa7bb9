"""Every name a funcuq module imports is used in that module, and every
function or class it defines is read somewhere."""

import ast
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "funcuq"
# The package __init__ imports names only to re-export them.
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_check_finds_an_unused_import():
    source = "import os\nfrom dataclasses import dataclass, field\nx = field\n"
    assert unused_imports(source) == [(1, "os"), (2, "dataclass")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def imports_surrogate(source: str) -> bool:
    """Whether a source imports the surrogate module or a name from it."""
    paths = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            paths += [f"{node.module or ''}.{a.name}" for a in node.names]
    return any("surrogate" in path.split(".") for path in paths)


def test_check_finds_a_surrogate_import():
    for source in ("from .surrogate import LatentSurrogate\n", "from . import surrogate\n",
                   "import funcuq.surrogate\n", "from funcuq.surrogate import load_surrogate\n"):
        assert imports_surrogate(source), source
    assert not imports_surrogate("from .core import FLOAT_FMT\nimport numpy as np\n")


def test_uq_imports_nothing_from_surrogate():
    # Forward and inverse UQ take any batched model; a surrogate is one.
    assert not imports_surrogate((SRC / "uq.py").read_text(encoding="utf-8"))


PERFBENCH = SRC.parent.parent / "perfbench"


def dead_names(modules: dict, perfbench: list) -> list:
    """(module, name) of each module-level def/class of `modules` (file name
    -> source) that no other module reads, its own module reads only in its
    definition, and no `perfbench` source names as a word.  The package
    __init__ is not a reader: it only re-exports."""
    read = {}
    for module, source in modules.items():
        tree = ast.parse(source)
        read[module] = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        read[module] |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    dead = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if any(name in names for names in read.values()):
                continue
            if any(re.search(rf"\b{name}\b", text) for text in perfbench):
                continue
            dead.append((module, name))
    return dead


def test_dead_name_check_finds_an_unread_function():
    modules = {"a.py": "def used():\n    pass\n\ndef unused():\n    used()\n",
               "b.py": "def named():\n    pass\n"}
    assert dead_names(modules, ["b.named()"]) == [("a.py", "unused")]


def test_every_module_level_name_is_read():
    modules = {m: (SRC / m).read_text(encoding="utf-8") for m in MODULES}
    perfbench = [p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py"))]
    assert dead_names(modules, perfbench) == []


def name_uses(tree, names) -> list:
    """(line, name) of each import, name or attribute of `tree` that is one
    of `names`."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found = [a.name for a in node.names]
        elif isinstance(node, ast.Name):
            found = [node.id]
        elif isinstance(node, ast.Attribute):
            found = [node.attr]
        else:
            continue
        uses += [(node.lineno, n) for n in found if n in names]
    return uses


def cholesky_wrapper_uses(source: str) -> list:
    """(line, name) of each import or reference of scipy's cho_factor or
    cho_solve."""
    return name_uses(ast.parse(source), ("cho_factor", "cho_solve"))


def test_check_finds_a_cholesky_wrapper():
    source = ("from scipy.linalg import cho_solve\nimport scipy\n"
              "def log_marginal_likelihood():\n    cho_solve()\n"
              "def other():\n    scipy.linalg.cho_factor()\n")
    assert cholesky_wrapper_uses(source) == [(1, "cho_solve"), (4, "cho_solve"), (6, "cho_factor")]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_one_cholesky_factor_type(module):
    # Every factor is dpotrf's lower factor, directly or through
    # core.cho_with_jitter, and every solve is one dpotrs call.
    assert cholesky_wrapper_uses((SRC / module).read_text(encoding="utf-8")) == []


TABLE_FORMAT_NAMES = ("loadtxt", "FLOAT_FMT")


def test_check_finds_a_table_format_use():
    source = ("from .core import FLOAT_FMT\nimport numpy as np\n"
              "def f(p):\n    return np.loadtxt(p), FLOAT_FMT % 1.0\n")
    assert name_uses(ast.parse(source), TABLE_FORMAT_NAMES) == [(1, "FLOAT_FMT"), (4, "loadtxt"),
                                                                (4, "FLOAT_FMT")]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "core.py"))
def test_one_table_format(module):
    # Every CSV table is read by core.read_table and written by
    # core.write_table, the one reader of loadtxt and user of FLOAT_FMT.
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert name_uses(tree, TABLE_FORMAT_NAMES) == []
