"""Eleven lints over the package source, the first over the tests too.

No linter ships with the toolchain, so these tests parse each module of the
package:
  * every name a module of the package or of `tests/` imports is used in it
    (the package's `__init__.py` is left out, its imports being its public
    names, and so are `from __future__` imports, compiler directives);
  * every `raise` names an exception class of `qstacker.errors`, so no bare
    `ValueError` or `KeyError` escapes the error taxonomy;
  * every class of `qstacker.errors` but the `QStackerError` base is raised
    by name somewhere in the package, so the taxonomy holds no class that
    no caller can meet;
  * no module but `vectors.py` calls `linalg.norm`, so every norm in the
    package follows the one rule there;
  * no module but `vectors.py` raises `NonFiniteInput`, so every finiteness
    check on an operand goes through its one validator;
  * the package's only scipy import is the one inside
    `entropy.variance_band`, so every other path starts on numpy alone;
  * no module but `cli.py` imports `json`, and no module but `cli.py` and
    `matio.py` opens a file for writing, so every artifact is written by
    the CLI under its one JSON and CSV rules;
  * no module but `matio.py` reads a file, so every input file is parsed
    through its one line reader and its one exact-payload reader;
  * every `setflags(write=False)` freezes an array that the same function
    made with `np.array(...)`, never one that `np.asarray` may have handed
    over from a caller, so a record never freezes its caller's array;
  * no module but `seeding.py` names `Philox` or imports `threading`, so
    every Philox stream is keyed by its one seed rule and re-keyed through
    its one per-thread generator.
"""

import ast
import inspect
from pathlib import Path

import pytest

from qstacker import errors

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qstacker"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_the_package_has_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES + sorted(Path(__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_reported():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .vectors import EncodedState, encode\n"
        "x = np.zeros(3)\n"
        "y = os.path.join('a', 'b')\n"
        "def f(state: EncodedState):\n"
        "    return state\n"
    )
    assert unused_imports(source) == ["line 2: json", "line 5: encode"]


TAXONOMY = {name for name, obj in vars(errors).items()
            if inspect.isclass(obj) and obj.__module__ == errors.__name__}


def raised(source: str) -> list[tuple[int, ast.expr, str | None]]:
    """(line, expression, class name) of each `raise` that names an exception;
    a bare `raise` re-raises and is left out."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        found.append((node.lineno, target, name))
    return found


def foreign_raises(source: str) -> list[str]:
    """`raise` statements whose exception is not a class of qstacker.errors."""
    found = sorted((line, ast.unparse(target)) for line, target, name in raised(source)
                   if name not in TAXONOMY)
    return [f"line {line}: {text}" for line, text in found]


def unraised_classes(taxonomy_source: str, sources: list[str]) -> list[str]:
    """Classes defined in taxonomy_source, other than QStackerError, that no
    `raise` in sources names; catching a class does not count."""
    defined = {node.name for node in ast.parse(taxonomy_source).body if isinstance(node, ast.ClassDef)}
    named = {name for source in sources for _, _, name in raised(source)}
    return sorted(defined - named - {"QStackerError"})


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_raises_name_the_error_taxonomy(path):
    assert foreign_raises(path.read_text()) == []


def test_a_foreign_raise_is_reported():
    source = (
        "from .errors import InvalidArgument\n"
        "def f(x):\n"
        "    if x < 0:\n"
        "        raise ValueError('negative')\n"
        "    if x > 9:\n"
        "        raise InvalidArgument('large') from None\n"
        "    try:\n"
        "        return {}[x]\n"
        "    except KeyError:\n"
        "        raise\n"
        "    raise KeyError\n"
    )
    assert foreign_raises(source) == ["line 4: ValueError", "line 11: KeyError"]


def test_every_error_class_is_raised():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unraised_classes((PACKAGE / "errors.py").read_text(), sources) == []


def test_an_unraised_error_class_is_reported():
    taxonomy = (
        "class QStackerError(Exception):\n"
        "    pass\n"
        "class Raised(QStackerError):\n"
        "    pass\n"
        "class OnlyCaught(QStackerError):\n"
        "    pass\n"
        "class Unused(OnlyCaught):\n"
        "    pass\n"
    )
    module = (
        "from .errors import OnlyCaught, Raised\n"
        "def f(x):\n"
        "    try:\n"
        "        raise Raised(x)\n"
        "    except OnlyCaught:\n"
        "        return None\n"
    )
    assert unraised_classes(taxonomy, [module]) == ["OnlyCaught", "Unused"]


def norm_calls(source: str) -> list[str]:
    """Calls of `linalg.norm`, and imports of `norm` from a `linalg` module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("linalg.norm"):
            found.append((node.lineno, ast.unparse(node.func)))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            found += [(node.lineno, f"{node.module}.norm") for alias in node.names if alias.name == "norm"]
    return [f"line {line}: {text}" for line, text in sorted(found)]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "vectors.py"],
                         ids=lambda p: p.name)
def test_norms_come_from_vectors(path):
    assert norm_calls(path.read_text()) == []


def test_a_norm_outside_vectors_is_reported():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import norm, qr\n"
        "from .vectors import _unit_rows\n"
        "def f(m):\n"
        "    return np.linalg.norm(m, axis=1) + _unit_rows(m)[1] + np.dot(m, m)\n"
    )
    assert norm_calls(source) == ["line 2: numpy.linalg.norm", "line 5: np.linalg.norm"]


def nonfinite_raises(source: str) -> list[str]:
    """`raise` statements that name NonFiniteInput."""
    found = sorted((line, ast.unparse(target)) for line, target, name in raised(source)
                   if name == "NonFiniteInput")
    return [f"line {line}: {text}" for line, text in found]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "vectors.py"],
                         ids=lambda p: p.name)
def test_only_vectors_raises_nonfinite_input(path):
    assert nonfinite_raises(path.read_text()) == []


def test_a_nonfinite_raise_outside_vectors_is_reported():
    source = (
        "import numpy as np\n"
        "from . import errors\n"
        "from .errors import InvalidArgument, NonFiniteInput\n"
        "def f(x):\n"
        "    if not np.isfinite(x).all():\n"
        "        raise NonFiniteInput('x contains NaN or Inf')\n"
        "    if x.size == 0:\n"
        "        raise InvalidArgument('empty') from None\n"
        "    raise errors.NonFiniteInput\n"
    )
    assert nonfinite_raises(source) == ["line 6: NonFiniteInput", "line 9: errors.NonFiniteInput"]


def scipy_imports(source: str) -> list[str]:
    """`where: module` for each import of scipy, where is the enclosing
    (dotted) function or class name, or `<module>` at the top level."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if where == "<module>" else f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module]
            else:
                names = []
            found.extend(f"{where}: {name}" for name in names
                         if name == "scipy" or name.startswith("scipy."))
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_scipy_is_imported_only_by_variance_band():
    found = [f"{path.name} {entry}" for path in sorted(PACKAGE.glob("*.py"))
             for entry in scipy_imports(path.read_text())]
    assert found == ["entropy.py variance_band: scipy.stats"]


def test_a_scipy_import_elsewhere_is_reported():
    source = (
        "import scipy\n"
        "import scipyx\n"
        "from .scipy import betainc\n"
        "def pvalue(x):\n"
        "    from scipy.special import betainc\n"
        "    return betainc(1.0, 0.5, x)\n"
        "class Fit:\n"
        "    def band(self):\n"
        "        import numpy as np, scipy.stats as st\n"
        "        return st, np\n"
    )
    assert scipy_imports(source) == [
        "<module>: scipy", "pvalue: scipy.special", "Fit.band: scipy.stats",
    ]


def json_imports(source: str) -> list[str]:
    """Imports of `json` or of a `json.` submodule."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name == "json" or name.startswith("json.")]
    return found


def file_writes(source: str) -> list[str]:
    """Calls that write a file: `write_text`, `write_bytes`, and `open` whose
    mode holds a w, a or x. The mode is the `mode` keyword, else the second
    argument of a bare `open(path, mode)` or the first of a method call such
    as `Path.open(mode)`; a mode that is not a string literal counts as a write."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        method = isinstance(node.func, ast.Attribute)
        name = node.func.attr if method else getattr(node.func, "id", None)
        if name in ("write_text", "write_bytes"):
            found.append((node.lineno, name))
        elif name == "open":
            positional = node.args[0 if method else 1:]
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"] or positional[:1]
            if not modes:
                continue
            mode = modes[0]
            literal = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            if not literal or set(mode.value) & set("wax"):
                found.append((node.lineno, f"open({ast.unparse(mode)})"))
    return [f"line {line}: {text}" for line, text in sorted(found)]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_only_the_cli_imports_json(path):
    assert json_imports(path.read_text()) == []


def test_a_json_import_outside_the_cli_is_reported():
    source = (
        "import json\n"
        "import jsonschema\n"
        "from .json import dumps\n"
        "def f(doc):\n"
        "    from json.decoder import JSONDecodeError\n"
        "    import numpy as np, json as js\n"
        "    return js.dumps(doc), np, JSONDecodeError\n"
    )
    assert json_imports(source) == ["line 1: json", "line 5: json.decoder", "line 6: json"]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py"))
                                  if p.name not in ("cli.py", "matio.py")],
                         ids=lambda p: p.name)
def test_only_the_cli_and_matio_write_files(path):
    assert file_writes(path.read_text()) == []


def test_a_file_write_outside_the_cli_is_reported():
    source = (
        "from pathlib import Path\n"
        "def f(path, text, mode):\n"
        "    with open(path) as fh, open(path, 'rb') as raw, Path(path).open() as again:\n"
        "        pass\n"
        "    with open(path, 'w') as fh, open(path, mode='ab') as log:\n"
        "        pass\n"
        "    Path(path).open('x')\n"
        "    open(path, mode)\n"
        "    Path(path).write_text(text)\n"
        "    Path(path).write_bytes(b'')\n"
        "    return Path(path).read_text()\n"
    )
    assert file_writes(source) == [
        "line 5: open('ab')", "line 5: open('w')", "line 7: open('x')", "line 8: open(mode)",
        "line 9: write_text", "line 10: write_bytes",
    ]


NUMPY_READERS = {"load", "loadtxt", "fromfile", "genfromtxt"}


def file_reads(source: str) -> list[str]:
    """Calls that read a file: `read_text`, `read_bytes`, numpy's `load`,
    `loadtxt`, `fromfile` and `genfromtxt`, and `open` without a write mode.
    The mode is found as in file_writes; an `open` with no mode, or with a
    mode that is not a string literal, counts as a read."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        method = isinstance(node.func, ast.Attribute)
        name = node.func.attr if method else getattr(node.func, "id", None)
        if name in ("read_text", "read_bytes"):
            found.append((node.lineno, name))
        elif method and name in NUMPY_READERS and ast.unparse(node.func.value) in ("np", "numpy"):
            found.append((node.lineno, ast.unparse(node.func)))
        elif name == "open":
            positional = node.args[0 if method else 1:]
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"] or positional[:1]
            mode = modes[0] if modes else None
            literal = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            if not literal or not set(mode.value) & set("wax"):
                found.append((node.lineno, f"open({'' if mode is None else ast.unparse(mode)})"))
    return [f"line {line}: {text}" for line, text in sorted(found)]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "matio.py"],
                         ids=lambda p: p.name)
def test_only_matio_reads_files(path):
    assert file_reads(path.read_text()) == []


def test_a_file_read_outside_matio_is_reported():
    source = (
        "import numpy as np\n"
        "from pathlib import Path\n"
        "def f(path, mode, rng):\n"
        "    with open(path, 'w') as fh, Path(path).open(mode='ab') as log:\n"
        "        rng.load(path)\n"
        "    with open(path) as fh, open(path, 'rb') as raw, Path(path).open('r+') as both:\n"
        "        pass\n"
        "    open(path, mode)\n"
        "    Path(path).read_text()\n"
        "    Path(path).read_bytes()\n"
        "    np.load(path), np.loadtxt(path), np.fromfile(path), np.genfromtxt(path)\n"
        "    return Path(path).write_text('')\n"
    )
    assert file_reads(source) == [
        "line 6: open('r+')", "line 6: open('rb')", "line 6: open()", "line 8: open(mode)",
        "line 9: read_text", "line 10: read_bytes", "line 11: np.fromfile", "line 11: np.genfromtxt",
        "line 11: np.load", "line 11: np.loadtxt",
    ]


def own_nodes(func):
    """The nodes of a function's body, leaving out those of nested functions."""
    for child in ast.iter_child_nodes(func):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from own_nodes(child)


def borrowed_freezes(source: str) -> list[str]:
    """`setflags(write=False)` calls (write by keyword or first argument) whose
    array is not a name that the enclosing function binds only to `np.array(...)`."""
    tree = ast.parse(source)
    found = []
    for scope in [tree, *(n for n in ast.walk(tree)
                          if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))]:
        nodes = list(own_nodes(scope))
        bound = {}
        for node in nodes:
            if isinstance(node, ast.Assign):
                made = isinstance(node.value, ast.Call) and ast.unparse(node.value.func) == "np.array"
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound[target.id] = bound.get(target.id, True) and made
        for node in nodes:
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "setflags"):
                continue
            write = [kw.value for kw in node.keywords if kw.arg == "write"] or node.args[:1]
            if not (write and isinstance(write[0], ast.Constant) and write[0].value is False):
                continue
            array = node.func.value
            if not (isinstance(array, ast.Name) and bound.get(array.id)):
                found.append((node.lineno, ast.unparse(array)))
    return [f"line {line}: {text}" for line, text in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_frozen_arrays_are_the_functions_own(path):
    assert borrowed_freezes(path.read_text()) == []


def test_a_borrowed_freeze_is_reported():
    source = (
        "import numpy as np\n"
        "def own(x):\n"
        "    arr = np.array(x, dtype=np.float64)\n"
        "    arr.setflags(write=False)\n"
        "    arr.setflags(write=True)\n"
        "    return arr\n"
        "def borrowed(x):\n"
        "    arr = np.asarray(x, dtype=np.float64)\n"
        "    arr.setflags(write=False)\n"
        "def rebound(x):\n"
        "    arr = np.array(x)\n"
        "    arr = np.asarray(arr)\n"
        "    arr.setflags(False)\n"
        "def nested(x):\n"
        "    arr = np.array(x)\n"
        "    def inner():\n"
        "        arr.setflags(write=False)\n"
        "    x.values.setflags(write=False)\n"
        "    return inner\n"
        "np.zeros(3).setflags(write=False)\n"
    )
    assert borrowed_freezes(source) == [
        "line 9: arr", "line 13: arr", "line 17: arr", "line 18: x.values", "line 20: np.zeros(3)",
    ]


def philox_and_threading(source: str) -> list[str]:
    """Each `Philox` named as an attribute, a bare name or an imported name,
    and each import of `threading` or a `threading.` submodule."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "Philox":
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Name) and node.id == "Philox":
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.split(".")[0] == "threading"]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module.split(".")[0] == "threading":
                found.append((node.lineno, node.module))
            found += [(node.lineno, f"{node.module}.Philox") for alias in node.names if alias.name == "Philox"]
    return [f"line {line}: {text}" for line, text in sorted(found)]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "seeding.py"],
                         ids=lambda p: p.name)
def test_only_seeding_keys_philox_streams(path):
    assert philox_and_threading(path.read_text()) == []


def test_a_philox_or_thread_outside_seeding_is_reported():
    source = (
        "import numpy as np\n"
        "import threading\n"
        "from numpy.random import Philox, PCG64\n"
        "from .seeding import job_rng\n"
        "def f(seed):\n"
        "    from threading import local\n"
        "    gen = np.random.Generator(np.random.Philox(key=seed))\n"
        "    return gen, Philox(seed), local(), job_rng(seed), np.random.default_rng(seed)\n"
    )
    assert philox_and_threading(source) == [
        "line 2: threading", "line 3: numpy.random.Philox", "line 6: threading",
        "line 7: np.random.Philox", "line 8: Philox",
    ]
