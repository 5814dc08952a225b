"""Lints over the package source, the first over the tests too.

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
  * every `setflags(write=False)` freezes an array that the same function
    made with `np.array(...)`, never one that `np.asarray` may have handed
    over from a caller, so a record never freezes its caller's array;
  * each ownership rule of OWNERS, such as "no module but `matio.py` reads
    a file": `facts` walks a module once and yields each fact of a rule (a
    call, an import, a name or a raise) with its enclosing function, and no
    module or function outside the rule's owners may hold one. The table
    gives each rule's reason.
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


# rule -> the modules, or `module function`s, that may hold a fact of it
OWNERS = {
    "linalg.norm": ("vectors.py",),  # so every norm follows the one rule there
    "raise NonFiniteInput": ("vectors.py",),  # so every finiteness check is its one validator's
    "import scipy": ("entropy.py variance_band",),  # so every other path starts on numpy alone
    "import json": ("cli.py",),  # so every artifact is written under the CLI's one JSON rule
    "file write": ("cli.py", "matio.py"),  # ... and its one CSV rule
    "file read": ("matio.py",),  # so every input goes through its line and exact-payload readers
    "Philox": ("seeding.py",),  # so every stream is keyed by its one seed rule
    "import threading": ("seeding.py",),  # ... and re-keyed by its one per-thread generator
    "print": ("cli.py",),  # so the library is quiet by default
}
IMPORT_RULES = {"scipy", "json", "threading"}  # `import X` is an import of X or a submodule
NUMPY_READERS = {"load", "loadtxt", "fromfile", "genfromtxt"}
NUMPY_WRITERS = {"save", "savez", "savez_compressed", "savetxt"}  # and any array's `.tofile`


def call_facts(node: ast.Call):
    """(rule, text) of each fact of a call. An `open` writes a file if its mode
    holds a w, a or x, else reads it; the mode is the `mode` keyword, else the
    second argument of `open(path, mode)` or the first of `Path.open(mode)`,
    and one that is not a string literal counts as both."""
    method = isinstance(node.func, ast.Attribute)
    name = node.func.attr if method else getattr(node.func, "id", None)
    func = ast.unparse(node.func)
    numpy = method and ast.unparse(node.func.value) in ("np", "numpy")
    if func.endswith("linalg.norm"):
        yield "linalg.norm", func
    elif name in ("write_text", "write_bytes"):
        yield "file write", name
    elif name in ("read_text", "read_bytes"):
        yield "file read", name
    elif numpy and name in NUMPY_READERS:
        yield "file read", func
    elif numpy and name in NUMPY_WRITERS or method and name == "tofile":
        yield "file write", func
    elif name == "open":
        mode = ([kw.value for kw in node.keywords if kw.arg == "mode"] or node.args[0 if method else 1:])[:1]
        if not mode or isinstance(mode[0], ast.Constant) and isinstance(mode[0].value, str):
            kinds = ["write" if mode and set(mode[0].value) & set("wax") else "read"]
        else:
            kinds = ["read", "write"]
        yield from ((f"file {kind}", f"open({ast.unparse(mode[0]) if mode else ''})") for kind in kinds)
    elif name == "print" and not method:
        yield "print", name


def node_facts(node: ast.AST):
    """(rule, text) of each fact of a node: a call's, a `raise` of NonFiniteInput, `Philox`
    as an attribute, name or import, an IMPORT_RULES import and `norm` from a `linalg`."""
    if isinstance(node, ast.Call):
        yield from call_facts(node)
    elif isinstance(node, ast.Raise) and node.exc is not None:
        target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if (target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)) == "NonFiniteInput":
            yield "raise NonFiniteInput", ast.unparse(target)
    elif isinstance(node, ast.Attribute) and node.attr == "Philox":
        yield "Philox", ast.unparse(node)
    elif isinstance(node, ast.Name) and node.id == "Philox":
        yield "Philox", node.id
    elif isinstance(node, ast.Import):
        yield from ((f"import {a.name.split('.')[0]}", a.name) for a in node.names
                    if a.name.split(".")[0] in IMPORT_RULES)
    elif isinstance(node, ast.ImportFrom):
        if node.level == 0 and node.module.split(".")[0] in IMPORT_RULES:
            yield f"import {node.module.split('.')[0]}", node.module
        for alias in node.names:
            if alias.name == "norm" and (node.module or "").endswith("linalg"):
                yield "linalg.norm", f"{node.module}.norm"
            elif alias.name == "Philox":
                yield "Philox", f"{node.module}.Philox"


def facts(source: str):
    """(rule, where, line, text) of each fact of a module, in one walk; where
    is the enclosing (dotted) function or class name, or `<module>`."""
    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, child.name if where == "<module>" else f"{where}.{child.name}")
                continue
            yield from ((rule, where, child.lineno, text) for rule, text in node_facts(child))
            yield from visit(child, where)
    return visit(ast.parse(source), "<module>")


def breaches(source: str, *rules: str, module: str = "") -> list[str]:
    """`line N: text` of each fact of rules in module's source outside the rule's owners."""
    found = sorted((line, text) for rule, where, line, text in facts(source) if rule in rules
                   and module not in OWNERS[rule] and f"{module} {where}" not in OWNERS[rule])
    return [f"line {line}: {text}" for line, text in found]


def owners_only(*rules: str):
    """A test, one id per module not owning all of rules, that it holds no fact of them outside their owners."""
    @pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py"))
                                      if any(p.name not in OWNERS[rule] for rule in rules)],
                             ids=lambda p: p.name)
    def test(path):
        assert breaches(path.read_text(), *rules, module=path.name) == []
    return test


test_norms_come_from_vectors = owners_only("linalg.norm")
test_only_vectors_raises_nonfinite_input = owners_only("raise NonFiniteInput")
test_only_the_cli_imports_json = owners_only("import json")
test_only_the_cli_and_matio_write_files = owners_only("file write")
test_only_matio_reads_files = owners_only("file read")
test_only_seeding_keys_philox_streams = owners_only("Philox", "import threading")
test_only_the_cli_prints = owners_only("print")


def test_scipy_is_imported_only_by_variance_band():
    found = [f"{path.name} {where}: {text}" for path in sorted(PACKAGE.glob("*.py"))
             for rule, where, _, text in facts(path.read_text()) if rule == "import scipy"]
    assert found == ["entropy.py variance_band: scipy.stats"]


# one module that breaks every rule, each rule's cases in a function of its own
SNIPPET = (
    "import numpy as np\n"
    "import json\n"
    "import jsonschema\n"
    "import scipy\n"
    "import scipyx\n"
    "import threading\n"
    "from pathlib import Path\n"
    "from numpy.linalg import norm, qr\n"
    "from numpy.random import Philox, PCG64\n"
    "from . import errors\n"
    "from .errors import InvalidArgument, NonFiniteInput\n"
    "from .json import dumps\n"
    "from .scipy import betainc\n"
    "from .seeding import job_rng\n"
    "from .vectors import _unit_rows\n"
    "def norms(m):\n"
    "    return np.linalg.norm(m, axis=1) + _unit_rows(m)[1] + np.dot(m, m)\n"
    "def finite(x):\n"
    "    if not np.isfinite(x).all():\n"
    "        raise NonFiniteInput('x contains NaN or Inf')\n"
    "    if x.size == 0:\n"
    "        raise InvalidArgument('empty') from None\n"
    "    raise errors.NonFiniteInput\n"
    "def pvalue(x):\n"
    "    from scipy.special import betainc\n"
    "class Fit:\n"
    "    def band(self):\n"
    "        import numpy as np, scipy.stats as st\n"
    "def variance_band():\n"
    "    from scipy import stats\n"
    "def dump(doc):\n"
    "    from json.decoder import JSONDecodeError\n"
    "    import numpy as np, json as js\n"
    "def files(path, text, mode, rng):\n"
    "    with open(path) as fh, open(path, 'rb') as raw, Path(path).open() as again:\n"
    "        rng.load(path)\n"
    "    with open(path, 'w') as fh, open(path, mode='ab') as log, Path(path).open('r+') as both:\n"
    "        Path(path).open('x'), Path(path).open(mode='ab')\n"
    "    open(path, mode)\n"
    "    Path(path).write_text(text), Path(path).write_bytes(b'')\n"
    "    Path(path).read_text(), Path(path).read_bytes()\n"
    "    np.load(path), np.loadtxt(path), np.fromfile(path), np.genfromtxt(path)\n"
    "def streams(seed):\n"
    "    from threading import local\n"
    "    gen = np.random.Generator(np.random.Philox(key=seed))\n"
    "    return gen, Philox(seed), local(), job_rng(seed), np.random.default_rng(seed)\n"
    "def arrays(path, x, rng):\n"
    "    np.save(path, x), np.savez(path, x), np.savez_compressed(path, x), np.savetxt(path, x)\n"
    "    x.tofile(path), rng.save(path)\n"
    "def report(x, log):\n"
    "    print(x), log.print(x)\n"
)
# rule -> its facts in SNIPPET, where no owner holds them
SNIPPET_BREACHES = {
    "linalg.norm": ["line 8: numpy.linalg.norm", "line 17: np.linalg.norm"],
    "raise NonFiniteInput": ["line 20: NonFiniteInput", "line 23: errors.NonFiniteInput"],
    "import json": ["line 2: json", "line 32: json.decoder", "line 33: json"],
    "file write": ["line 37: open('ab')", "line 37: open('w')", "line 38: open('ab')", "line 38: open('x')",
                   "line 39: open(mode)", "line 40: write_bytes", "line 40: write_text", "line 48: np.save",
                   "line 48: np.savetxt", "line 48: np.savez", "line 48: np.savez_compressed",
                   "line 49: x.tofile"],
    "file read": ["line 35: open('rb')", "line 35: open()", "line 35: open()", "line 37: open('r+')",
                  "line 39: open(mode)", "line 41: read_bytes", "line 41: read_text", "line 42: np.fromfile",
                  "line 42: np.genfromtxt", "line 42: np.load", "line 42: np.loadtxt"],
    "Philox": ["line 9: numpy.random.Philox", "line 45: np.random.Philox", "line 46: Philox"],
    "import threading": ["line 6: threading", "line 44: threading"],
    "print": ["line 51: print"],
}


def reported(*rules: str):
    """A test that SNIPPET breaks each of rules exactly as SNIPPET_BREACHES says."""
    def test():
        assert [breaches(SNIPPET, rule) for rule in rules] == [SNIPPET_BREACHES[rule] for rule in rules]
    return test


test_a_norm_outside_vectors_is_reported = reported("linalg.norm")
test_a_nonfinite_raise_outside_vectors_is_reported = reported("raise NonFiniteInput")
test_a_json_import_outside_the_cli_is_reported = reported("import json")
test_a_file_write_outside_the_cli_is_reported = reported("file write")
test_a_file_read_outside_matio_is_reported = reported("file read")
test_a_philox_or_thread_outside_seeding_is_reported = reported("Philox", "import threading")
test_a_print_outside_the_cli_is_reported = reported("print")


def test_a_scipy_import_elsewhere_is_reported():
    found = [f"{where}: {text}" for rule, where, _, text in facts(SNIPPET) if rule == "import scipy"]
    assert found == ["<module>: scipy", "pvalue: scipy.special", "Fit.band: scipy.stats", "variance_band: scipy"]
    # in entropy.py, all but variance_band's
    assert breaches(SNIPPET, "import scipy", module="entropy.py") == [
        "line 4: scipy", "line 25: scipy.special", "line 28: scipy.stats"]
