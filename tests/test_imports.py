"""Every module of the package uses each name it imports, reads each
private name it defines somewhere in the package, leaves the lower bound
of a count to ``graphs.as_int``, sets a frozen field only in
``__post_init__``, gives each dataclass that holds an array an equality,
and each frozen one that holds a dict or a list a hash, that does not
raise, and imports scipy only inside the functions that use it.

No linter ships with the test dependencies, so this parses the modules
with ``ast``: an imported name that no ``Name`` node of its module reads
is unused.  ``__init__.py`` is skipped, because it imports to re-export.
A module-level ``_name`` that no ``Name`` or attribute of any module of
the package reads is dead.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "netqwalk"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """``line N: name`` for each name that ``source`` imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import scipy.linalg`` binds ``scipy``
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_the_check_finds_an_unused_import():
    source = "import os\nimport scipy.linalg as la\nfrom a import b, c as d\nb(d)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: la"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each module-level ``_name``, a function, a class
    or a constant, that no module of ``sources`` reads by name or attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            found += [f"{module}: {name}" for name in names
                      if name[0] == "_" and name[:2] != "__" and name not in read]
    return found


def test_the_check_finds_an_unread_private_name():
    sources = {
        "a": (
            "__version__ = '1'\n_LIMIT, _SPARE = 3, 4\n_TYPED: int = 5\n"
            "def _helper():\n    return _LIMIT\n"
            "def _dead():\n    pass\n"
            "class _Box:\n    pass\n"
        ),
        "b": "import a\nfrom a import _helper\n_helper(a._Box)\n",
    }
    assert unread_private_names(sources) == ["a: _SPARE", "a: _TYPED", "a: _dead"]


def test_every_private_name_is_read_in_the_package():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def _is_as_int(node) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "as_int"


def _counted(node, names: set[str]) -> bool:
    """Whether ``node`` holds an ``as_int`` call or a name bound to one's result."""
    return any(_is_as_int(n) or ast.unparse(n) in names for n in ast.walk(node))


def _field_set(node):
    """``(field, value)`` of ``object.__setattr__(self, "field", value)``, else None."""
    if isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__":
        target, name, value = node.args
        if isinstance(name, ast.Constant):
            return f"{ast.unparse(target)}.{name.value}", value
    return None


def bounded_counts(source: str) -> list[str]:
    """``line N`` for each one-sided comparison of a number with a count from
    ``as_int``: the call itself, a walrus or a name bound to it, a field that
    ``object.__setattr__`` set to it, or a loop variable over such a name.
    Its ``low`` owns that bound; a range ``lo <= n < hi`` is left alone."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        names, size = set(), -1
        while size < len(names):  # bind names until no new one appears
            size = len(names)
            for node in ast.walk(func):
                if isinstance(node, (ast.Assign, ast.NamedExpr)) and _counted(node.value, names):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names.update(map(ast.unparse, targets))
                elif isinstance(node, ast.comprehension) and _counted(node.iter, names):
                    names.add(ast.unparse(node.target))
                elif (field := _field_set(node)) and _counted(field[1], names):
                    names.add(field[0])
        for node in ast.walk(func):
            if not isinstance(node, ast.Compare) or len(node.ops) > 1:
                continue
            sides = [node.left, *node.comparators]
            count = any(
                _is_as_int(x) or ast.unparse(x) in names
                or isinstance(x, ast.NamedExpr) and _is_as_int(x.value)
                for x in sides
            )
            number = any(isinstance(x, ast.Constant) and type(x.value) in (int, float) for x in sides)
            if count and number:
                found.add(node.lineno)
    return [f"line {n}" for n in sorted(found)]


def test_the_check_finds_a_bound_that_as_int_could_own():
    source = (
        "def f(self, a, b, c, ks):\n"
        "    if (a := as_int(a, 'a')) < 0: pass\n"
        "    b = as_int(b, 'b')\n"
        "    if b < 1 or as_int(c, 'c') > 9: pass\n"
        "    object.__setattr__(self, 'seed', as_int(self.seed, 'seed'))\n"
        "    if 0 > self.seed: pass\n"
        "    ks = tuple(as_int(k, 'K') for k in ks)\n"
        "    if any(k < 1 for k in ks): pass\n"
        "    if 0 <= as_int(c, 'c') < 4 or b < self.n or as_int(a, 'a', 0) == a: pass\n"
    )
    assert bounded_counts(source) == [f"line {n}" for n in (2, 4, 6, 8)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_bounds_a_count_that_as_int_returned(path):
    assert bounded_counts(path.read_text(encoding="utf-8")) == []


def _setattr_calls(node) -> list[ast.Call]:
    return [n for n in ast.walk(node)
            if isinstance(n, ast.Call) and ast.unparse(n.func) == "object.__setattr__"]


def stray_setattrs(source: str) -> list[str]:
    """``line N`` for each ``object.__setattr__`` call outside a ``__post_init__``:
    a value derived later is a ``functools.cached_property``."""
    tree = ast.parse(source)
    inits = [f for f in ast.walk(tree) if getattr(f, "name", None) == "__post_init__"]
    allowed = {id(call) for f in inits for call in _setattr_calls(f)}
    stray = sorted(call.lineno for call in _setattr_calls(tree) if id(call) not in allowed)
    return [f"line {n}" for n in stray]


def test_the_check_finds_a_frozen_field_set_outside_post_init():
    source = (
        "class A:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'x', 1)\n"
        "    def cache(self):\n"
        "        object.__setattr__(self, '_y', 2)\n"
        "def fill(a):\n"
        "    object.__setattr__(a, '_z', 3)\n"
    )
    assert stray_setattrs(source) == ["line 5", "line 7"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_frozen_fields_are_set_only_in_post_init(path):
    assert stray_setattrs(path.read_text(encoding="utf-8")) == []


_ARRAY = re.compile(r"\b(np\.ndarray|sp\.|scipy\.sparse\.)")
_MUTABLE = re.compile(r"\b(dict|list)\b")


def dataclasses_whose_generated_methods_raise(source: str) -> list[str]:
    """Each dataclass that neither passes ``eq=False`` nor defines ``__eq__``
    and holds an ``np.ndarray`` or sparse field, or is frozen and holds a
    ``dict`` or ``list`` field.  The generated ``__eq__`` compares the arrays
    inside tuples and raises on equal ones; the ``__hash__`` generated for a
    frozen one hashes every field and raises on a dict or a list."""
    found = []
    for cls in (n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.ClassDef)):
        calls = [d for d in cls.decorator_list
                 if ast.unparse(getattr(d, "func", d)) in ("dataclass", "dataclasses.dataclass")]
        if not calls:
            continue
        keywords = {ast.unparse(k) for d in calls for k in getattr(d, "keywords", [])}
        has_eq = any(isinstance(n, ast.FunctionDef) and n.name == "__eq__" for n in cls.body)
        fields = [ast.unparse(n.annotation) for n in cls.body if isinstance(n, ast.AnnAssign)]
        arrays = any(map(_ARRAY.search, fields))
        mutable = "frozen=True" in keywords and any(map(_MUTABLE.search, fields))
        if (arrays or mutable) and not ("eq=False" in keywords or has_eq):
            found.append(cls.name)
    return found


def test_the_check_finds_a_dataclass_whose_equality_compares_arrays():
    source = (
        "@dataclass(frozen=True)\nclass Raw:\n    a: np.ndarray | None\n"
        "@dataclass\nclass Sparse:\n    m: sp.csr_matrix\n"
        "@dataclass(frozen=True, eq=False)\nclass Derived:\n    a: np.ndarray\n"
        "@dataclass(frozen=True)\nclass Value:\n    a: np.ndarray\n"
        "    def __eq__(self, other):\n        return True\n"
        "@dataclass\nclass Plain:\n    x: tuple\n"
        "class NotData:\n    a: np.ndarray\n"
        "@dataclass(frozen=True)\nclass Summary:\n    s: dict\n"
        "@dataclass(frozen=True)\nclass Rows:\n    r: tuple[list[int], ...]\n"
        "@dataclass(frozen=True, eq=False)\nclass Result:\n    s: dict[str, int]\n"
        "@dataclass\nclass Mutable:\n    s: dict\n"
        "@dataclass(frozen=True)\nclass Listing:\n    name: str\n"
    )
    assert dataclasses_whose_generated_methods_raise(source) == ["Raw", "Sparse", "Summary", "Rows"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_dataclass_that_holds_an_array_compares_without_raising(path):
    assert dataclasses_whose_generated_methods_raise(path.read_text(encoding="utf-8")) == []


def _runs_on_import(tree: ast.Module):
    """Every node that runs when the module is imported: none inside a
    function body, and none under ``if TYPE_CHECKING:``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            stack.extend(node.orelse)
        else:
            stack.extend(ast.iter_child_nodes(node))


def scipy_imports_on_import(source: str) -> list[str]:
    """``line N`` for each ``import scipy...`` or ``from scipy... import``
    that runs when ``source`` is imported.  A function that builds a sparse
    matrix imports ``scipy.sparse`` itself, so that ``import netqwalk`` and
    ``graph-stats`` load no scipy."""
    found = []
    for node in _runs_on_import(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            found.append(node.lineno)
    return [f"line {n}" for n in sorted(found)]


def test_the_check_finds_a_scipy_import_that_runs_on_import():
    source = (
        "import os\n"
        "import numpy as np, scipy.sparse as sp\n"
        "from scipy.linalg import eigh\n"
        "from . import scipy\n"
        "import scipyx\n"
        "if TYPE_CHECKING:\n"
        "    import scipy.special\n"
        "else:\n"
        "    import scipy.fft\n"
        "try:\n"
        "    import scipy\n"
        "except ImportError:\n"
        "    pass\n"
        "class A:\n"
        "    import scipy.io\n"
        "    def f(self):\n"
        "        import scipy.linalg\n"
        "def g():\n"
        "    from scipy.spatial.distance import cdist\n"
        "async def h():\n"
        "    import scipy.signal\n"
    )
    assert scipy_imports_on_import(source) == [f"line {n}" for n in (2, 3, 9, 11, 15)]


PACKAGE_FILES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", PACKAGE_FILES, ids=[p.name for p in PACKAGE_FILES])
def test_no_module_imports_scipy_when_it_is_imported(path):
    assert scipy_imports_on_import(path.read_text(encoding="utf-8")) == []
