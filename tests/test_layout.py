"""The installed package carries only what the program runs, and writes
JSON one way.

Every public top-level function and class in ``src/catbert`` has a caller
in ``src/``, ``scripts/`` or ``perfbench/``. Code that only tests call,
such as the finite-difference gradient check, lives in ``tests/oracles.py``.
Every indented JSON file that ``src/`` or ``scripts/`` writes goes through
``atomic.json_text``. Every ``--flag`` README names is one that a parser in
``src/`` or ``scripts/`` declares, so a retired flag cannot linger in it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "catbert"
CALLER_DIRS = ("src", "scripts", "perfbench")

# No forward calls these two, but perfbench/tracing.py wraps them by name
# (a string, which this scan does not read). ROADMAP item 5's benchmark
# change drops them from its TRACED list; then this set shrinks to empty
# and the two leave the package.
UNCALLED = {"tensor.softmax_rows", "tensor.gelu"}


def public_defs(package: Path) -> dict[str, str]:
    """``module.name`` -> ``name`` for each public top-level function and
    class in the package."""
    defs = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs[f"{path.stem}.{node.name}"] = node.name
    return defs


def mentioned_names(source: str) -> set[str]:
    """Names the source uses: as a name, as an attribute of a name
    (``T.matmul``), or in a ``from ... import``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def uncalled(root: Path) -> set[str]:
    called = set()
    for folder in CALLER_DIRS:
        for path in sorted((root / folder).rglob("*.py")):
            called |= mentioned_names(path.read_text(encoding="utf-8"))
    return {qual for qual, name in public_defs(root / "src" / "catbert").items()
            if name not in called}


def test_name_finder_sees_each_form():
    source = ("from catbert.metrics import roc_auc as auc\n"
              "import catbert.tensor as T\n"
              "T.matmul(x, w)\n"
              "f = wordpiece\n"
              "b'x'.decode()\n"
              "getattr(T, 'gelu')\n")
    names = mentioned_names(source)
    assert {"roc_auc", "matmul", "wordpiece"} <= names
    assert not {"decode", "gelu", "auc"} & names


def test_every_public_name_in_the_package_has_a_caller():
    assert uncalled(ROOT) == UNCALLED


def indented_json_calls(source: str) -> list[int]:
    """The lines of ``json.dump`` and ``json.dumps`` calls given ``indent=``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dump", "dumps") and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json" and any(k.arg == "indent" for k in node.keywords)]


def test_json_call_finder_sees_each_form():
    source = ("json.dump(x, f, indent=2, sort_keys=True)\n"
              "json.dumps(x)\n"
              "json.dumps(x, sort_keys=True,\n"
              "           indent=None)\n"
              "json_text(x)\n")
    assert indented_json_calls(source) == [1, 3]


def test_json_is_indented_only_by_json_text():
    found = [f"{path.relative_to(ROOT)}:{line}"
             for folder in ("src", "scripts") for path in sorted((ROOT / folder).rglob("*.py"))
             if path != PACKAGE / "atomic.py"
             for line in indented_json_calls(path.read_text(encoding="utf-8"))]
    assert found == []


def declared_flags(source: str) -> set[str]:
    """The ``--flag`` strings passed to ``add_argument`` calls."""
    return {arg.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
            for arg in node.args
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            and arg.value.startswith("--")}


def test_flag_finder_sees_each_form():
    source = ("p.add_argument('--in', dest='inp', required=True)\n"
              "parser.add_argument('-s', '--seed', type=int)\n"
              "ap.add_argument('count')\n"
              "p.set_defaults(flag='--out')\n"
              "add_argument('--bare')\n")
    assert declared_flags(source) == {"--in", "--seed"}


def test_every_flag_readme_names_is_declared():
    """pip's ``--no-build-isolation`` is the one flag README may name that
    no parser here declares; argparse gives every parser ``--help``."""
    declared = {"--help"}
    for folder in ("src", "scripts"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            declared |= declared_flags(path.read_text(encoding="utf-8"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    assert sorted(named - declared - {"--no-build-isolation"}) == []
