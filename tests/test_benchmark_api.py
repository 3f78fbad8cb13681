"""The functions the benchmark's tracer wraps still exist and still take the
arguments its observers read.

``perfbench/tracing.py`` replaces each ``(module, function)`` in its
``TRACED`` list with a timing wrapper, and after each call binds the
arguments by name for its observers (``a["mask"]`` and so on). A renamed
function or parameter would therefore crash only traced runs. The tables
are read from the source with ``ast``: perfbench is neither imported nor
changed here.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# the argument names each observer binds, as the tracer reads them today
OBSERVED = {
    "tensor.matmul": {"a", "b"},
    "tokenizer.encode": {"subject", "body", "vocab", "max_len"},
    "tensor.adam_step": {"params"},
    "tensor.backward": {"tape"},
    "model.forward_probs": {"mask"},
    "mail.extract_context": {"record"},
    "checkpoint.save_checkpoint": {"model"},
}


@pytest.fixture(scope="module")
def tree():
    return ast.parse(TRACING.read_text(encoding="utf-8"))


def traced(tree) -> list[tuple[str, str]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED list in perfbench/tracing.py")


def observed(tree) -> dict[str, set[str]]:
    """Span name -> the names its observer reads from its bound arguments
    (the subscripts ``a["..."]`` of the observer's first parameter)."""
    obs = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_observers")
    helpers = {n.name: n for n in obs.body if isinstance(n, ast.FunctionDef)}
    table = next(n for n in obs.body if isinstance(n, ast.Return)).value
    out = {}
    for key, fn in zip(table.keys, table.values):
        fn = helpers[fn.id] if isinstance(fn, ast.Name) else fn
        arg = fn.args.args[0].arg
        out[ast.literal_eval(key)] = {
            n.slice.value for n in ast.walk(fn)
            if isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name)
            and n.value.id == arg and isinstance(n.slice, ast.Constant)}
    return out


def test_every_traced_function_exists(tree):
    pairs = traced(tree)
    assert ("tensor", "matmul") in pairs and len(pairs) > 20
    for mod_name, attr in pairs:
        fn = getattr(importlib.import_module(f"catbert.{mod_name}"), attr, None)
        assert callable(fn), f"catbert.{mod_name}.{attr}"


def test_traced_functions_take_the_arguments_observers_bind(tree):
    found = observed(tree)
    for name, args in OBSERVED.items():
        assert args <= found.get(name, set()), (name, found.get(name))
    for name in set(found) | set(OBSERVED):
        mod_name, attr = name.split(".")
        params = inspect.signature(getattr(importlib.import_module(f"catbert.{mod_name}"), attr)).parameters
        missing = (found.get(name, set()) | OBSERVED.get(name, set())) - set(params)
        assert not missing, f"catbert.{name} no longer takes {sorted(missing)}"
