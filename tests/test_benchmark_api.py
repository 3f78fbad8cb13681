"""The functions the benchmark calls and wraps still exist and still take
the arguments it passes and its observers read.

``perfbench/tracing.py`` replaces each ``(module, function)`` in its
``TRACED`` list with a timing wrapper, and after each call binds the
arguments by name for its observers (``a["mask"]`` and so on). A renamed
function or parameter would therefore crash only traced runs. The
workloads, the input generator and perfbench's self-tests pass keywords to
the library (``TrainConfig(freeze=...)``, ``score_records(max_len=...)``),
and a keyword the callee no longer takes would turn a benchmark run into a
failed one. Everything is read from the source with ``ast``: perfbench is
neither imported nor changed here.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
CALLERS = ("workloads.py", "gen.py", "test_checks.py")
# the callees whose keywords the benchmark's runs depend on
CALLEES = {"TrainConfig", "train", "ModelConfig", "init_random", "surgery_from_donor",
           "score_records", "score_dataset", "encode_records", "explain_record", "AdamState",
           "forward_probs"}

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


def keyword_calls(path: pathlib.Path):
    """``((module, name), keywords)`` for each call with keywords in ``path``
    of a name imported from catbert: ``mod.fn(...)`` after ``from catbert
    import mod``, ``fn(...)`` after ``from catbert.mod import fn``, and
    ``self._op(mod.fn, ..., **kw)``, which calls ``fn`` with ``kw``. A
    ``**NAME`` of a module-level ``NAME = dict(k=...)`` passes its keys."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, names = set(), {}
    splats = {t.id: {k.arg for k in node.value.keywords}
              for node in tree.body if isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Call)
              and getattr(node.value.func, "id", None) == "dict"
              for t in node.targets if isinstance(t, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "catbert":
            modules |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("catbert."):
            names |= {a.asname or a.name: (node.module[len("catbert."):], a.name)
                      for a in node.names}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.keywords:
            continue
        fn = node.func
        if isinstance(fn, ast.Attribute) and fn.attr == "_op" and node.args:
            fn = node.args[0]
        if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name) \
                and fn.value.id in modules:
            callee = (fn.value.id, fn.attr)
        elif isinstance(fn, ast.Name) and fn.id in names:
            callee = names[fn.id]
        else:
            continue
        yield callee, set().union(*(
            {k.arg} if k.arg else splats.get(getattr(k.value, "id", None), set())
            for k in node.keywords))


def test_benchmark_passes_only_keywords_its_callees_take():
    seen = set()
    for caller in CALLERS:
        for (mod_name, attr), keywords in keyword_calls(PERFBENCH / caller):
            params = inspect.signature(
                getattr(importlib.import_module(f"catbert.{mod_name}"), attr)).parameters
            missing = keywords - set(params)
            assert not missing, (f"perfbench/{caller} passes {sorted(missing)} "
                                 f"to catbert.{mod_name}.{attr}")
            seen.add(attr)
    assert CALLEES <= seen, sorted(CALLEES - seen)
