"""What the benchmark under bench/ reads from pairloc by name.

bench/tracing.py wraps pairloc functions by module and name, and
bench/checks.py, bench/baselines.py and bench/worker.py reach pairloc as
`pl.<name>` or through `getattr(pl, <name from a literal tuple>)`.  A rename
in the package would break the benchmark only when it runs; these tests
break instead.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pairloc

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _is_pl(node):
    """`pl` or `self.pl`: how the bench scripts name the pairloc package."""
    return ((isinstance(node, ast.Name) and node.id == "pl")
            or (isinstance(node, ast.Attribute) and node.attr == "pl"
                and isinstance(node.value, ast.Name) and node.value.id == "self"))


def _pl_paths(tree):
    """Each dotted path read from the package, such as ("ideals", "clear_caches")."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not _is_pl(node):
            path, base = [], node
            while isinstance(base, ast.Attribute) and not _is_pl(base):
                path.append(base.attr)
                base = base.value
            if _is_pl(base):
                yield tuple(reversed(path))
        elif isinstance(node, ast.For) and isinstance(node.target, ast.Name) \
                and isinstance(node.iter, ast.Tuple):
            looked_up = any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                            and call.func.id == "getattr" and _is_pl(call.args[0])
                            and isinstance(call.args[1], ast.Name)
                            and call.args[1].id == node.target.id
                            for stmt in node.body for call in ast.walk(stmt))
            if looked_up:
                yield from ((elt.value,) for elt in node.iter.elts)


def _namespaces():
    """Every pairloc module and class namespace, which the tracer rebinds."""
    for name, module in sys.modules.items():
        if name == "pairloc" or name.startswith("pairloc."):
            yield name, vars(module)
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__ == name:
                    yield f"{name}.{value.__name__}", vars(value)


def test_tracer_installs_and_removes():
    tracing = _load_tracing()
    before = {name: dict(ns) for name, ns in _namespaces()}
    tracer = tracing.Tracer(pairloc)
    tracer.install()
    try:
        wrapped = {f"{owner.__name__}.{attr}" for owner, attr, _ in tracer._saved}
        for module, name in tracing.SPANNED:
            assert f"pairloc.{module}.{name}" in wrapped, (module, name)
    finally:
        tracer.remove()
    for name, ns in _namespaces():
        assert all(ns[attr] is value for attr, value in before[name].items()), name


def test_bench_scripts_read_names_that_exist():
    missing, read = [], set()
    for script in ("checks.py", "baselines.py", "worker.py"):
        tree = ast.parse((BENCH / script).read_text(encoding="utf-8"))
        paths = set(_pl_paths(tree))
        assert paths, script
        read |= paths
        for path in sorted(paths):
            target = pairloc
            for attr in path:
                target = getattr(target, attr, None)
            if target is None:
                missing.append(f"{script}: pl.{'.'.join(path)}")
    assert missing == []
    # baselines.py reaches this oracle only through getattr over a literal tuple
    assert ("gamma_colimit_oracle",) in read
