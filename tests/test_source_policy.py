import ast
import re
from importlib.util import find_spec
from pathlib import Path

# located without importing pairloc, so an import cycle cannot hide a finding
PACKAGE = Path(find_spec("pairloc").origin).parent
ROOT = Path(__file__).resolve().parents[1]

# module -> the names it may import from pairloc.oracles (None: any name);
# __init__ re-exports the oracles, suites compares against them, and the CLI
# serves `betti --route koszul`
ORACLE_IMPORTERS = {
    "__init__.py": None,
    "suites.py": None,
    "cli.py": {"koszul_tor"},
}


def _sources():
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        yield path.relative_to(PACKAGE).as_posix(), tree


def _oracle_imports(tree):
    """(line, imported name) for each import of pairloc.oracles or of a name
    from it; the name is "oracles" when the module itself is imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, "oracles") for alias in node.names
                        if alias.name == "pairloc.oracles")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # the package has no subpackages
                module = "pairloc" + ("." + module if module else "")
            if module == "pairloc.oracles":
                yield from ((node.lineno, alias.name) for alias in node.names)
            elif module == "pairloc":
                yield from ((node.lineno, "oracles") for alias in node.names
                            if alias.name == "oracles")


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so a cross-check must raise InternalError instead
    found = []
    for name, tree in _sources():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_oracles_stay_off_the_production_path():
    found = []
    for module, tree in _sources():
        allowed = ORACLE_IMPORTERS.get(module, set())
        found += [f"{module}:{line} imports {name}" for line, name in _oracle_imports(tree)
                  if allowed is not None and name not in allowed]
    assert found == []


def _module_caches():
    """(module name, variable) for each module-level `_*_cache` in the package."""
    for name, tree in _sources():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            yield from ((name[:-3].replace("/", "."), t.id) for t in targets
                        if isinstance(t, ast.Name) and t.id.startswith("_")
                        and t.id.endswith("_cache"))


def test_clear_caches_empties_every_module_cache():
    # the benchmark starts each pass cold by calling ideals.clear_caches alone
    from importlib import import_module

    from pairloc.betti import hochster_betti
    from pairloc.ideals import Ideal, MonomialIdeal, clear_caches, radical_member
    from pairloc.ring import RingSpec, parse_polynomial

    r = RingSpec(0, ("x", "y", "z"))
    # two generators and no linear pivot, so the radical test reaches its cache
    A = Ideal(r, (parse_polynomial(r, "x^2 - y*z"), parse_polynomial(r, "y^2 - x*z")))
    A.groebner()
    radical_member(parse_polynomial(r, "z"), A)
    # K^b at b = (1, 1, 1, 1) is a hollow square, which is ranked
    hochster_betti(MonomialIdeal.from_exps(4, [(1, 1, 0, 0), (0, 1, 1, 0),
                                               (0, 0, 1, 1), (1, 0, 0, 1)]))
    caches = {f"{module}.{var}": getattr(import_module(f"pairloc.{module}"), var)
              for module, var in _module_caches()}
    assert {"ideals._gb_cache", "ideals._radical_cache", "betti._homology_cache"} <= set(caches)
    assert [name for name, cache in caches.items() if not cache] == []
    clear_caches()
    assert [name for name, cache in caches.items() if cache] == []


def _references():
    """name -> the (file, line) pairs where code in the package, in scripts/
    and in bench/ refers to it: a name, an attribute, an imported name, and
    in bench/ a string literal, which bench looks up with getattr.  Words in
    comments and docstrings are no reference.  The package's __init__ only
    re-exports, so it is left out."""
    references = {}
    files = [*PACKAGE.rglob("*.py"), *(ROOT / "scripts").rglob("*.py"),
             *(ROOT / "bench").rglob("*.py")]
    for path in files:
        if path == PACKAGE / "__init__.py":
            continue
        bench = ROOT / "bench" in path.parents
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            elif bench and isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            references.setdefault(name, set()).add((path, node.lineno))
    return references


def _unused(references, module, nodes):
    """The public functions and classes among nodes that no code outside
    their own definition refers to."""
    for node in nodes:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        start = min([d.lineno for d in node.decorator_list] + [node.lineno])
        own = {(PACKAGE / module, line) for line in range(start, node.end_lineno + 1)}
        if not references.get(node.name, set()) - own:
            yield node


def test_every_public_method_has_a_use_outside_the_tests():
    # a method that only tests call is test-only API: the tests should ask
    # the question the package answers, or the method should go
    references = _references()
    unused = []
    for module, tree in _sources():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            unused += [f"{module}:{node.lineno} {cls.name}.{node.name}"
                       for node in _unused(references, module, cls.body)
                       if isinstance(node, ast.FunctionDef)]
    assert unused == []


def test_every_public_function_and_class_has_a_use_outside_the_tests():
    # likewise for module-level definitions; a re-export in __init__ is no use
    references = _references()
    unused = []
    for module, tree in _sources():
        unused += [f"{module}:{node.lineno} {node.name}"
                   for node in _unused(references, module, tree.body)]
    assert unused == []


# The Groebner kernel's record (lead, a, tail, q) and the routines that read
# it; only the modules that define them may use them.
KERNEL_NAMES = {"reducer_entry", "_reduce", "_add_multiple", "_live", "_s_terms", "reducer",
                "_entry", "_rekeyed"}
KERNEL_MODULES = {"ring.py", "groebner.py"}


def _kernel_uses(tree):
    """(line, name) for each import of a kernel name and each attribute
    access to one, such as a call of `.reducer()` or of `groebner._reduce`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, alias.name) for alias in node.names
                        if alias.name in KERNEL_NAMES)
        elif isinstance(node, ast.Attribute) and node.attr in KERNEL_NAMES:
            yield node.lineno, node.attr


def test_the_reducer_record_stays_inside_ring_and_groebner():
    uses = {module: list(_kernel_uses(tree)) for module, tree in _sources()}
    assert uses["groebner.py"]  # the check sees the kernel's own uses
    found = [f"{module}:{line} uses {name}" for module, found in uses.items()
             if module not in KERNEL_MODULES for line, name in found]
    assert found == []
