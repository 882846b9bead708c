"""The package's import structure: every import at module level, and no
cycle among the modules of the package.  Imports inside functions count
as edges too, so a cycle cannot hide behind a lazy import."""

import ast
import importlib
import importlib.util
import re
from collections import Counter
from pathlib import Path

import lspgen

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lspgen"
MODULES = {p.stem: p for p in PACKAGE.glob("*.py")}


def _trees():
    return {name: ast.parse(path.read_text(encoding="utf-8"))
            for name, path in MODULES.items()}


def _is_type_checking(node) -> bool:
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING")


def _targets(node) -> set[str]:
    """Modules of the package that an import statement loads."""
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names
                if a.name.startswith("lspgen.")}
    if node.level == 0:
        mod = node.module or ""
        if mod == "lspgen":
            return {a.name if a.name in MODULES else "__init__"
                    for a in node.names}
        return {mod.split(".")[1]} if mod.startswith("lspgen.") else set()
    if node.module:
        return {node.module.split(".")[0]}
    return {a.name if a.name in MODULES else "__init__" for a in node.names}


def _imports(node) -> set[str]:
    """Package modules that the code under node imports, wherever it
    does, except in the body of ``if TYPE_CHECKING:``."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return _targets(node)
    children = (node.orelse if _is_type_checking(node)
                else ast.iter_child_nodes(node))
    return set().union(*(_imports(child) for child in children))


def test_no_import_inside_a_function():
    found = set()     # a nested function's imports are also its parent's
    for name, tree in _trees().items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {f"{name}.py:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert not sorted(found)


def test_module_imports_are_acyclic():
    graph = {name: _imports(tree) for name, tree in _trees().items()}
    state: dict[str, int] = {}     # 1 on the current path, 2 finished

    def visit(name, path):
        state[name] = 1
        for dep in sorted(graph.get(name, ())):
            assert state.get(dep) != 1, " -> ".join(path + [dep])
            if dep not in state:
                visit(dep, path + [dep])
        state[name] = 2

    for name in sorted(graph):
        if name not in state:
            visit(name, [name])


def test_reference_shares_only_maps():
    # an oracle must not share the code it checks: the chamber-system
    # reference may load nothing of the package but lspgen.maps
    path = Path(__file__).with_name("chamber_reference.py")
    loaded = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            loaded |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            loaded |= ({node.module} if node.module != "lspgen" else
                       {f"lspgen.{a.name}" for a in node.names})
    package = {m for m in loaded if m.split(".")[0] == "lspgen"}
    assert package == {"lspgen.maps"}


def _names(tree) -> list[str]:
    """Every identifier that code under tree names: variables,
    attributes, imported names and string constants (the tracer looks
    functions up by name)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.alias):
            out.append(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append(node.value)
    return out


def test_every_definition_is_used_outside_tests():
    # code that only the tests call belongs in the tests; a re-export in
    # __init__.py is no use of its own
    roots = [PACKAGE, PACKAGE.parents[1] / "perfbench"]
    trees = [ast.parse(p.read_text(encoding="utf-8"))
             for root in roots for p in sorted(root.rglob("*.py"))
             if p != PACKAGE / "__init__.py"]
    named = Counter(n for tree in trees for n in _names(tree))
    unused = set()
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("__")
                    and named[node.name] == _names(node).count(node.name)):
                unused.add(f"{name}.{node.name}")
    assert not sorted(unused)


def test_traced_sites_resolve():
    # `perfbench/run.py --trace 1` wraps each (module, attribute) of
    # SITES in perfbench/spans.py; a renamed function would break it
    path = PACKAGE.parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"lspgen.{mod}.{attr}" for mod, attr, *_ in spans.SITES
               if not callable(getattr(importlib.import_module(
                   f"lspgen.{mod}"), attr, None))]
    assert spans.SITES and not missing


def test_readme_lists_the_public_api():
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    listed = readme.split("The public API is `lspgen.__all__`:")[1]
    assert re.findall(r"`(\w+)`", listed.split("\n\n")[0]) == lspgen.__all__


def test_readme_lists_every_module():
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Library overview")[1].split("\n\n")[1]
    listed = re.findall(r"^\| `lspgen\.(\w+)` \|", table, re.M)
    assert sorted(listed) == sorted(MODULES.keys() - {"__init__"})


SRC_LINE_BUDGET = 3496


def test_src_line_budget():
    # lines in src/lspgen should go down over the round, not up
    lines = sum(p.read_text(encoding="utf-8").count("\n")
                for p in MODULES.values())
    assert lines <= SRC_LINE_BUDGET, (
        f"src/lspgen has {lines} lines, over its budget of "
        f"{SRC_LINE_BUDGET}: a change that needs more lines must raise "
        "SRC_LINE_BUDGET and explain why in CHANGES.md")
