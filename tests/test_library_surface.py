"""The library holds what a request runs: every public top-level function or
class of ``src/fbmvar``, and every public method and annotated field of a
public class, is used by library code outside its own definition.

A name only tests call belongs beside them, in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fbmvar"

# public names that no library code calls, each kept for a caller outside it
ALLOWED = {
    # reads the FBM1 files that `sample --format bin` writes; the benchmark's
    # output check reads them back with it
    "read_binary": "the reader of the FBM1 path format",
    # acceptance criterion 9 runs the audit through the replicate engine
    "variance_order_audit": "criterion 9's audit through the engine",
    # the benchmark's layer tracer hooks these three by name
    "young_integral": "hooked by the benchmark's tracer",
    "ks_2samp": "hooked by the benchmark's tracer",
    "hermite_variation_rows": "hooked by the benchmark's tracer and its reference recompute",
}


def _modules(package: Path) -> list[ast.Module]:
    return [ast.parse(source.read_text(encoding="utf-8"), str(source))
            for source in sorted(package.glob("*.py"))]


def _used_names(node: ast.AST) -> set[str]:
    """Names and attribute names that `node`'s code reads or writes."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def _member_name(node: ast.stmt) -> str | None:
    """The name a class-body statement defines as a method or an annotated
    field, or None."""
    if isinstance(node, ast.FunctionDef):
        return node.name
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return node.target.id
    return None


def unreferenced_public_names(package: Path = PACKAGE) -> set[str]:
    """Public top-level functions and classes that no code of the package
    references outside their own definition; docstrings and comments are
    not code, and an import alone is not a use."""
    defined = {}  # name -> its definition node
    used = set()
    for tree in _modules(package):
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[node.name] = node
                used |= _used_names(node) - {node.name}
            else:
                used |= _used_names(node)
    return set(defined) - used


def unreferenced_public_members(package: Path = PACKAGE) -> set[str]:
    """``Class.member`` for each public method or annotated field of a public
    top-level class that no code of the package references outside the
    member's own definition.  A name or an attribute anywhere is a use; a
    string, such as a key read with getattr, is not."""
    members = {}  # "Class.member" -> member name
    used = set()
    for tree in _modules(package):
        for node in tree.body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                used |= _used_names(node)
                continue
            for stmt in node.body:
                name = _member_name(stmt)
                if name is None or name.startswith("_"):
                    used |= _used_names(stmt)
                    continue
                used |= _used_names(stmt) - {name}
                members[f"{node.name}.{name}"] = name
    return {qualified for qualified, name in members.items() if name not in used}


def test_every_public_name_has_a_caller_in_the_library():
    assert unreferenced_public_names() == set(ALLOWED)


def test_every_public_member_has_a_caller_in_the_library():
    assert unreferenced_public_members() == set()
