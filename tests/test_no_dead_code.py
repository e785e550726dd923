"""Every module-level function and class in ``src/cimlab``, and every public
method of those classes, is used by the package.

A definition counts as used when some other part of ``src/cimlab`` names
it: a call, an attribute access, a decorator, or an import. A re-export
in ``__init__`` does not count, so public API that no package code calls
is listed in ``ALLOWED`` with the reason it stays. Names inside the
definition's own body do not count, so a function that only calls itself
is still dead. A method is used only through an attribute access. The
check matches by name alone: a local that shares a function's name hides
the function, and an attribute of any object that shares a method's name
hides the method.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cimlab"

# public API, test oracles and checkers kept on purpose, though no package code calls them
ALLOWED = {
    "brute_force_skew_morphisms": "oracle for the skew-morphism enumeration in tests/test_skew.py",
    "preserves_relation": "the ternary-relation automorphism check an independent verdict checker builds on",
    "revalidate_map_report": "re-checks a report's witnesses; the tests and the benchmark gate call it",
    "group_to_json": "writer of the @file.json group format that the CLI reads",
    "is_cyclic_permgroup": "acceptance criterion 9 checks that vertex stabilizers are cyclic with it",
    "cayley_class_key": "per-map class key the orbit walk is tested against; `perfbench/spans.py` wraps it",
    "bruteforce_map_isomorphism": "oracle the component path is tested against; `perfbench/spans.py` wraps it",
    "CayleyMap.mirror": "the mirror oracle the tests compare the orbit walk's reversal against",
    "GroupIsomorphism.compose": "tests check that Aut(H) is closed under it and that map images compose",
    "Subgroup.is_normal": "tests check with it that every subgroup of a class-M group is normal",
    "fixed_points": "acceptance criterion 9's stabilizer check finds the fixed points with it",
    "is_block": "acceptance criterion 9's block check tests each candidate block with it",
    "point_stabilizer": "acceptance criteria 8 and 9 take the vertex stabilizers they check with it",
    "ternary_relation": "the relation `preserves_relation` checks, basis of an independent verdict checker",
    "apply_group_automorphism": "the tests carry maps along Aut(H) with it",
}


def _names(node: ast.AST) -> Counter:
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name] += 1
    return out


def _attributes(node: ast.AST) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def unreferenced_definitions() -> list[str]:
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    used: Counter = Counter()
    attributes: Counter = Counter()
    for tree in trees.values():
        used += _names(tree)
        attributes += _attributes(tree)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if used[node.name] - _names(node)[node.name] <= 0:
                dead.append(f"{module}:{node.name}")
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if (isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
                            and attributes[method.name] - _attributes(method)[method.name] <= 0):
                        dead.append(f"{module}:{node.name}.{method.name}")
    return dead


def test_every_definition_is_referenced():
    dead = [d for d in unreferenced_definitions() if d.split(":")[1] not in ALLOWED]
    assert dead == []


def test_every_allowed_name_is_still_unreferenced():
    dead = {d.split(":")[1] for d in unreferenced_definitions()}
    assert set(ALLOWED) <= dead
