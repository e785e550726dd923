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

Every name a module's top-level import binds is read in that module;
``__init__`` re-exports and ``from __future__ import annotations`` are
left out.

Every parameter default of those functions and methods is also overridden
by some package call: a call of that name that passes the parameter by
keyword, reaches it positionally, or unpacks ``*args`` or ``**kwargs``.
A default no call overrides is a knob nobody turns; the ones kept on
purpose are listed in ``ALLOWED_DEFAULTS``. Calls inside the definition's
own body do not count, and the match is by name alone, as above.
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

# parameter defaults kept on purpose, though no package call overrides them
ALLOWED_DEFAULTS = {
    "verify_cim_group.strategy": "the CLI passes it through a variable naming either verify function",
    "verify_cim_group.workers": "the CLI passes it through a variable naming either verify function",
    "run.argv": "the console entry point reads sys.argv through it; the tests pass their own",
}


def _package_trees() -> dict:
    return {path.name: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


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
    trees = _package_trees()
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


def unread_imports(trees: dict) -> list[str]:
    """``module:name`` for each name a top-level import in ``trees`` binds
    that its module never reads."""
    unread = []
    for module, tree in trees.items():
        read = {sub.id for sub in ast.walk(tree)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                unread += [f"{module}:{bound}" for alias in node.names
                           if (bound := alias.asname or alias.name.split(".")[0]) not in read]
    return unread


def test_every_import_is_read():
    assert unread_imports(_package_trees()) == []


def test_the_import_guard_sees_each_kind_of_import():
    source = ("from __future__ import annotations\nimport a.b\nimport c as d\n"
              "from e import f, g as h\nfrom .i import j\nx = a.b(j)\nf = 1\n")
    assert unread_imports({"x.py": ast.parse(source)}) == ["x.py:d", "x.py:f", "x.py:h"]


def _defaulted_parameters(node: ast.FunctionDef, is_method: bool):
    """(position as a call passes it, or None for keyword-only; name) of
    each parameter with a default; a method's self takes no position."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i in range(first, len(positional)):
        yield i - is_method, positional[i].arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _overrides(call: ast.Call, position, name: str) -> bool:
    return (any(k.arg in (name, None) for k in call.keywords)
            or (position is not None and (len(call.args) > position or any(
                isinstance(a, ast.Starred) for a in call.args))))


def unturned_defaults(trees: dict) -> list[str]:
    """``module:function.parameter`` for each top-level function's or
    method's parameter default that no call elsewhere in ``trees`` overrides."""
    calls: dict = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    definitions = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                definitions.append((module, node, False))
            elif isinstance(node, ast.ClassDef):
                definitions += [(module, method, True) for method in node.body
                                if isinstance(method, ast.FunctionDef)]
    unturned = []
    for module, node, is_method in definitions:
        own = {id(sub) for sub in ast.walk(node)}
        callers = [call for call in calls.get(node.name, ()) if id(call) not in own]
        for position, name in _defaulted_parameters(node, is_method):
            if not any(_overrides(call, position, name) for call in callers):
                unturned.append(f"{module}:{node.name}.{name}")
    return unturned


def test_every_parameter_default_is_overridden():
    unturned = [d for d in unturned_defaults(_package_trees())
                if d.split(":")[1] not in ALLOWED_DEFAULTS]
    assert unturned == []


def test_every_allowed_default_is_still_unturned():
    unturned = {d.split(":")[1] for d in unturned_defaults(_package_trees())}
    assert set(ALLOWED_DEFAULTS) <= unturned


def test_the_default_guard_sees_each_way_to_override():
    header = "def f(a, b=1, *, c=2):\n    return f(a)\nclass K:\n    def m(self, d=3): pass\n"
    cases = {
        "": ["f.b", "f.c", "m.d"],
        "f(0, 1)\n": ["f.c", "m.d"],
        "f(0, b=1, c=2)\nK().m(4)\n": [],
        "f(*xs)\nk.m(**kw)\n": ["f.c"],
        "g(0, 1, c=2)\n": ["f.b", "f.c", "m.d"],
    }
    for body, expected in cases.items():
        found = unturned_defaults({"x.py": ast.parse(header + body)})
        assert found == [f"x.py:{name}" for name in expected], body
