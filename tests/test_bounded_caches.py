"""Every cache in ``src/cimlab`` is bounded by a named module-level constant.

A mention of ``functools.lru_cache`` (through ``functools`` or imported by
name) must be the call ``lru_cache(maxsize=NAME)``, with no other argument,
where NAME ends in ``_CACHE_SIZE`` and is bound to an int at the top level
of the same module. ``functools.cache`` is unbounded and refused outright.
``functools.cached_property`` keeps one value per object and is not a cache
in this sense.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cimlab"
CACHES = {"lru_cache", "cache"}


def _size_constants(tree: ast.Module) -> set:
    """The top-level names ending in ``_CACHE_SIZE`` bound to an int."""
    return {target.id for node in tree.body if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant) and type(node.value.value) is int
            for target in node.targets
            if isinstance(target, ast.Name) and target.id.endswith("_CACHE_SIZE")}


def _cache_mentions(tree: ast.Module):
    """Each node naming functools' ``lru_cache`` or ``cache``, with the
    function it names."""
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "functools"}
    imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "functools"
                for alias in node.names if alias.name in CACHES}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in CACHES
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            yield node, node.attr
        elif isinstance(node, ast.Name) and node.id in imported:
            yield node, imported[node.id]


def unbounded_caches(source: str, name: str = "<source>") -> list:
    """``name:line`` and the reason, for each cache not bounded by a named constant."""
    tree = ast.parse(source)
    constants = _size_constants(tree)
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    out = []
    for node, function in _cache_mentions(tree):
        call = calls.get(id(node))
        if function == "cache":
            out.append(f"{name}:{node.lineno}: functools.cache is unbounded")
        elif call is None or call.args or [k.arg for k in call.keywords] != ["maxsize"]:
            out.append(f"{name}:{node.lineno}: lru_cache without maxsize=NAME alone")
        elif not (isinstance(size := call.keywords[0].value, ast.Name) and size.id in constants):
            out.append(f"{name}:{node.lineno}: maxsize is not a module-level *_CACHE_SIZE int")
    return out


def cache_counts() -> dict:
    return {path.name: sum(1 for _ in _cache_mentions(ast.parse(path.read_text())))
            for path in sorted(SRC.glob("*.py"))}


def test_every_cache_is_bounded_by_a_named_constant():
    problems = [problem for path in sorted(SRC.glob("*.py"))
                for problem in unbounded_caches(path.read_text(), path.name)]
    assert problems == []
    # the guard sees the package's caches, so it is not passing vacuously
    counts = cache_counts()
    assert sum(counts.values()) >= 10 and counts["mapiso.py"] >= 2 and counts["perms.py"] >= 3


def test_the_guard_refuses_unbounded_and_unnamed_caches():
    header = "import functools\nfrom functools import lru_cache as lc, cache\nX_CACHE_SIZE = 8\n"
    cases = {
        "@functools.lru_cache(maxsize=X_CACHE_SIZE)\ndef f(): pass\n": [],
        "@lc(maxsize=X_CACHE_SIZE)\ndef f(): pass\n": [],
        "@functools.lru_cache\ndef f(): pass\n": ["without maxsize"],
        "@functools.lru_cache()\ndef f(): pass\n": ["without maxsize"],
        "@functools.lru_cache(maxsize=None)\ndef f(): pass\n": ["not a module-level"],
        "@functools.lru_cache(maxsize=8)\ndef f(): pass\n": ["not a module-level"],
        "@functools.lru_cache(X_CACHE_SIZE)\ndef f(): pass\n": ["without maxsize"],
        "@functools.lru_cache(maxsize=X_CACHE_SIZE, typed=True)\ndef f(): pass\n":
            ["without maxsize"],
        "Y_SIZE = 8\n@lc(maxsize=Y_SIZE)\ndef f(): pass\n": ["not a module-level"],
        "def g():\n    Z_CACHE_SIZE = 8\n    return lc(maxsize=Z_CACHE_SIZE)\n":
            ["not a module-level"],
        "@functools.cache\ndef f(): pass\n": ["unbounded"],
        "f = cache(len)\n": ["unbounded"],
        "f = functools.lru_cache(maxsize=X_CACHE_SIZE)(len)\n": [],
        "@functools.cached_property\ndef f(self): pass\n": [],
    }
    for body, expected in cases.items():
        found = unbounded_caches(header + body)
        assert len(found) == len(expected), body
        assert all(reason in problem for reason, problem in zip(expected, found)), body
