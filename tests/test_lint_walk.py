"""The fact extractor's one walk against whole-tree oracles.

The extractor (:mod:`repro.lint.summaries`) makes the only whole-module
walk of a parse.  It records DET004's nodes scope by scope and replays
the rule's two passes at each scope's end; the import map and the
store-key producers come from a scan of statement lists only
(:func:`repro.lint.callgraph.statements`).  This module keeps the
straightforward forms as oracles: DET004 as two passes over a stack walk
of each scope (:func:`_two_pass_set_iteration`), the import map over
``ast.walk`` (:func:`_walk_import_map`) and the statements in
``ast.walk`` order.  It asserts identical raw DET004 sites, identical
import maps in insertion order and identical statement orders on every
golden source, every file of the live tree and a set of corner-case
snippets, whose DET004 lines are also pinned.
"""

import ast

import pytest

from repro.lint.callgraph import _resolve_relative, statements
from repro.lint.rules.determinism import (
    _escape,
    _note_assignment,
    _ScopeSets,
    _SET_OPS,
    annotated_set_params,
)
from repro.lint.runner import collect_files
from repro.lint.summaries import extract_module_facts
from test_lint import GOLDEN_SOURCES, REPO

SRC = "src/repro/fixture.py"


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
def _walk_import_map(tree, module, is_package):
    """``callgraph.build_import_map`` over every node ``ast.walk``
    yields."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    out[top] = top
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_relative(module, is_package, node.level,
                                     node.module)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                out[local] = f"{base}.{alias.name}" if base else alias.name
    return out


def _walk_scope(body, nested):
    """Walk statements/expressions without entering nested defs."""
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested.append(node)
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _two_pass_set_iteration(ctx):
    """DET004's raw ``(line, col, message)`` sites: per scope (the module
    body, then each def body), an assignment pass and a check pass, each
    over a stack walk of the scope."""
    raw = []

    def scope(body, set_params):
        sets = _ScopeSets()
        for name in set_params:
            sets.track(name)
        nested = []
        # pass 1: collect assignments
        for stmt in _walk_scope(body, nested):
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    _note_assignment(target, stmt.value, sets, ctx)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                _note_assignment(stmt.target, stmt.value, sets, ctx)
            elif isinstance(stmt, ast.AugAssign):
                if isinstance(stmt.target, ast.Name) and not isinstance(
                        stmt.op, _SET_OPS):
                    sets.taint(stmt.target.id)
            elif isinstance(stmt, ast.For):
                for n in ast.walk(stmt.target):
                    if isinstance(n, ast.Name):
                        sets.taint(n.id)
        # pass 2: find escaping iterations
        for stmt in _walk_scope(body, []):
            site = _escape(stmt, sets, ctx)
            if site is not None:
                node, message = site
                raw.append((node.lineno, node.col_offset, message))
        for fn in nested:
            scope(fn.body, annotated_set_params(fn))

    scope(ctx.tree.body, [])
    return raw


def _compare(path, source):
    """The extractor's DET004 sites (sorted) and import map (in order),
    each asserted equal to its oracle's, and the statement scan's order
    asserted equal to ``ast.walk``'s."""
    ctx = extract_module_facts(path, source).context
    scanned = [n for n in statements(ctx.tree) if isinstance(n, ast.stmt)]
    assert scanned == [n for n in ast.walk(ctx.tree)
                       if isinstance(n, ast.stmt)], path
    walked = sorted((line, col, message)
                    for line, col, rule, message in ctx.sites
                    if rule == "DET004")
    assert walked == sorted(_two_pass_set_iteration(ctx)), path
    imports = list(ctx.imports.items())
    oracle = _walk_import_map(ctx.tree, ctx.module,
                              path.endswith("__init__.py"))
    assert imports == list(oracle.items()), path
    return walked, ctx.imports


# ----------------------------------------------------------------------
# corner cases
# ----------------------------------------------------------------------
#: ``(source, DET004 lines)``: each snippet's findings are pinned as well
#: as compared with the oracle
SET_SNIPPETS = {
    "nested_and_async_defs": (
        "s = {1, 2}\n"
        "def outer():\n"
        "    t = {3}\n"
        "    def inner():\n"
        "        return [v for v in t]\n"
        "    return list(t)\n"
        "async def agen(u: set):\n"
        "    out = []\n"
        "    for v in u:\n"
        "        out.append(v)\n"
        "    return [w for w in s]\n",
        [6, 9],
    ),
    "lambdas_and_comprehensions": (
        "s = {1, 2}\n"
        "f = lambda: [v for v in s]\n"
        "g = [[w for w in s] for _ in range(2)]\n"
        "h = sorted(x for x in s)\n"
        "j = ','.join(x for x in s)\n"
        "k = {x: [y for y in s] for x in range(2)}\n",
        [2, 3, 5, 6],
    ),
    "class_decorators_and_bases_inside_a_def": (
        "def build(register, Base):\n"
        "    s = {1, 2}\n"
        "    @register(list(s))\n"
        "    class K(Base, pick(list(s)), metaclass=pick(tuple(s))):\n"
        "        order = [v for v in s]\n"
        "        def method(self):\n"
        "            return list(s)\n"
        "    return K\n",
        [3, 4, 4, 5],
    ),
    "set_comprehensions_in_def_headers": (
        "@dec([v for v in {1, 2}])\n"
        "def f(a=[v for v in {w for w in range(3)}], *, b=list({3})):\n"
        "    return a\n"
        "def outer():\n"
        "    @dec(list({v for v in range(2)}))\n"
        "    async def g(a=(*{1, 2},)) -> [v for v in {1}]:\n"
        "        return [v for v in {4, 5}]\n"
        "    return g\n",
        [7],
    ),
    # the assignment pass replays a scope's statements in reverse, so
    # ``t = s`` makes ``t`` a set only when it comes before ``s = set()``
    "alias_after_the_set": (
        "s = set()\n"
        "t = s\n"
        "y = list(t)\n"
        "def f():\n"
        "    s = set()\n"
        "    t = s\n"
        "    return list(t)\n",
        [],
    ),
    "alias_before_the_set": (
        "t = s\n"
        "s = set()\n"
        "y = list(t)\n"
        "def f():\n"
        "    t = s\n"
        "    s = set()\n"
        "    return list(t)\n",
        [3, 7],
    ),
    # ... and a loop before its body, so the target is tainted before
    # ``u = t`` reads it
    "alias_of_a_loop_target": (
        "for t in range(2):\n"
        "    u = t\n"
        "t = {1}\n"
        "y = list(u)\n",
        [],
    ),
}

#: sources whose import maps exercise every statement-list field
IMPORT_SNIPPETS = {
    "try_except_else_finally": (
        "import os\n"
        "try:\n"
        "    import json\n"
        "except ImportError:\n"
        "    import simplejson as json\n"
        "else:\n"
        "    from collections import OrderedDict\n"
        "finally:\n"
        "    import sys\n"
    ),
    "match_cases": (
        "import os\n"
        "match os.name:\n"
        "    case 'nt':\n"
        "        import ntpath as pathmod\n"
        "    case _:\n"
        "        import posixpath as pathmod\n"
    ),
    "functions_classes_and_loops": (
        "def f():\n"
        "    from . import sibling\n"
        "    import a.b.c\n"
        "    if True:\n"
        "        from .. import parent as sibling\n"
        "class C:\n"
        "    import re\n"
        "while False:\n"
        "    import x\n"
        "else:\n"
        "    import y\n"
        "with open('f') as fh:\n"
        "    import z\n"
        "for i in range(1):\n"
        "    from q import *\n"
        "else:\n"
        "    from q import r as x\n"
        "try:\n"
        "    pass\n"
        "except* ValueError:\n"
        "    import x\n"
    ),
}


class TestSetIterationOracle:
    @pytest.mark.parametrize("name", sorted(SET_SNIPPETS))
    def test_snippets(self, name):
        source, lines = SET_SNIPPETS[name]
        walked, _ = _compare(SRC, source)
        assert [line for line, _, _ in walked] == lines


class TestImportMapOracle:
    @pytest.mark.parametrize("name", sorted(IMPORT_SNIPPETS))
    def test_snippets(self, name):
        _compare("src/repro/pkg/mod.py", IMPORT_SNIPPETS[name])

    def test_name_bound_twice_keeps_first_position_and_last_binding(self):
        source = "".join(IMPORT_SNIPPETS[name] for name in (
            "try_except_else_finally", "match_cases",
            "functions_classes_and_loops"))
        _, imports = _compare("src/repro/pkg/mod.py", source)
        # breadth-first: a handler's, a case's or an if's body comes a
        # level below the statements beside its compound statement
        assert list(imports.items()) == [
            ("os", "os"), ("json", "simplejson"),
            ("OrderedDict", "collections.OrderedDict"), ("sys", "sys"),
            ("sibling", "repro.parent"), ("a", "a"), ("re", "re"),
            ("x", "x"), ("y", "y"), ("z", "z"), ("pathmod", "posixpath"),
        ]


class TestTreesMatchTheOracles:
    def test_golden_sources(self):
        for path, source in sorted(GOLDEN_SOURCES.items()):
            if not path.endswith("broken.py"):
                _compare(path, source)

    def test_live_tree(self):
        tasks = collect_files(["src", "tests", "benchmarks", "examples"],
                              root=REPO)
        assert len(tasks) >= 100
        for abs_path, display in tasks:
            with open(abs_path, encoding="utf-8") as fh:
                _compare(display, fh.read())
