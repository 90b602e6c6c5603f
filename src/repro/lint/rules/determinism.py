"""DET rules: every byte of output must be a function of declared seeds.

The sweep/census payload contract (byte-identical JSON at any worker
count, under any ``PYTHONHASHSEED``) only holds if randomness, hashing,
clocks and iteration orders are all pinned.  These rules encode the
:mod:`repro.parallel` docstring as checkable patterns:

* **DET001** — module-level / unseeded ``random`` draws in library code.
* **DET002** — builtin ``hash()`` feeding seeds, digests or task keys.
* **DET003** — wall-clock / entropy sources.
* **DET004** — iteration over ``set``/``frozenset`` flowing into
  ordered results without ``sorted(...)``.
* **DET005** — unordered fan-out APIs (``imap_unordered`` & friends).
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from ..core import Rule, SiteRule

__all__ = [
    "CLOCK_SOURCES",
    "HASH_MESSAGE",
    "builtin_hash",
    "clock_message",
    "unordered_fanout",
    "unseeded_entropy",
    "UnseededRandomRule",
    "BuiltinHashRule",
    "WallClockRule",
    "SetIterationRule",
    "UnorderedPoolRule",
]


#: ``random`` module functions that draw from the process-global RNG
_GLOBAL_DRAWS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "seed", "getrandbits", "betavariate",
    "expovariate", "triangular",
}
#: ``numpy.random`` constructors whose first argument is the seed
_NUMPY_SEEDABLE = {"default_rng", "Generator", "PCG64", "SeedSequence"}


def _unseeded(call: ast.Call) -> bool:
    """No argument at all, or a literal ``None`` as the only one — the
    cases where a seedable constructor falls back to OS entropy."""
    args = list(call.args) + [kw.value for kw in call.keywords]
    return not args or (len(args) == 1 and isinstance(args[0], ast.Constant)
                        and args[0].value is None)


def unseeded_entropy(qual: Optional[str],
                     call: ast.Call) -> Optional[Tuple[str, str]]:
    """``(evidence, advice)`` when ``call`` — whose callee resolves to
    ``qual`` — draws unseeded entropy, else ``None``.

    The fact extractor (:mod:`repro.lint.summaries`) records a site for
    every call it accepts; DET001 reports those sites and IPD001
    propagates them, so the two cannot disagree:

    * ``random.Random`` and numpy's ``default_rng``/``Generator``/
      ``PCG64``/``SeedSequence`` only with no argument or a literal
      ``None`` (a seeded constructor is the sanctioned pattern);
    * ``random.<draw>()`` on the process-global RNG;
    * every other ``numpy.random.*`` call (``rand``, ``seed``,
      ``shuffle``, ...), which uses numpy's global RNG.
    """
    if qual is None:
        return None
    module, _, attr = qual.rpartition(".")
    numpy_random = qual.startswith(("numpy.random.", "np.random."))
    if qual == "random.Random" or (numpy_random and attr in _NUMPY_SEEDABLE):
        if _unseeded(call):
            return (f"unseeded {qual}()",
                    "draws from OS entropy; seed it (e.g. from "
                    "repro.parallel.stable_seed)")
        return None
    if module == "random" and attr in _GLOBAL_DRAWS:
        return (f"{qual}()", "uses the process-global RNG; thread an "
                             "explicit seeded random.Random instead")
    if numpy_random:
        return (f"{qual}()", "uses numpy's global RNG; draw from a seeded "
                             "numpy.random.default_rng(seed) instead")
    return None


class UnseededRandomRule(SiteRule):
    """DET001: module-level or unseeded randomness.

    ``random.<draw>()`` uses the process-global, process-seeded RNG, and
    ``random.Random()`` with no seed draws from OS entropy — both make
    results irreproducible across runs and workers; numpy's global RNG
    (``np.random.rand`` and friends) and unseeded numpy generators
    (``np.random.default_rng()``) likewise.  Library code must thread an
    explicit ``rng`` or derive a seed from ``repro.parallel.stable_seed``;
    a numpy Generator seeded from such an ``rng``
    (``np.random.default_rng(rng.getrandbits(128))``) is clean.
    """

    id = "DET001"
    summary = ("module-level/unseeded random draws (thread an rng or "
               "derive a seed via stable_seed)")


def builtin_hash(call: ast.Call, ctx) -> bool:
    """Whether ``call`` is ``hash(...)`` on the builtin (no import, module
    assignment or module def named ``hash``); the fact extractor exempts
    calls inside a ``def __hash__``, its header included."""
    func = call.func
    return (isinstance(func, ast.Name) and func.id == "hash"
            and ctx.is_builtin("hash"))


HASH_MESSAGE = ("builtin hash() is salted per process (PYTHONHASHSEED); "
                "derive seeds/digests/task keys from repro.parallel."
                "stable_seed or stable_digest")


class BuiltinHashRule(SiteRule):
    """DET002: builtin ``hash()`` is salted per process.

    ``hash(str)``/``hash(tuple-of-str)`` changes with ``PYTHONHASHSEED``,
    so any seed, digest, cache key or task key derived from it differs
    between processes — exactly the nondeterminism
    ``repro.parallel.stable_seed``/``stable_digest`` exist to prevent.
    Implementing ``__hash__`` in terms of ``hash()`` is fine (it never
    crosses a process boundary through in-memory dicts/sets alone).  The
    fact extractor records a site for every :func:`builtin_hash` call
    with no enclosing ``def __hash__``.
    """

    id = "DET002"
    summary = ("builtin hash() is PYTHONHASHSEED-salted; use "
               "stable_seed/stable_digest for anything reproducible")


#: wall-clock and OS-entropy sources: DET003's pattern, and part of
#: what STORE001 keeps out of store writer scopes
CLOCK_SOURCES = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbits", "secrets.randbelow", "secrets.choice",
})


def clock_message(qual: str, attribute: bool) -> str:
    """DET003's text for a read of ``qual`` (an attribute chain such as
    ``time.time``, or a bare name imported from a clock module)."""
    message = (f"{qual} is a wall-clock/entropy source; results must be "
               "functions of declared seeds")
    if attribute:
        message += " (benchmarks time via benchmarks/harness.timed)"
    return message


class WallClockRule(SiteRule):
    """DET003: wall-clock and entropy sources.

    Clock reads and OS entropy make results depend on when/where code
    runs.  The only sanctioned reader is ``benchmarks/harness.py`` (the
    ``timed`` helper), which the severity config exempts.  The fact
    extractor records one site per attribute chain or imported name in
    :data:`CLOCK_SOURCES`, resolving its root name per scope: a
    parameter, local or comprehension target that rebinds the imported
    name is not a clock read.
    """

    id = "DET003"
    summary = ("wall-clock/entropy source; only benchmarks/harness.py "
               "may read the clock")


#: consumers for which element order provably cannot matter
_ORDER_FREE_CONSUMERS = {
    "sorted", "set", "frozenset", "sum", "min", "max", "any", "all", "len",
}
#: consumers that freeze the (arbitrary) iteration order into a sequence
_ORDER_SENSITIVE_CONSUMERS = {"list", "tuple", "enumerate"}
_SET_METHODS = {
    "union", "intersection", "difference", "symmetric_difference", "copy",
}
_SET_ANNOTATIONS = {
    "Set", "FrozenSet", "AbstractSet", "MutableSet", "set", "frozenset",
}


class _ScopeSets:
    """Names that provably hold sets within one function/module scope."""

    def __init__(self) -> None:
        self.names: Set[str] = set()
        self.tainted: Set[str] = set()

    def track(self, name: str) -> None:
        if name not in self.tainted:
            self.names.add(name)

    def taint(self, name: str) -> None:
        self.tainted.add(name)
        self.names.discard(name)


class SetIterationRule(Rule):
    """DET004: unordered iteration escaping into ordered results.

    Iterating a ``set`` has no guaranteed order; when the elements flow
    into a list, a generator a caller will sequence, a joined string or
    an accumulator, the result depends on hash-table layout.  Wrap the
    iterable in ``sorted(...)``.  Order-free reductions (``sum``,
    ``min``, membership scans, building another set) are fine.
    """

    id = "DET004"
    summary = ("iteration over a set flows into ordered results; wrap "
               "the iterable in sorted(...)")

    # -- scope handling -------------------------------------------------
    def visit_Module(self, node: ast.Module) -> None:
        self._scope(node, [])

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # reached only for nested scopes via _scope's deferred walk
        self._scope(node, self._annotated_set_params(node))

    visit_AsyncFunctionDef = visit_FunctionDef

    @staticmethod
    def _annotated_set_params(node: ast.FunctionDef) -> List[str]:
        params = []
        args = node.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            ann = arg.annotation
            if ann is None:
                continue
            if isinstance(ann, ast.Subscript):
                ann = ann.value
            name = ann.attr if isinstance(ann, ast.Attribute) else (
                ann.id if isinstance(ann, ast.Name) else None)
            if name in _SET_ANNOTATIONS:
                params.append(arg.arg)
        return params

    def _scope(self, scope_node: ast.AST, set_params: List[str]) -> None:
        sets = _ScopeSets()
        for name in set_params:
            sets.track(name)
        body = (scope_node.body if isinstance(scope_node.body, list)
                else [scope_node.body])
        nested: List[ast.FunctionDef] = []
        # pass 1: collect assignments (order-independent within scope)
        for stmt in self._walk_scope(body, nested):
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    self._note_assignment(target, stmt.value, sets)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                self._note_assignment(stmt.target, stmt.value, sets)
            elif isinstance(stmt, ast.AugAssign):
                if isinstance(stmt.target, ast.Name) and not isinstance(
                        stmt.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
                    sets.taint(stmt.target.id)
            elif isinstance(stmt, ast.For):
                for n in ast.walk(stmt.target):
                    if isinstance(n, ast.Name):
                        sets.taint(n.id)
        # pass 2: find escaping iterations
        for stmt in self._walk_scope(body, []):
            self._check_node(stmt, sets)
        for fn in nested:
            self.visit_FunctionDef(fn)

    @staticmethod
    def _walk_scope(body: List[ast.stmt], nested: List[ast.FunctionDef]):
        """Walk statements/expressions without entering nested defs."""
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.append(node)
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _note_assignment(self, target: ast.AST, value: ast.AST,
                         sets: _ScopeSets) -> None:
        if not isinstance(target, ast.Name):
            return
        if self._is_set_expr(value, sets):
            sets.track(target.id)
        else:
            sets.taint(target.id)

    def _is_set_expr(self, node: ast.AST, sets: _ScopeSets) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in sets.names
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return (self._is_set_expr(node.left, sets)
                    or self._is_set_expr(node.right, sets))
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset") \
                    and self.ctx.is_builtin(func.id):
                return True
            if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
                return self._is_set_expr(func.value, sets)
        return False

    # -- firing points --------------------------------------------------
    def _check_node(self, node: ast.AST, sets: _ScopeSets) -> None:
        if isinstance(node, ast.For) and self._is_set_expr(node.iter, sets):
            if self._body_is_order_sensitive(node.body):
                self.report(node.iter, self._msg("for loop"))
        elif isinstance(node, ast.ListComp):
            if self._comp_over_set(node, sets) and not self._consumed_by(
                    node, _ORDER_FREE_CONSUMERS):
                self.report(node, self._msg("list comprehension"))
        elif isinstance(node, ast.GeneratorExp):
            if self._comp_over_set(node, sets) and self._consumed_by(
                    node, _ORDER_SENSITIVE_CONSUMERS, attr="join"):
                self.report(node, self._msg("generator"))
        elif isinstance(node, (ast.List, ast.Tuple)) and isinstance(
                node.ctx, ast.Load):
            # [*s] / (*s,) freeze set order exactly like list(s)/tuple(s)
            starred_set = any(
                isinstance(elt, ast.Starred)
                and self._is_set_expr(elt.value, sets)
                for elt in node.elts)
            if starred_set and not self._consumed_by(
                    node, _ORDER_FREE_CONSUMERS):
                self.report(node, self._msg("starred unpacking"))
        elif isinstance(node, ast.Call):
            func = node.func
            sensitive = (
                isinstance(func, ast.Name)
                and func.id in _ORDER_SENSITIVE_CONSUMERS
                and self.ctx.is_builtin(func.id)
            ) or (isinstance(func, ast.Attribute) and func.attr == "join")
            if sensitive and node.args and self._is_set_expr(
                    node.args[0], sets):
                # sorted(list(s)) / min(tuple(s)): the wrapper's arbitrary
                # order never reaches output — not an escape
                if not self._consumed_by(node, _ORDER_FREE_CONSUMERS):
                    self.report(node, self._msg("conversion"))
            elif sensitive or (
                    isinstance(func, ast.Name) and func.id == "print"
                    and self.ctx.is_builtin("print")):
                # f(*s) splats set order into positional arguments
                for arg in node.args:
                    if isinstance(arg, ast.Starred) and self._is_set_expr(
                            arg.value, sets):
                        self.report(node, self._msg("star-argument"))
                        break

    @staticmethod
    def _msg(kind: str) -> str:
        return (f"{kind} over a set has no deterministic order; wrap the "
                "iterable in sorted(...) before it reaches ordered output")

    def _comp_over_set(self, comp, sets: _ScopeSets) -> bool:
        return self._is_set_expr(comp.generators[0].iter, sets)

    def _consumed_by(self, node: ast.AST, names: Set[str],
                     attr: Optional[str] = None) -> bool:
        parent = self.ctx.parent(node)
        if not isinstance(parent, ast.Call) or node not in parent.args:
            return False
        func = parent.func
        if isinstance(func, ast.Name):
            return func.id in names and self.ctx.is_builtin(func.id)
        if attr is not None and isinstance(func, ast.Attribute):
            return func.attr == attr
        return False

    @staticmethod
    def _body_is_order_sensitive(body: List[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Yield, ast.YieldFrom)):
                    return True
                if isinstance(node, ast.AugAssign):
                    return True
                if isinstance(node, ast.Call) and isinstance(
                        node.func, ast.Attribute) and node.func.attr in (
                        "append", "extend", "insert", "appendleft"):
                    return True
        return False


_UNORDERED_ATTRS = {"imap_unordered", "map_unordered"}
#: imports that fire DET005 unless an enclosing scope rebinds the name
UNORDERED_QUALS = {"concurrent.futures.as_completed", "asyncio.as_completed"}


def unordered_fanout(qual: Optional[str],
                     attr: Optional[str] = None) -> Optional[str]:
    """DET005's message for an attribute named ``attr`` (``None`` for a
    name) whose chain resolves to ``qual``, or ``None`` when it is not an
    unordered fan-out API."""
    if attr not in _UNORDERED_ATTRS and qual not in UNORDERED_QUALS:
        return None
    name = attr if attr in _UNORDERED_ATTRS else "as_completed"
    return (f"{name} yields results in completion order; use "
            "repro.parallel.fork_map so aggregates stay task-ordered")


class UnorderedPoolRule(SiteRule):
    """DET005: unordered fan-out APIs.

    ``Pool.imap_unordered``/``as_completed`` return results in
    completion order, which varies with scheduling — aggregates built
    from them differ run to run.  ``repro.parallel.fork_map`` (ordered
    ``pool.imap``) is the only sanctioned fan-out.  The fact extractor
    records a site for every attribute and loaded name
    :func:`unordered_fanout` accepts, resolving a name, or a chain's
    root, as DET003 does: a parameter or local that rebinds it shadows
    the import.
    """

    id = "DET005"
    summary = ("unordered pool API; repro.parallel.fork_map (task-"
               "ordered) is the only sanctioned fan-out")
