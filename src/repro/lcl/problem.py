"""The LCL problem abstraction.

An LCL problem (Naor–Stockmeyer) is a tuple ``(Sigma_in, Sigma_out, C, r)``:
finite input/output alphabets, a checkability radius ``r``, and a constraint
``C`` that every radius-``r`` neighbourhood of a labeled graph must satisfy.

Enumerating ``C`` as an explicit finite set of labeled balls is possible but
combinatorially enormous; the standard executable equivalent — used
throughout this library — is a *local checker*: a predicate
``check_node(graph, outputs, v)`` that inspects only the radius-``r`` ball
of ``v``.  Each problem family in this package documents its radius and
implements the checker; :class:`Violation` records failures for diagnostics
and failure-injection tests.

Verification runs on two paths.  ``verify``/``verify_batch`` lower the
problem to :mod:`repro.lcl.kernel`'s flat-array CSR pass (interned label
codes, per-graph compile cache, optional ``early_exit``);
``verify_reference`` keeps the literal per-node ``check_node`` loop as the
cross-check oracle, exactly like the simulator's batched/reference
engine split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Sequence

from ..local.graph import Graph

__all__ = ["Violation", "LCLProblem", "LCLResult"]


@dataclass(frozen=True)
class Violation:
    """A local constraint failure at a node."""

    node: int
    rule: str
    detail: str = ""

    def __str__(self) -> str:
        msg = f"node {self.node}: {self.rule}"
        if self.detail:
            msg += f" ({self.detail})"
        return msg


@dataclass
class LCLResult:
    """Outcome of verifying a labeling: valid flag plus all violations."""

    violations: List[Violation]

    @property
    def valid(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.valid

    def raise_if_invalid(self) -> None:
        if self.violations:
            head = "; ".join(str(v) for v in self.violations[:5])
            more = len(self.violations) - 5
            suffix = f" (+{more} more)" if more > 0 else ""
            raise AssertionError(f"invalid labeling: {head}{suffix}")


class LCLProblem:
    """Base class: a locally checkable labeling problem with a checker.

    Subclasses set :attr:`name`, :attr:`radius`, the alphabets, and
    implement :meth:`check_node`.
    """

    name: str = "lcl"
    radius: int = 1
    sigma_in: FrozenSet = frozenset({None})
    sigma_out: FrozenSet = frozenset()

    def check_node(self, graph: Graph, outputs: Sequence, v: int) -> List[Violation]:
        """Violations of the constraint in the radius-``r`` ball of ``v``."""
        raise NotImplementedError

    def validate_alphabet(self, graph: Graph, outputs: Sequence) -> List[Violation]:
        """Alphabet membership check (part of every LCL's constraint)."""
        bad = []
        for v in graph.nodes():
            if not self.output_in_alphabet(outputs[v]):
                bad.append(Violation(v, "alphabet", f"output {outputs[v]!r}"))
        return bad

    def output_in_alphabet(self, label) -> bool:
        return label in self.sigma_out

    def verify(
        self, graph: Graph, outputs: Sequence, early_exit: bool = False
    ) -> LCLResult:
        """Verify a labeling through the compiled CSR kernel.

        Problems with a registered lowering (every family in this
        package) verify through :mod:`repro.lcl.kernel`'s flat-array
        pass; unknown subclasses fall back to the per-node reference
        path.  ``early_exit`` stops at the first violation instead of
        materializing the full violation list.
        """
        checker = self.compiled()
        if checker is not None:
            return checker.verify(graph, outputs, early_exit=early_exit)
        result = self.verify_reference(graph, outputs)
        if early_exit:
            return LCLResult(result.violations[:1])
        return result

    def verify_batch(
        self,
        graph: Graph,
        outputs_list: Sequence[Sequence],
        early_exit: bool = False,
    ) -> List[LCLResult]:
        """Verify many labelings of one graph, amortizing the per-graph
        compile work (levels, input partition, interners) across the
        batch — the shape ``LocalSimulator.run_batch`` produces."""
        checker = self.compiled()
        if checker is not None:
            return checker.verify_batch(graph, outputs_list,
                                        early_exit=early_exit)
        return [
            self.verify(graph, outputs, early_exit=early_exit)
            for outputs in outputs_list
        ]

    def compiled(self):
        """This problem's cached kernel :class:`~repro.lcl.kernel.CompiledChecker`
        (None when no lowering is registered for the exact type)."""
        try:
            return self._compiled_checker
        except AttributeError:
            from .kernel import compile_checker

            self._compiled_checker = compile_checker(self)
            return self._compiled_checker

    def verify_reference(self, graph: Graph, outputs: Sequence) -> LCLResult:
        """The legacy per-node verification path: alphabet pass, then
        ``check_node`` over every node.  Kept as the executable
        definition of the constraint — the oracle the kernel is
        differentially tested against."""
        if len(outputs) != graph.n:
            raise ValueError("outputs length must equal graph.n")
        violations = self.validate_alphabet(graph, outputs)
        if not violations:
            for v in graph.nodes():
                violations.extend(self.check_node(graph, outputs, v))
        return LCLResult(violations)
