"""Determinism rules (DET...).

The whole value of flow-level simulation — bitwise-reproducible sweeps,
trustworthy differential tests, checkpoint round trips — rests on
simulation state never depending on the host: no wall-clock reads, no
process-global RNG, no iteration order borrowed from hash tables.
These rules flag the three ways that property gets lost in practice.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from ..context import ModuleContext
from ..rule import LintFinding, Rule

#: Packages whose code computes simulation state (the poster's "temporally
#: ordered set of inputs"); wall-clock and set-order hazards live here.
SIM_STATE_SCOPES = ("sim", "flowsim", "pktsim", "openflow", "runtime", "core", "wire")

#: Dotted call origins that read the host clock.
WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: ``numpy.random`` helpers that are fine: explicitly-seeded generator
#: construction, not draws from the process-global state.
NP_RANDOM_ALLOWED = {"default_rng", "Generator", "SeedSequence", "RandomState"}

#: ``random`` module members that are fine: seeded stream construction
#: and non-drawing helpers.
RANDOM_ALLOWED = {"Random"}


class WallClockRule(Rule):
    id = "DET001"
    description = (
        "simulation-state code reads the host clock; time must come from "
        "the kernel (sim.now) or the event being fired"
    )
    scopes = SIM_STATE_SCOPES

    def check(self, module: ModuleContext) -> Iterator[LintFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = module.imports.resolve_call(node.func)
            if origin in WALL_CLOCK_CALLS:
                yield self.finding(
                    module,
                    node.lineno,
                    f"wall-clock read {origin}(): simulation state must "
                    f"derive time from the kernel clock (sim.now)",
                    column=node.col_offset,
                )


class GlobalRngRule(Rule):
    id = "DET002"
    description = (
        "draw from the process-global RNG (random.* / numpy.random.*); "
        "use a named stream from RngRegistry so seeds stay independent"
    )
    # Process-global RNG is forbidden everywhere in the package: even
    # analysis helpers feed reproducible reports.
    scopes = ()

    def check(self, module: ModuleContext) -> Iterator[LintFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = module.imports.resolve_call(node.func)
            if origin is None:
                continue
            flagged = self._classify(origin)
            if flagged is not None:
                yield self.finding(
                    module,
                    node.lineno,
                    flagged,
                    column=node.col_offset,
                )

    @staticmethod
    def _classify(origin: str) -> Optional[str]:
        parts = origin.split(".")
        if parts[0] == "random" and len(parts) == 2:
            member = parts[1]
            if member in RANDOM_ALLOWED:
                return None
            if member == "SystemRandom":
                return (
                    "random.SystemRandom is entropy-backed and can never "
                    "reproduce; use a seeded random.Random stream"
                )
            return (
                f"module-level random.{member}() draws from the "
                f"process-global RNG; use a named RngRegistry stream"
            )
        if parts[:2] == ["numpy", "random"] and len(parts) == 3:
            member = parts[2]
            if member in NP_RANDOM_ALLOWED:
                return None
            return (
                f"numpy.random.{member}() uses the unseeded global "
                f"generator; use RngRegistry.np_stream / "
                f"numpy.random.default_rng(seed)"
            )
        return None


def _is_set_expr_literal(node: ast.expr) -> bool:
    """Syntactically-recognizable set expression."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # a | b etc. only counts when an operand is itself a set.
        return _is_set_expr_literal(node.left) or _is_set_expr_literal(
            node.right
        )
    return False


#: Builtins whose result does not depend on element order: a set-fed
#: comprehension passed straight into one of these is deterministic.
#: (``sum`` is deliberately absent — float accumulation order matters.)
ORDER_INSENSITIVE_CONSUMERS = {
    "sorted",
    "min",
    "max",
    "any",
    "all",
    "len",
    "set",
    "frozenset",
}


def _is_set_annotation(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Name):
        return target.id in ("Set", "set", "FrozenSet", "frozenset")
    if isinstance(target, ast.Attribute):
        return target.attr in ("Set", "FrozenSet", "AbstractSet")
    return False


class SetIterationRule(Rule):
    id = "DET003"
    description = (
        "iteration over a set feeds simulation state or event ordering; "
        "iterate sorted(...) (or another deterministic order) instead"
    )
    scopes = ("sim", "flowsim", "pktsim", "openflow", "runtime", "wire")

    def check(self, module: ModuleContext) -> Iterator[LintFinding]:
        set_attrs = self._set_attributes(module)
        for node in ast.walk(module.tree):
            iters: Tuple[ast.expr, ...] = ()
            if isinstance(node, ast.For):
                iters = (node.iter,)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                if self._feeds_order_insensitive_consumer(module, node):
                    continue
                iters = tuple(gen.iter for gen in node.generators)
            for it in iters:
                reason = self._is_set_expr(module, it, set_attrs)
                if reason:
                    yield self.finding(
                        module,
                        it.lineno,
                        f"iterating {reason} has no deterministic order; "
                        f"wrap it in sorted(...) or keep an insertion-"
                        f"ordered structure",
                        column=it.col_offset,
                    )

    # -- helpers -------------------------------------------------------
    @staticmethod
    def _feeds_order_insensitive_consumer(
        module: ModuleContext, comp: ast.expr
    ) -> bool:
        """A comprehension passed directly to sorted()/min()/... is fine."""
        parent = module.parent(comp)
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in ORDER_INSENSITIVE_CONSUMERS
            and comp in parent.args
        )

    def _set_attributes(self, module: ModuleContext) -> Dict[str, Set[str]]:
        """Per-class map of ``self.X`` attributes that hold sets."""
        table: Dict[str, Set[str]] = {}
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            attrs: Set[str] = set()
            for sub in ast.walk(node):
                target: Optional[ast.expr] = None
                is_set = False
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    target = sub.targets[0]
                    is_set = _is_set_expr_literal(sub.value)
                elif isinstance(sub, ast.AnnAssign):
                    target = sub.target
                    is_set = _is_set_annotation(sub.annotation) or (
                        sub.value is not None
                        and _is_set_expr_literal(sub.value)
                    )
                if (
                    is_set
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.add(target.attr)
            if attrs:
                table[node.name] = attrs
        return table

    def _local_set_names(self, func: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for sub in ast.walk(func):
            target = None
            is_set = False
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target = sub.targets[0]
                is_set = _is_set_expr_literal(sub.value)
            elif isinstance(sub, ast.AnnAssign):
                target = sub.target
                is_set = _is_set_annotation(sub.annotation) or (
                    sub.value is not None and _is_set_expr_literal(sub.value)
                )
            if is_set and isinstance(target, ast.Name):
                names.add(target.id)
        # Parameters annotated as sets count too.
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in list(func.args.args) + list(func.args.kwonlyargs):
                if _is_set_annotation(arg.annotation):
                    names.add(arg.arg)
        return names

    def _is_set_expr(
        self,
        module: ModuleContext,
        node: ast.expr,
        set_attrs: Dict[str, Set[str]],
    ) -> Optional[str]:
        """Classify an iterated expression; returns a description or None."""
        if _is_set_expr_literal(node):
            return "a set expression"
        if isinstance(node, ast.Name):
            func = module.enclosing_function(node)
            if func is not None and node.id in self._local_set_names(func):
                return f"the set {node.id!r}"
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            cls = module.enclosing_class(node)
            if cls is not None and node.attr in set_attrs.get(cls.name, ()):
                return f"the set attribute self.{node.attr}"
        return None
