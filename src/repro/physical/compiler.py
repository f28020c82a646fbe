"""One-pass compilation of algebra expressions into Python closures.

The interpretive evaluator (:mod:`repro.physical.evaluator`) re-walks the
expression tree with an ``isinstance`` dispatch chain for every input row.
This module translates an expression once per plan into a closure
``Row -> value`` so that per-row evaluation is a direct chain of calls:

* **constant hoisting** — subexpressions that are reference-free and touch
  no database state (no property reads, method calls or extents) are folded
  to a value at compile time;
* **pre-bound dispatch** — property reads and method calls resolve their
  target once per receiver class via :meth:`Database.property_reader` /
  :meth:`Database.instance_invoker` instead of re-resolving per row (the
  same statistics are charged, so work counters match the interpreter);
* **specialized predicates** — comparisons against constants capture the
  constant directly, and ``IS-IN`` against a constant collection probes a
  prebuilt hashed set.

Compilation itself performs *no* database work and raises no errors the
interpreter would not raise: anything that can fail at runtime (unknown
methods, bad operand types) fails on first evaluation, exactly as the
interpreter fails on the first row.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Mapping

from repro.algebra.expressions import (
    BinaryOp,
    ClassExtent,
    ClassMethodCall,
    Const,
    Expression,
    MethodCall,
    Parameter,
    PropertyAccess,
    SetConstructor,
    TupleConstructor,
    UnaryOp,
    Var,
    walk,
)
from repro.datamodel.database import Database
from repro.datamodel.oid import OID
from repro.errors import ExecutionError
from repro.physical.evaluator import (
    EMPTY_ROW,
    _access_property,
    _as_set,
    _invoke_method,
    evaluate,
    make_hashable,
)

__all__ = ["CompiledExpr", "ExpressionCompiler"]

CompiledExpr = Callable[[Mapping[str, Any]], Any]

_COLLECTIONS = (set, frozenset, list, tuple)
_DATABASE_NODES = (PropertyAccess, MethodCall, ClassMethodCall, ClassExtent)

_COMPARATORS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _is_pure(expression: Expression) -> bool:
    """True when *expression* uses no references, no database state and no
    bind parameters (a parameter's value changes between executions of one
    compiled plan, so it must never be folded into a constant)."""
    return not any(isinstance(node, (Var, Parameter, *_DATABASE_NODES))
                   for node in walk(expression))


def _truthy(value: Any) -> bool:
    return value is not None and bool(value)


class ExpressionCompiler:
    """Compiles expressions into closures bound to one database.

    ``parameter_resolver`` supplies bind-parameter values at evaluation time
    (``key -> value``); the prepared engine passes a thread-local binding
    environment so that one compiled plan can serve many concurrent
    executions with different bindings.  The resolver raises for a key that
    has no bound value, like the interpreter does on an unbound plan.
    """

    def __init__(self, database: Database,
                 parameter_resolver: Callable[[str], Any],
                 profile=None):
        self._database = database
        self._parameter_resolver = parameter_resolver
        #: optional :class:`repro.physical.profile.PlanProfile` the engine
        #: threads to its operator builders (the compiler itself never
        #: consults it; it rides here because one compiler instance spans
        #: exactly one plan build, the granularity profiling needs)
        self.profile = profile

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def compile(self, expression: Expression) -> CompiledExpr:
        """Compile *expression* into a ``Row -> value`` closure."""
        folded = self._fold(expression)
        if folded is not None:
            return folded
        return self._compile(expression)

    def compile_predicate(self, expression: Expression
                          ) -> Callable[[Mapping[str, Any]], bool]:
        """Compile a boolean condition (``None`` counts as false)."""
        compiled = self.compile(expression)

        def predicate(row: Mapping[str, Any]) -> bool:
            value = compiled(row)
            return value is not None and bool(value)

        return predicate

    # ------------------------------------------------------------------
    # constant hoisting
    # ------------------------------------------------------------------
    def _fold(self, expression: Expression) -> CompiledExpr | None:
        """Fold a pure subexpression into a constant closure, or None."""
        if not _is_pure(expression):
            return None
        try:
            value = evaluate(expression, EMPTY_ROW, self._database)
        except Exception:
            # A pure expression that fails (e.g. 1/0) must keep failing at
            # evaluation time, not at compile time.
            return None

        def constant(row: Mapping[str, Any]) -> Any:
            return value

        constant.constant_value = value  # type: ignore[attr-defined]
        return constant

    def _const_value(self, expression: Expression) -> tuple[bool, Any]:
        """(True, value) when *expression* folds to a constant."""
        folded = self._fold(expression)
        if folded is None:
            return False, None
        return True, folded.constant_value  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # node compilation
    # ------------------------------------------------------------------
    def _compile(self, expression: Expression) -> CompiledExpr:
        if isinstance(expression, Const):
            value = expression.value
            return lambda row: value
        if isinstance(expression, Var):
            return self._compile_var(expression)
        if isinstance(expression, Parameter):
            return self._compile_parameter(expression)
        if isinstance(expression, ClassExtent):
            extension = self._database.extension
            class_name = expression.class_name
            return lambda row: set(extension(class_name))
        if isinstance(expression, PropertyAccess):
            return self._compile_property(expression)
        if isinstance(expression, MethodCall):
            return self._compile_method_call(expression)
        if isinstance(expression, ClassMethodCall):
            return self._compile_class_method_call(expression)
        if isinstance(expression, BinaryOp):
            return self._compile_binary(expression)
        if isinstance(expression, UnaryOp):
            return self._compile_unary(expression)
        if isinstance(expression, TupleConstructor):
            fields = [(name, self.compile(value))
                      for name, value in expression.fields]
            return lambda row: {name: fn(row) for name, fn in fields}
        if isinstance(expression, SetConstructor):
            elements = [self.compile(element)
                        for element in expression.elements]
            return lambda row: {make_hashable(fn(row)) for fn in elements}
        # Unknown nodes fall back to the interpreter so that any error is
        # raised at evaluation time, like the reference engine does.
        database = self._database
        return lambda row: evaluate(expression, row, database)

    def _compile_var(self, expression: Var) -> CompiledExpr:
        name = expression.name

        def read_var(row: Mapping[str, Any]) -> Any:
            try:
                return row[name]
            except KeyError:
                raise ExecutionError(
                    f"reference {name!r} is not bound in the input tuple"
                ) from None

        return read_var

    def _compile_parameter(self, expression: Parameter) -> CompiledExpr:
        resolver = self._parameter_resolver
        key = expression.key
        return lambda row: resolver(key)

    def _compile_property(self, expression: PropertyAccess) -> CompiledExpr:
        base = self.compile(expression.base)
        prop = expression.prop
        database = self._database
        readers: dict[str, Callable[[OID], Any]] = {}

        def read_property(row: Mapping[str, Any]) -> Any:
            obj = base(row)
            if isinstance(obj, OID):
                reader = readers.get(obj.class_name)
                if reader is None:
                    reader = database.property_reader(obj.class_name, prop)
                    readers[obj.class_name] = reader
                return reader(obj)
            if obj is None:
                return None
            if isinstance(obj, _COLLECTIONS):
                return _access_property(obj, prop, database)
            raise ExecutionError(
                f"cannot access property {prop!r} on non-object value {obj!r}")

        return read_property

    def _compile_method_call(self, expression: MethodCall) -> CompiledExpr:
        receiver = self.compile(expression.receiver)
        method = expression.method
        database = self._database
        invokers: dict[str, Callable[[Any, tuple], Any]] = {}

        # When every argument folds to a constant (the common case for
        # predicates like ``p->contains_string('term')``), the argument
        # tuple is built once at compile time instead of per row.
        folded_args = [self._const_value(arg) for arg in expression.args]
        if all(is_const for is_const, _ in folded_args):
            const_args = tuple(value for _, value in folded_args)

            def call_method_const(row: Mapping[str, Any]) -> Any:
                obj = receiver(row)
                if isinstance(obj, OID):
                    invoke = invokers.get(obj.class_name)
                    if invoke is None:
                        invoke = database.instance_invoker(obj.class_name, method)
                        invokers[obj.class_name] = invoke
                    return invoke(obj, const_args)
                if obj is None:
                    return None
                if isinstance(obj, _COLLECTIONS):
                    return _invoke_method(obj, method, list(const_args), database)
                raise ExecutionError(
                    f"cannot invoke method {method!r} on non-object value {obj!r}")

            return call_method_const

        arg_fns = tuple(self.compile(arg) for arg in expression.args)

        def call_method(row: Mapping[str, Any]) -> Any:
            obj = receiver(row)
            args = tuple(fn(row) for fn in arg_fns)
            if isinstance(obj, OID):
                invoke = invokers.get(obj.class_name)
                if invoke is None:
                    invoke = database.instance_invoker(obj.class_name, method)
                    invokers[obj.class_name] = invoke
                return invoke(obj, args)
            if obj is None:
                return None
            if isinstance(obj, _COLLECTIONS):
                return _invoke_method(obj, method, list(args), database)
            raise ExecutionError(
                f"cannot invoke method {method!r} on non-object value {obj!r}")

        return call_method

    def _compile_class_method_call(self, expression: ClassMethodCall
                                   ) -> CompiledExpr:
        arg_fns = tuple(self.compile(arg) for arg in expression.args)
        class_name = expression.class_name
        method = expression.method
        database = self._database
        cell: list[Callable[[Any, tuple], Any]] = []

        def call_class_method(row: Mapping[str, Any]) -> Any:
            args = tuple(fn(row) for fn in arg_fns)
            if not cell:
                cell.append(database.class_invoker(class_name, method))
            return cell[0](class_name, args)

        return call_class_method

    # ------------------------------------------------------------------
    # operators
    # ------------------------------------------------------------------
    def _compile_binary(self, expression: BinaryOp) -> CompiledExpr:
        op = expression.op
        if op == "AND":
            left = self.compile(expression.left)
            right = self.compile(expression.right)
            return lambda row: _truthy(left(row)) and _truthy(right(row))
        if op == "OR":
            left = self.compile(expression.left)
            right = self.compile(expression.right)
            return lambda row: _truthy(left(row)) or _truthy(right(row))

        left = self.compile(expression.left)
        # Fold the right operand once; the non-const paths below still need
        # it as a closure, which for a folded value is a plain capture.
        right_is_const, right_value = self._const_value(expression.right)
        if right_is_const:
            captured = right_value

            def right(row: Mapping[str, Any], _value=captured) -> Any:
                return _value
        else:
            right = self.compile(expression.right)

        if op == "==":
            if right_is_const:
                return lambda row: left(row) == right_value
            return lambda row: left(row) == right(row)
        if op == "!=":
            if right_is_const:
                return lambda row: left(row) != right_value
            return lambda row: left(row) != right(row)

        if op in _COMPARATORS:
            compare = _COMPARATORS[op]
            if right_is_const and right_value is not None:
                def compare_const(row: Mapping[str, Any]) -> bool:
                    value = left(row)
                    return value is not None and compare(value, right_value)
                return compare_const

            def compare_general(row: Mapping[str, Any]) -> bool:
                left_value = left(row)
                right_value = right(row)
                if left_value is None or right_value is None:
                    return False
                return compare(left_value, right_value)

            return compare_general

        if op == "IS-IN":
            return self._compile_membership(left, right,
                                            right_is_const, right_value)

        if op == "IS-SUBSET":
            return lambda row: _as_set(left(row)).issubset(_as_set(right(row)))
        if op == "INTERSECT":
            return lambda row: _as_set(left(row)) & _as_set(right(row))
        if op == "UNION":
            return lambda row: _as_set(left(row)) | _as_set(right(row))
        if op == "DIFF":
            return lambda row: _as_set(left(row)) - _as_set(right(row))

        if op in ("+", "-", "*", "/"):
            arithmetic = {"+": operator.add, "-": operator.sub,
                          "*": operator.mul, "/": operator.truediv}[op]

            def compute(row: Mapping[str, Any]) -> Any:
                left_value = left(row)
                right_value = right(row)
                if left_value is None or right_value is None:
                    return None
                return arithmetic(left_value, right_value)

            return compute

        def unknown(row: Mapping[str, Any]) -> Any:
            raise ExecutionError(f"unknown binary operator {op!r}")

        return unknown

    def _compile_membership(self, left: CompiledExpr, right: CompiledExpr,
                            right_is_const: bool, right_value: Any
                            ) -> CompiledExpr:
        """``IS-IN`` — probe a prebuilt hashed set for constant collections."""
        if right_is_const and isinstance(right_value, (*_COLLECTIONS, dict)):
            try:
                members = frozenset(right_value)
            except TypeError:
                members = None
            if members is not None:
                def probe(row: Mapping[str, Any]) -> bool:
                    value = left(row)
                    try:
                        return value in members
                    except TypeError:
                        # unhashable probe values fall back to the linear
                        # semantics of the original collection
                        return value in right_value
                return probe

        def membership(row: Mapping[str, Any]) -> bool:
            # Evaluate the probe value first, like the interpreter, so that
            # any database work on the left side is charged identically.
            value = left(row)
            container = right(row)
            if container is None:
                return False
            if not isinstance(container, (*_COLLECTIONS, dict)):
                raise ExecutionError(
                    f"right operand of IS-IN is not a collection: {container!r}")
            return value in container

        return membership

    def _compile_unary(self, expression: UnaryOp) -> CompiledExpr:
        operand = self.compile(expression.operand)
        if expression.op == "NOT":
            return lambda row: not _truthy(operand(row))
        if expression.op == "-":
            return lambda row: -operand(row)
        op = expression.op

        def unknown(row: Mapping[str, Any]) -> Any:
            raise ExecutionError(f"unknown unary operator {op!r}")

        return unknown
