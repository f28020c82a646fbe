"""The production execution engine: compile-once, execute-many plans.

:func:`prepare_plan` translates a physical plan *once* into a tree of
generator factories whose expressions are already compiled closures (see
:mod:`repro.physical.compiler`); each :meth:`PreparedExecutable.run` call
only instantiates fresh, pipelined (Volcano-style) iterators, so a plan
served from a cache thousands of times is compiled once.  The one-shot
entry point :func:`execute_plan` prepares and runs a plan in one call.

Bind parameters compile into reads from a :class:`BindingEnv`, a
thread-local cell the executable fills for the duration of one ``run`` —
many threads can execute the same prepared plan concurrently with different
bindings.  Everything that touches database *state* (extensions, index
lookups, probe-set construction) is evaluated per run, never at prepare
time, so a prepared plan stays correct across data changes; only DDL
(dropping an index a plan scans) can break it, which the plan cache's
version counters guard against.

Rows are mappings from references to values with the algebra's set
semantics: duplicate elimination happens at projections, unions and set
scans.  Row order, duplicate handling and work counters match the reference
interpreter (:mod:`repro.physical.interpreter`) exactly — the differential
tests hold this engine to the interpreter's results.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Mapping, Optional

from repro.algebra.expressions import Expression
from repro.datamodel.database import Database
from repro.datamodel.versioning import current_pin
from repro.errors import ExecutionError
from repro.physical.compiler import ExpressionCompiler
from repro.physical.evaluator import EMPTY_ROW, make_hashable
from repro.physical.interpreter import _iterate_set, _require_index
from repro.physical.parallel import (
    WorkerWrap,
    merge_hash_join,
    run_filter_morsels,
    run_key_morsels,
    run_map_morsels,
)
from repro.physical.plans import (
    ClassScan,
    DiffOp,
    ExpressionSetScan,
    Filter,
    FlattenEval,
    HashJoin,
    IndexEqScan,
    IndexNestedLoopJoin,
    IndexRangeScan,
    MapEval,
    NaturalMergeJoin,
    NestedLoopJoin,
    ParallelHashJoin,
    ParallelIndexEqScan,
    ParallelIndexRangeScan,
    ParallelMap,
    ParallelScan,
    PhysicalOperator,
    ProjectOp,
    Row,
    SetProbeFilter,
    UnionOp,
)
from repro.telemetry.spans import child_span

__all__ = ["BindingEnv", "PreparedExecutable", "execute_plan", "prepare_plan"]

#: a generator factory: each call opens a fresh row iterator
Source = Callable[[], Iterator[Row]]


class BindingEnv:
    """Thread-local bind-parameter values for one prepared plan.

    The compiled closures capture :meth:`resolve`; :meth:`push`/
    :meth:`restore` bracket one execution, saving the previous cell so that
    a method implementation that re-enters the service on the same thread
    does not clobber the outer execution's bindings.
    """

    __slots__ = ("_local",)

    def __init__(self) -> None:
        self._local = threading.local()

    def push(self, bindings: Optional[Mapping[str, Any]]) -> Any:
        previous = getattr(self._local, "bindings", None)
        self._local.bindings = bindings
        return previous

    def restore(self, previous: Any) -> None:
        self._local.bindings = previous

    def current(self) -> Optional[Mapping[str, Any]]:
        """The bindings active on the calling thread (for propagation into
        parallel worker threads)."""
        return getattr(self._local, "bindings", None)

    def resolve(self, key: str) -> Any:
        bindings = getattr(self._local, "bindings", None)
        if bindings is None or key not in bindings:
            display = f"?{key}" if key.isdigit() else f":{key}"
            raise ExecutionError(
                f"bind parameter {display} has no bound value")
        return bindings[key]


class PreparedExecutable:
    """A physical plan with all expressions compiled, ready to run.

    *profile* (a :class:`repro.physical.profile.PlanProfile`) enables the
    per-operator EXPLAIN ANALYZE counters.  A profiled executable shares its
    profile across runs (counters accumulate), so the service builds a fresh
    instance per ``EXPLAIN ANALYZE`` instead of profiling cached plans.
    """

    def __init__(self, plan: PhysicalOperator, database: Database,
                 profile=None):
        self.plan = plan
        self.database = database
        self.profile = profile
        self._env = BindingEnv()
        compiler = ExpressionCompiler(database,
                                      parameter_resolver=self._env.resolve,
                                      profile=profile)
        with child_span("compile", profiled=profile is not None):
            self._root = _build(plan, database, compiler, self._env)

    def run(self, bindings: Optional[Mapping[str, Any]] = None) -> list[Row]:
        """Execute the plan with *bindings* and return the result rows.

        The result is fully materialized before the bindings are released,
        so the returned list never depends on the (thread-local) environment.
        """
        with self.binding_scope(bindings):
            return list(self._root())

    def open(self) -> Iterator[Row]:
        """A fresh, *lazy* row iterator over the plan (the streaming feed
        behind the statement API's cursor).

        The iterator performs no database work until it is advanced, and it
        is **unbracketed**: the caller must activate the bindings around
        every advance via :meth:`binding_scope`, e.g.::

            rows = executable.open()
            with executable.binding_scope({"n": 3}):
                first = next(rows)

        This keeps the thread-local binding cell scoped to the moments the
        plan actually evaluates, so interleaved ``run`` calls (or other
        streams) on the same thread cannot observe a foreign binding set.
        """
        return self._root()

    @contextmanager
    def binding_scope(self, bindings: Optional[Mapping[str, Any]]):
        """Activate *bindings* on the calling thread for the ``with`` body."""
        previous = self._env.push(bindings)
        try:
            yield
        finally:
            self._env.restore(previous)


def prepare_plan(plan: PhysicalOperator, database: Database,
                 profile=None) -> PreparedExecutable:
    """Compile *plan* once for repeated execution against *database*.

    With *profile* the executable runs instrumented (see
    :class:`PreparedExecutable`) — the service uses this to watch the first
    execution of a plan for estimate/actual divergence.
    """
    return PreparedExecutable(plan, database, profile=profile)


def execute_plan(plan: PhysicalOperator, database: Database,
                 profile=None) -> list[Row]:
    """Compile and run *plan* once against *database*; return the rows.

    *profile* (a :class:`repro.physical.profile.PlanProfile`) enables
    per-operator row/open/elapsed instrumentation — the EXPLAIN ANALYZE
    counters.  Work counters and results are unaffected by profiling.
    """
    with child_span("execute", engine="compiled") as span:
        rows = prepare_plan(plan, database, profile).run()
        if span is not None:
            span.annotate(rows=len(rows))
    return rows


# ----------------------------------------------------------------------
# builders: compile at build time, touch database state at run time
# ----------------------------------------------------------------------
def _build(plan: PhysicalOperator, database: Database,
           compiler: ExpressionCompiler,
           env: BindingEnv) -> Source:
    builder = _BUILDERS.get(type(plan))
    if builder is None:
        raise ExecutionError(f"unknown physical operator {plan!r}")
    source = builder(plan, database, compiler, env)
    profile = compiler.profile
    if profile is None:
        return source

    def profiled() -> Iterator[Row]:
        return profile.wrap(plan, source())

    return profiled


def _class_scan(plan: ClassScan, database: Database,
                compiler: ExpressionCompiler,
                env: BindingEnv) -> Source:
    ref = plan.ref
    class_name = plan.class_name

    def run() -> Iterator[Row]:
        for oid in database.extension(class_name):
            yield {ref: oid}

    return run


def _index_eq_scan(plan: IndexEqScan, database: Database,
                   compiler: ExpressionCompiler,
                   env: BindingEnv) -> Source:
    ref = plan.ref
    if isinstance(plan.key, Expression):
        key_fn = compiler.compile(plan.key)
    else:
        constant_key = plan.key
        key_fn = lambda row: constant_key  # noqa: E731 - tiny constant closure

    def run() -> Iterator[Row]:
        index = _require_index(plan, database)
        key = key_fn(EMPTY_ROW)
        database.statistics.record_index_lookup()
        for oid in sorted(index.lookup(key)):
            yield {ref: oid}

    return run


def _index_range_scan(plan: IndexRangeScan, database: Database,
                      compiler: ExpressionCompiler,
                      env: BindingEnv) -> Source:
    ref = plan.ref

    def run() -> Iterator[Row]:
        index = _require_index(plan, database)
        if index.kind != "sorted":
            raise ExecutionError(
                f"{plan.describe()} requires a sorted index, found "
                f"{index.kind!r}")
        database.statistics.record_index_lookup()
        oids = index.range(plan.low, plan.high,
                           include_low=plan.include_low,
                           include_high=plan.include_high)
        for oid in sorted(oids):
            yield {ref: oid}

    return run


def _expression_set_scan(plan: ExpressionSetScan, database: Database,
                         compiler: ExpressionCompiler,
                         env: BindingEnv) -> Source:
    value_fn = compiler.compile(plan.expression)
    ref = plan.ref

    def run() -> Iterator[Row]:
        for element in _iterate_set(value_fn(EMPTY_ROW), plan):
            yield {ref: element}

    return run


def _filter(plan: Filter, database: Database,
            compiler: ExpressionCompiler,
            env: BindingEnv) -> Source:
    predicate = compiler.compile_predicate(plan.condition)
    source = _build(plan.input, database, compiler, env)

    def run() -> Iterator[Row]:
        for row in source():
            if predicate(row):
                yield row

    return run


def _set_probe_filter(plan: SetProbeFilter, database: Database,
                      compiler: ExpressionCompiler,
                      env: BindingEnv) -> Source:
    value_fn = compiler.compile(plan.set_expression)
    source = _build(plan.input, database, compiler, env)
    ref = plan.ref

    def run() -> Iterator[Row]:
        # The probe set depends on database state (and possibly parameters):
        # build it per execution, exactly like the reference interpreter.
        members = {make_hashable(v)
                   for v in _iterate_set(value_fn(EMPTY_ROW), plan)}
        for row in source():
            if make_hashable(row.get(ref)) in members:
                yield row

    return run


def _map_eval(plan: MapEval, database: Database,
              compiler: ExpressionCompiler,
              env: BindingEnv) -> Source:
    expression = compiler.compile(plan.expression)
    source = _build(plan.input, database, compiler, env)
    ref = plan.ref

    def run() -> Iterator[Row]:
        for row in source():
            yield {**row, ref: expression(row)}

    return run


def _flatten_eval(plan: FlattenEval, database: Database,
                  compiler: ExpressionCompiler,
                  env: BindingEnv) -> Source:
    expression = compiler.compile(plan.expression)
    source = _build(plan.input, database, compiler, env)
    ref = plan.ref

    def run() -> Iterator[Row]:
        for row in source():
            for element in _iterate_set(expression(row), plan, allow_none=True):
                yield {**row, ref: element}

    return run


def _project(plan: ProjectOp, database: Database,
             compiler: ExpressionCompiler,
             env: BindingEnv) -> Source:
    kept = plan.kept
    source = _build(plan.input, database, compiler, env)

    def run() -> Iterator[Row]:
        seen: set[Any] = set()
        for row in source():
            key = tuple(make_hashable(row.get(ref)) for ref in kept)
            if key not in seen:
                seen.add(key)
                yield {ref: row.get(ref) for ref in kept}

    return run


def _nested_loop_join(plan: NestedLoopJoin, database: Database,
                      compiler: ExpressionCompiler,
                      env: BindingEnv) -> Source:
    predicate = compiler.compile_predicate(plan.condition)
    left_source = _build(plan.left, database, compiler, env)
    right_source = _build(plan.right, database, compiler, env)

    def run() -> Iterator[Row]:
        right_rows = list(right_source())
        for left_row in left_source():
            for right_row in right_rows:
                combined = {**left_row, **right_row}
                if predicate(combined):
                    yield combined

    return run


def _hash_join(plan: HashJoin, database: Database,
               compiler: ExpressionCompiler,
               env: BindingEnv) -> Source:
    left_key = compiler.compile(plan.left_key)
    right_key = compiler.compile(plan.right_key)
    left_source = _build(plan.left, database, compiler, env)
    right_source = _build(plan.right, database, compiler, env)

    def run() -> Iterator[Row]:
        table: dict[Any, list[Row]] = defaultdict(list)
        for right_row in right_source():
            table[make_hashable(right_key(right_row))].append(right_row)
        for left_row in left_source():
            matches = table.get(make_hashable(left_key(left_row)))
            if matches:
                for right_row in matches:
                    yield {**left_row, **right_row}

    return run


def _index_nested_loop_join(plan: IndexNestedLoopJoin, database: Database,
                            compiler: ExpressionCompiler,
                            env: BindingEnv) -> Source:
    left_key = compiler.compile(plan.left_key)
    left_source = _build(plan.left, database, compiler, env)
    ref = plan.ref

    def run() -> Iterator[Row]:
        # The index handle is resolved per execution (DDL between runs is
        # guarded by the plan cache's index version, but stay defensive).
        index = _require_index(plan, database)
        statistics = database.statistics
        for left_row in left_source():
            statistics.record_index_lookup()
            for oid in sorted(index.lookup(left_key(left_row))):
                yield {**left_row, ref: oid}

    return run


def _natural_merge_join(plan: NaturalMergeJoin, database: Database,
                        compiler: ExpressionCompiler,
                        env: BindingEnv) -> Source:
    common = plan.common_refs()
    left_source = _build(plan.left, database, compiler, env)
    right_source = _build(plan.right, database, compiler, env)

    def run() -> Iterator[Row]:
        right_rows = list(right_source())
        if not common:
            for left_row in left_source():
                for right_row in right_rows:
                    yield {**left_row, **right_row}
            return
        table: dict[Any, list[Row]] = defaultdict(list)
        for right_row in right_rows:
            key = tuple(make_hashable(right_row.get(ref)) for ref in common)
            table[key].append(right_row)
        for left_row in left_source():
            key = tuple(make_hashable(left_row.get(ref)) for ref in common)
            matches = table.get(key)
            if matches:
                for right_row in matches:
                    yield {**left_row, **right_row}

    return run


def _union(plan: UnionOp, database: Database,
           compiler: ExpressionCompiler,
           env: BindingEnv) -> Source:
    left_source = _build(plan.left, database, compiler, env)
    right_source = _build(plan.right, database, compiler, env)

    def run() -> Iterator[Row]:
        seen: set[Any] = set()
        for source in (left_source, right_source):
            for row in source():
                key = make_hashable(row)
                if key not in seen:
                    seen.add(key)
                    yield row

    return run


def _diff(plan: DiffOp, database: Database,
          compiler: ExpressionCompiler,
          env: BindingEnv) -> Source:
    left_source = _build(plan.left, database, compiler, env)
    right_source = _build(plan.right, database, compiler, env)

    def run() -> Iterator[Row]:
        right_keys = {make_hashable(row) for row in right_source()}
        seen: set[Any] = set()
        for row in left_source():
            key = make_hashable(row)
            if key in seen:
                continue
            seen.add(key)
            if key not in right_keys:
                yield row

    return run


# ----------------------------------------------------------------------
# parallel operators: the operator bodies live in repro.physical.parallel;
# the builders capture the run thread's bindings and snapshot pin and
# re-establish them inside every worker, so compiled Parameter closures
# and versioned reads resolve correctly off-thread
# ----------------------------------------------------------------------
def _bound_worker(env: BindingEnv) -> WorkerWrap:
    """A worker wrapper propagating the submitting thread's bindings and
    snapshot pin, so every morsel observes the same snapshot (and resolves
    the same parameters) as the coordinating statement."""
    bindings = env.current()
    pin = current_pin()

    def wrap(work: Callable[[list], list]) -> Callable[[list], list]:
        def bound(morsel: list) -> list:
            previous = env.push(bindings)
            try:
                if pin is not None:
                    with pin.activate():
                        return work(morsel)
                return work(morsel)
            finally:
                env.restore(previous)

        return bound

    return wrap


def _parallel_scan(plan: ParallelScan, database: Database,
                   compiler: ExpressionCompiler,
                   env: BindingEnv) -> Source:
    predicate = (compiler.compile_predicate(plan.condition)
                 if plan.condition is not None else None)
    ref = plan.ref
    class_name = plan.class_name
    degree = plan.degree

    def run() -> Iterator[Row]:
        partitions = database.extension_partitions(class_name)
        yield from run_filter_morsels(partitions, predicate, ref, degree,
                                      wrap=_bound_worker(env))

    return run


def _parallel_index_eq_scan(plan: ParallelIndexEqScan, database: Database,
                            compiler: ExpressionCompiler,
                            env: BindingEnv) -> Source:
    ref = plan.ref
    degree = plan.degree
    if isinstance(plan.key, Expression):
        key_fn = compiler.compile(plan.key)
    else:
        constant_key = plan.key
        key_fn = lambda row: constant_key  # noqa: E731 - tiny constant closure
    predicate = (compiler.compile_predicate(plan.condition)
                 if plan.condition is not None else None)

    def run() -> Iterator[Row]:
        index = _require_index(plan, database)
        key = key_fn(EMPTY_ROW)
        database.statistics.record_index_lookup()
        yield from run_filter_morsels([sorted(index.lookup(key))], predicate,
                                      ref, degree, wrap=_bound_worker(env))

    return run


def _parallel_index_range_scan(plan: ParallelIndexRangeScan,
                               database: Database,
                               compiler: ExpressionCompiler,
                               env: BindingEnv) -> Source:
    ref = plan.ref
    degree = plan.degree
    predicate = (compiler.compile_predicate(plan.condition)
                 if plan.condition is not None else None)

    def run() -> Iterator[Row]:
        index = _require_index(plan, database)
        if index.kind != "sorted":
            raise ExecutionError(
                f"{plan.describe()} requires a sorted index, found "
                f"{index.kind!r}")
        database.statistics.record_index_lookup()
        oids = index.range(plan.low, plan.high,
                           include_low=plan.include_low,
                           include_high=plan.include_high)
        yield from run_filter_morsels([sorted(oids)], predicate, ref, degree,
                                      wrap=_bound_worker(env))

    return run


def _parallel_map(plan: ParallelMap, database: Database,
                  compiler: ExpressionCompiler,
                  env: BindingEnv) -> Source:
    expression = compiler.compile(plan.expression)
    source = _build(plan.input, database, compiler, env)
    ref = plan.ref
    degree = plan.degree

    def run() -> Iterator[Row]:
        rows = list(source())
        yield from run_map_morsels(rows, expression, ref, degree,
                                   wrap=_bound_worker(env))

    return run


def _parallel_hash_join(plan: ParallelHashJoin, database: Database,
                        compiler: ExpressionCompiler,
                        env: BindingEnv) -> Source:
    left_key = compiler.compile(plan.left_key)
    right_key = compiler.compile(plan.right_key)
    left_source = _build(plan.left, database, compiler, env)
    right_source = _build(plan.right, database, compiler, env)
    degree = plan.degree

    def run() -> Iterator[Row]:
        wrap = _bound_worker(env)
        right_rows = list(right_source())
        right_keys = run_key_morsels(right_rows, right_key, degree, wrap=wrap)
        left_rows = list(left_source())
        left_keys = run_key_morsels(left_rows, left_key, degree, wrap=wrap)
        yield from merge_hash_join(left_rows, left_keys,
                                   right_rows, right_keys)

    return run


_BUILDERS = {
    ClassScan: _class_scan,
    IndexEqScan: _index_eq_scan,
    IndexRangeScan: _index_range_scan,
    ExpressionSetScan: _expression_set_scan,
    Filter: _filter,
    SetProbeFilter: _set_probe_filter,
    MapEval: _map_eval,
    FlattenEval: _flatten_eval,
    ProjectOp: _project,
    NestedLoopJoin: _nested_loop_join,
    IndexNestedLoopJoin: _index_nested_loop_join,
    HashJoin: _hash_join,
    NaturalMergeJoin: _natural_merge_join,
    UnionOp: _union,
    DiffOp: _diff,
    ParallelScan: _parallel_scan,
    ParallelIndexEqScan: _parallel_index_eq_scan,
    ParallelIndexRangeScan: _parallel_index_range_scan,
    ParallelMap: _parallel_map,
    ParallelHashJoin: _parallel_hash_join,
}
