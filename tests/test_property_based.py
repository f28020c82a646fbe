"""Property-based tests (hypothesis) on the core data structures and
invariants: expression manipulation, pattern matching, index structures,
the restricted-algebra normalizer and the optimizer's result preservation.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.algebra.expressions import (
    BinaryOp,
    Const,
    PropertyAccess,
    UnaryOp,
    Var,
    conjuncts,
    free_vars,
    make_conjunction,
    rename_vars,
    substitute,
    walk,
)
from repro.algebra.normalize import normalize
from repro.algebra.operators import Diff, Get, Map, Project, Select, Union
from repro.datamodel.indexes import HashIndex, SortedIndex
from repro.datamodel.ir import InvertedTextIndex, tokenize
from repro.datamodel.oid import OID
from repro.optimizer.patterns import instantiate, match_expression, pattern_from_template
from repro.physical.evaluator import evaluate, make_hashable
from repro.physical.interpreter import execute_plan_interpreted
from repro.physical.naive import naive_implementation
from repro.physical.restricted_exec import execute_restricted
from repro.service.prepared import execute_plan
from repro.session import Session
from repro.vql.parser import parse_expression
from repro.workloads import document_knowledge, generate_document_database

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
variable_names = st.sampled_from(["p", "q", "d", "s", "x"])
property_names = st.sampled_from(["number", "title", "section", "content"])
scalar_consts = st.one_of(st.integers(-100, 100), st.booleans(),
                          st.sampled_from(["a", "b", "Implementation"]))


def leaf_expressions():
    return st.one_of(variable_names.map(Var), scalar_consts.map(Const))


def expressions(max_depth: int = 3):
    return st.recursive(
        leaf_expressions(),
        lambda children: st.one_of(
            st.tuples(children, property_names).map(
                lambda pair: PropertyAccess(pair[0], pair[1])),
            st.tuples(st.sampled_from(["==", "!=", "<", "AND", "OR", "+"]),
                      children, children).map(
                lambda triple: BinaryOp(triple[0], triple[1], triple[2])),
            children.map(lambda child: UnaryOp("NOT", child)),
        ),
        max_leaves=8)


comparison_values = st.integers(0, 5)


def boolean_conditions():
    """Conditions over the references n1/n2 holding small integers."""
    atoms = st.tuples(st.sampled_from(["n1", "n2"]),
                      st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
                      comparison_values).map(
        lambda triple: BinaryOp(triple[1], Var(triple[0]), Const(triple[2])))
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            st.tuples(children, children).map(
                lambda pair: BinaryOp("AND", pair[0], pair[1])),
            st.tuples(children, children).map(
                lambda pair: BinaryOp("OR", pair[0], pair[1])),
            children.map(lambda child: UnaryOp("NOT", child)),
        ),
        max_leaves=6)


# ----------------------------------------------------------------------
# expression helpers
# ----------------------------------------------------------------------
class TestExpressionProperties:
    @given(expressions())
    def test_walk_contains_the_expression_itself(self, expr):
        assert expr in list(walk(expr))

    @given(expressions())
    def test_structural_equality_is_reflexive_and_hash_consistent(self, expr):
        assert expr == expr
        assert hash(expr) == hash(expr)

    @given(expressions())
    def test_parse_of_str_round_trips(self, expr):
        assert parse_expression(str(expr)) == expr

    @given(expressions())
    def test_identity_substitution_changes_nothing(self, expr):
        mapping = {name: Var(name) for name in free_vars(expr)}
        assert substitute(expr, mapping) == expr

    @given(expressions())
    def test_substitution_eliminates_the_variable(self, expr):
        result = substitute(expr, {"p": Const(1)})
        assert "p" not in free_vars(result)

    @given(expressions())
    def test_rename_is_invertible(self, expr):
        renamed = rename_vars(expr, {"p": "zz", "q": "yy"})
        restored = rename_vars(renamed, {"zz": "p", "yy": "q"})
        assert restored == expr

    @given(expressions())
    def test_conjunction_round_trip(self, expr):
        parts = conjuncts(expr)
        rebuilt = make_conjunction(parts)
        assert conjuncts(rebuilt) == parts

    @given(expressions())
    def test_pattern_matches_its_own_template(self, expr):
        variables = {name: None for name in free_vars(expr)}
        pattern = pattern_from_template(expr, variables)
        binding = match_expression(pattern, expr)
        assert binding is not None
        assert instantiate(pattern, binding) == expr


# ----------------------------------------------------------------------
# indexes
# ----------------------------------------------------------------------
entries = st.lists(st.tuples(st.integers(0, 20), st.integers(1, 500)),
                   min_size=0, max_size=60)


class TestIndexProperties:
    @given(entries, st.integers(0, 20))
    def test_hash_index_lookup_equals_linear_scan(self, pairs, probe):
        index = HashIndex("C", "k")
        for key, serial in pairs:
            index.insert(key, OID("C", serial))
        expected = {OID("C", serial) for key, serial in pairs if key == probe}
        assert index.lookup(probe) == expected

    @given(entries, st.integers(0, 20), st.integers(0, 20))
    def test_sorted_index_range_equals_linear_scan(self, pairs, low, high):
        low, high = min(low, high), max(low, high)
        index = SortedIndex("C", "k")
        for key, serial in pairs:
            index.insert(key, OID("C", serial))
        expected = {OID("C", serial) for key, serial in pairs if low <= key <= high}
        assert index.range(low, high) == expected

    @given(st.lists(st.text(alphabet="abcde ", min_size=0, max_size=30),
                    min_size=1, max_size=20),
           st.text(alphabet="abcde", min_size=1, max_size=3))
    def test_inverted_index_retrieve_equals_substring_scan(self, contents, needle):
        engine = InvertedTextIndex()
        oids = []
        for serial, content in enumerate(contents, start=1):
            oid = OID("P", serial)
            oids.append((oid, content))
            engine.index_text(oid, content)
        expected = {oid for oid, content in oids
                    if tokenize(needle) and needle.lower() in content.lower()}
        # retrieve() is word-based: it may only be compared to the scan when
        # the needle is a single token (the engine's contract)
        if len(tokenize(needle)) == 1:
            assert engine.retrieve(needle) == expected


# ----------------------------------------------------------------------
# algebra semantics on a shared tiny database
# ----------------------------------------------------------------------
_DB = generate_document_database(n_documents=2, seed=3)
_ROWS = [{"n1": a, "n2": b} for a in range(4) for b in range(4)]


class TestAlgebraSemanticsProperties:
    @given(boolean_conditions())
    @settings(max_examples=60, deadline=None)
    def test_normalized_selection_equals_direct_evaluation(self, condition):
        """For arbitrary boolean conditions over paragraph numbers, the
        restricted (normalized) plan and the general plan select exactly the
        same paragraphs."""
        rewritten = substitute(condition, {"n1": parse_expression("p.number"),
                                           "n2": parse_expression("p.number")})
        plan = Project(("p",), Select(rewritten, Get("p", "Paragraph")))
        general = execute_plan(naive_implementation(plan), _DB)
        restricted = execute_restricted(normalize(plan), _DB)
        assert {make_hashable(row["p"]) for row in general} == \
            {make_hashable(row["p"]) for row in restricted}

    @given(boolean_conditions())
    @settings(max_examples=60, deadline=None)
    def test_evaluator_agrees_with_python_semantics(self, condition):
        """The expression evaluator computes the same truth value as a direct
        Python evaluation of the condition."""

        def python_eval(expr, row):
            if isinstance(expr, Const):
                return expr.value
            if isinstance(expr, Var):
                return row[expr.name]
            if isinstance(expr, UnaryOp):
                return not python_eval(expr.operand, row)
            assert isinstance(expr, BinaryOp)
            left = python_eval(expr.left, row)
            right = python_eval(expr.right, row)
            return {
                "==": left == right, "!=": left != right,
                "<": left < right, "<=": left <= right,
                ">": left > right, ">=": left >= right,
                "AND": bool(left) and bool(right),
                "OR": bool(left) or bool(right),
            }[expr.op]

        for row in _ROWS[:8]:
            assert bool(evaluate(condition, row, _DB)) == bool(python_eval(condition, row))


# ----------------------------------------------------------------------
# differential testing: compiled pipelined engine vs reference interpreter
# ----------------------------------------------------------------------
_SESSION = Session(_DB, knowledge=document_knowledge(_DB.schema))

_PLAN_SHAPES = st.sampled_from(["select", "project", "union", "diff", "map"])


def _paragraph_select(condition):
    rewritten = substitute(condition, {"n1": parse_expression("p.number"),
                                       "n2": parse_expression("p.number")})
    return Select(rewritten, Get("p", "Paragraph"))


class TestCompiledEngineDifferential:
    """The compiled pipelined executor must return exactly the rows of the
    retained reference interpreter on randomized plans."""

    @given(boolean_conditions(), boolean_conditions(), _PLAN_SHAPES)
    @settings(max_examples=60, deadline=None)
    def test_compiled_matches_reference_on_random_plans(self, first, second,
                                                        shape):
        base = _paragraph_select(first)
        other = _paragraph_select(second)
        if shape == "select":
            plan = base
        elif shape == "project":
            plan = Project(("p",), base)
        elif shape == "union":
            plan = Union(base, other)
        elif shape == "diff":
            plan = Diff(base, other)
        else:
            plan = Map("w", parse_expression("p.number + 1"), base)
        physical = naive_implementation(plan)
        compiled = execute_plan(physical, _DB)
        reference = execute_plan_interpreted(physical, _DB)
        # exact equality: same rows, same multiplicities, same order
        assert compiled == reference

    @given(boolean_conditions())
    @settings(max_examples=30, deadline=None)
    def test_compiled_matches_reference_on_optimized_plans(self, condition):
        plan = Project(("p",), _paragraph_select(condition))
        best = _SESSION.optimizer.optimize(plan).best_plan
        assert execute_plan(best, _DB) == execute_plan_interpreted(best, _DB)
