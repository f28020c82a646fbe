"""Tests for the restricted algebra (Section 6.1): operator validation,
normalization from the general algebra and the restricted interpreter."""

from __future__ import annotations

import pytest

from repro.algebra.expressions import Const
from repro.algebra.normalize import Normalizer, normalize
from repro.algebra.operators import Get, Project, walk_operators
from repro.algebra.restricted import (
    CrossProduct,
    FlatProperty,
    JoinCmp,
    MapClassMethod,
    MapConst,
    MapMethod,
    MapOperator,
    MapProperty,
    SelectCmp,
    is_restricted_operator,
    operand_refs,
)
from repro.errors import AlgebraError
from repro.physical.evaluator import make_hashable
from repro.physical.naive import naive_implementation
from repro.physical.restricted_exec import execute_restricted
from repro.service.prepared import execute_plan
from repro.vql.analyzer import analyze_query
from repro.vql.parser import parse_query
from repro.algebra.translate import translate_query

GET_P = Get("p", "Paragraph")
GET_D = Get("d", "Document")


class TestRestrictedOperatorValidation:
    def test_select_cmp_requires_boolean_op(self):
        with pytest.raises(AlgebraError):
            SelectCmp("p", "+", Const(1), GET_P)

    def test_select_cmp_checks_references(self):
        SelectCmp("p", "==", Const(1), GET_P)
        with pytest.raises(AlgebraError):
            SelectCmp("z", "==", Const(1), GET_P)

    def test_join_cmp_checks_sides(self):
        JoinCmp("p", "==", "d", GET_P, GET_D)
        with pytest.raises(AlgebraError):
            JoinCmp("d", "==", "p", GET_P, GET_D)
        with pytest.raises(AlgebraError):
            JoinCmp("p", "==", "p", GET_P, Get("p", "Document"))

    def test_map_property_checks_refs(self):
        mapped = MapProperty("t", "title", "p", GET_P)
        assert set(mapped.refs()) == {"p", "t"}
        with pytest.raises(AlgebraError):
            MapProperty("p", "title", "p", GET_P)
        with pytest.raises(AlgebraError):
            MapProperty("t", "title", "z", GET_P)

    def test_map_method_checks_operands(self):
        MapMethod("t", "m", "p", (Const(1), "p"), GET_P)
        with pytest.raises(AlgebraError):
            MapMethod("t", "m", "p", ("z",), GET_P)

    def test_cross_product_requires_disjoint(self):
        with pytest.raises(AlgebraError):
            CrossProduct(GET_P, Get("p", "Document"))

    def test_operand_refs_filters_constants(self):
        assert operand_refs(("a", Const(1), "b")) == {"a", "b"}

    def test_is_restricted_operator(self):
        assert is_restricted_operator(SelectCmp("p", "==", Const(1), GET_P))
        assert not is_restricted_operator(GET_P)

    def test_describe_contains_parameters(self):
        assert "map_property<t, title, p>" in MapProperty("t", "title", "p", GET_P).describe()
        assert "select_cmp" in SelectCmp("p", "==", Const(1), GET_P).describe()


class TestNormalizer:
    def _normalized(self, text, schema):
        translation = translate_query(analyze_query(parse_query(text), schema))
        return translation, normalize(translation.plan)

    def test_refs_preserved(self, doc_schema):
        translation, restricted = self._normalized(
            "ACCESS p FROM p IN Paragraph WHERE p.number == 1", doc_schema)
        assert set(restricted.refs()) == set(translation.plan.refs())

    def test_only_restricted_or_shared_operators(self, doc_schema):
        _, restricted = self._normalized(
            "ACCESS p FROM p IN Paragraph "
            "WHERE p->contains_string('x') AND (p->document()).title == 'y'",
            doc_schema)
        from repro.algebra.operators import (
            Diff, ExpressionSource, Get, NaturalJoin, Project, Union)
        allowed_shared = (Get, Project, NaturalJoin, Union, Diff, ExpressionSource)
        for node in walk_operators(restricted):
            assert is_restricted_operator(node) or isinstance(node, allowed_shared), \
                f"{node.describe()} is not a restricted-algebra operator"

    def test_comparison_becomes_select_cmp(self, doc_schema):
        _, restricted = self._normalized(
            "ACCESS p FROM p IN Paragraph WHERE p.number == 1", doc_schema)
        kinds = [type(node).__name__ for node in walk_operators(restricted)]
        assert "SelectCmp" in kinds
        assert "MapProperty" in kinds

    def test_method_call_becomes_map_method(self, doc_schema):
        _, restricted = self._normalized(
            "ACCESS p FROM p IN Paragraph WHERE p->contains_string('x')", doc_schema)
        kinds = [type(node).__name__ for node in walk_operators(restricted)]
        assert "MapMethod" in kinds

    def test_class_method_becomes_map_class_method(self, doc_schema):
        _, restricted = self._normalized(
            "ACCESS p FROM p IN Paragraph "
            "WHERE p IS-IN Document->select_by_index('t').sections.paragraphs",
            doc_schema)
        assert any(isinstance(node, MapClassMethod)
                   for node in walk_operators(restricted))

    def test_equi_join_becomes_join_cmp(self, doc_schema):
        from repro.algebra.expressions import BinaryOp, Var
        from repro.algebra.operators import Join
        join = Join(BinaryOp("==", Var("p"), Var("q")), GET_P,
                    Get("q", "Paragraph"))
        restricted = normalize(join)
        assert any(isinstance(node, JoinCmp) for node in walk_operators(restricted))

    def test_equi_join_with_swapped_sides_mirrors_comparison(self, doc_schema):
        from repro.algebra.expressions import BinaryOp, Var
        from repro.algebra.operators import Join
        join = Join(BinaryOp("<", Var("q"), Var("p")), GET_P,
                    Get("q", "Paragraph"))
        restricted = normalize(join)
        join_cmp = next(node for node in walk_operators(restricted)
                        if isinstance(node, JoinCmp))
        assert (join_cmp.left_ref, join_cmp.op, join_cmp.right_ref) == ("p", ">", "q")

    def test_cartesian_join_becomes_cross_product(self, doc_schema):
        translation = translate_query(analyze_query(parse_query(
            "ACCESS d FROM d IN Document, p IN Paragraph"), doc_schema))
        restricted = normalize(translation.plan)
        assert any(isinstance(node, CrossProduct)
                   for node in walk_operators(restricted))

    def test_fresh_refs_are_unique(self):
        normalizer = Normalizer()
        refs = {normalizer.fresh_ref() for _ in range(100)}
        assert len(refs) == 100

    def test_tuple_constructor_not_supported(self, doc_schema):
        translation = translate_query(analyze_query(parse_query(
            "ACCESS [a: d.title] FROM d IN Document"), doc_schema))
        with pytest.raises(AlgebraError):
            normalize(translation.plan)


class TestRestrictedExecution:
    QUERIES = [
        "ACCESS p FROM p IN Paragraph WHERE p.number == 1",
        "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation')",
        "ACCESS p FROM p IN Paragraph WHERE p.number == 1 AND p->contains_string('Implementation')",
        "ACCESS p FROM p IN Paragraph WHERE NOT p.number == 1",
        "ACCESS p FROM p IN Paragraph WHERE p.number == 1 OR p.number == 2",
        "ACCESS d.title FROM d IN Document",
        "ACCESS d.title FROM d IN Document, p IN d->paragraphs() "
        "WHERE p->contains_string('Implementation')",
        "ACCESS p FROM p IN Paragraph "
        "WHERE (p->document()).title == 'Query Optimization'",
    ]

    @pytest.mark.parametrize("query_text", QUERIES)
    def test_restricted_execution_matches_general(self, doc_database, query_text):
        """Equal expressive power: the normalized plan computes the same
        result as the general plan (Section 6.1)."""
        analyzed = analyze_query(parse_query(query_text), doc_database.schema)
        translation = translate_query(analyzed)
        general_rows = execute_plan(naive_implementation(translation.plan),
                                    doc_database)
        restricted_rows = execute_restricted(normalize(translation.plan),
                                             doc_database)

        def values(rows):
            return {make_hashable(row.get(translation.output_ref)) for row in rows}

        assert values(general_rows) == values(restricted_rows)

    def test_flat_property_direct_execution(self, doc_database):
        plan = Project(("s",), FlatProperty("s", "sections", "d",
                                            Get("d", "Document")))
        rows = execute_restricted(plan, doc_database)
        assert len(rows) == doc_database.extension_size("Section")

    def test_map_operator_identity_and_arithmetic(self, doc_database):
        plan = MapOperator("t", "+", (Const(1), Const(2)),
                           MapConst("c", Const(5), Get("p", "Paragraph")))
        rows = execute_restricted(plan, doc_database)
        assert rows and all(row["t"] == 3 and row["c"] == 5 for row in rows)
