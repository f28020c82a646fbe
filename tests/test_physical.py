"""Tests for the expression evaluator, the physical operators and the naive
lowering."""

from __future__ import annotations

import pytest

from repro.algebra.expressions import Const, Var
from repro.algebra.operators import Get, Join, Map, Project, Select
from repro.datamodel.oid import OID
from repro.errors import AlgebraError, ExecutionError
from repro.physical.evaluator import evaluate, evaluate_predicate, make_hashable
from repro.physical.naive import naive_implementation
from repro.physical.plans import (
    ClassScan,
    DiffOp,
    ExpressionSetScan,
    Filter,
    FlattenEval,
    HashJoin,
    MapEval,
    NaturalMergeJoin,
    NestedLoopJoin,
    ProjectOp,
    SetProbeFilter,
    UnionOp,
    walk_physical,
)
from repro.service.prepared import execute_plan
from repro.vql.parser import parse_expression
from repro.workloads import TARGET_TITLE


class TestEvaluator:
    def test_constants_and_variables(self, doc_database):
        assert evaluate(Const(5), {}, doc_database) == 5
        assert evaluate(Var("x"), {"x": 7}, doc_database) == 7
        with pytest.raises(ExecutionError):
            evaluate(Var("missing"), {}, doc_database)

    def test_property_access_on_object(self, doc_database):
        paragraph = doc_database.extension("Paragraph")[0]
        row = {"p": paragraph}
        assert evaluate(parse_expression("p.number"), row, doc_database) == \
            doc_database.value(paragraph, "number")

    def test_property_access_lifted_over_set(self, doc_database):
        document = doc_database.extension("Document")[0]
        row = {"d": document}
        sections = evaluate(parse_expression("d.sections"), row, doc_database)
        paragraphs = evaluate(parse_expression("d.sections.paragraphs"),
                              row, doc_database)
        assert len(paragraphs) == 5 * len(sections)

    def test_property_access_on_none_is_none(self, doc_database):
        assert evaluate(parse_expression("x.title"), {"x": None}, doc_database) is None

    def test_property_access_on_scalar_raises(self, doc_database):
        with pytest.raises(ExecutionError):
            evaluate(parse_expression("x.title"), {"x": 42}, doc_database)

    def test_method_call(self, doc_database):
        paragraph = doc_database.extension("Paragraph")[0]
        document = evaluate(parse_expression("p->document()"),
                            {"p": paragraph}, doc_database)
        assert document.class_name == "Document"

    def test_method_call_lifted_over_set(self, doc_database):
        document = doc_database.extension("Document")[0]
        paragraphs = doc_database.invoke(document, "paragraphs")
        documents = evaluate(parse_expression("p->document()"),
                             {"p": paragraphs}, doc_database)
        assert documents == {document}

    def test_class_method_call(self, doc_database):
        from repro.vql.analyzer import resolve_class_references
        expr = resolve_class_references(
            parse_expression(f"Document->select_by_index('{TARGET_TITLE}')"),
            doc_database.schema, set())
        result = evaluate(expr, {}, doc_database)
        assert len(result) == 1

    def test_class_extent(self, doc_database):
        from repro.algebra.expressions import ClassExtent
        extent = evaluate(ClassExtent("Document"), {}, doc_database)
        assert len(extent) == doc_database.extension_size("Document")

    @pytest.mark.parametrize("text,row,expected", [
        ("1 + 2 * 3", {}, 7),
        ("10 / 4", {}, 2.5),
        ("x - 1", {"x": 3}, 2),
        ("-x", {"x": 3}, -3),
        ("1 == 1", {}, True),
        ("1 != 1", {}, False),
        ("2 < 3", {}, True),
        ("3 <= 3", {}, True),
        ("4 > 5", {}, False),
        ("'a' == 'a'", {}, True),
        ("TRUE AND FALSE", {}, False),
        ("TRUE OR FALSE", {}, True),
        ("NOT TRUE", {}, False),
    ])
    def test_scalar_operations(self, doc_database, text, row, expected):
        assert evaluate(parse_expression(text), row, doc_database) == expected

    def test_comparison_with_none_is_false(self, doc_database):
        assert evaluate(parse_expression("x < 3"), {"x": None}, doc_database) is False

    def test_is_in_membership(self, doc_database):
        assert evaluate(parse_expression("x IS-IN s"),
                        {"x": 1, "s": {1, 2}}, doc_database)
        assert not evaluate(parse_expression("x IS-IN s"),
                            {"x": 5, "s": {1, 2}}, doc_database)
        assert not evaluate(parse_expression("x IS-IN s"),
                            {"x": 5, "s": None}, doc_database)

    def test_is_in_on_non_collection_raises(self, doc_database):
        with pytest.raises(ExecutionError):
            evaluate(parse_expression("x IS-IN s"), {"x": 1, "s": 3}, doc_database)

    def test_is_subset(self, doc_database):
        assert evaluate(parse_expression("a IS-SUBSET b"),
                        {"a": {1}, "b": {1, 2}}, doc_database)
        assert not evaluate(parse_expression("a IS-SUBSET b"),
                            {"a": {3}, "b": {1, 2}}, doc_database)

    def test_set_operators(self, doc_database):
        row = {"a": {1, 2, 3}, "b": {2, 3, 4}}
        assert evaluate(parse_expression("a INTERSECTION b"), row, doc_database) == {2, 3}
        assert evaluate(parse_expression("a UNION b"), row, doc_database) == {1, 2, 3, 4}
        assert evaluate(parse_expression("a DIFFERENCE b"), row, doc_database) == {1}

    def test_tuple_and_set_constructors(self, doc_database):
        value = evaluate(parse_expression("[a: 1, b: x]"), {"x": 2}, doc_database)
        assert value == {"a": 1, "b": 2}
        assert evaluate(parse_expression("{1, 2}"), {}, doc_database) == {1, 2}

    def test_predicate_treats_none_as_false(self, doc_database):
        assert evaluate_predicate(Var("x"), {"x": None}, doc_database) is False

    def test_short_circuit_and(self, doc_database):
        # the right operand would fail if evaluated
        expr = parse_expression("FALSE AND missing.title == 'x'")
        assert evaluate_predicate(expr, {}, doc_database) is False

    def test_make_hashable(self):
        assert make_hashable({"b": [1, {2}], "a": 1}) == \
            (("a", 1), ("b", (1, frozenset({2}))))
        assert isinstance(make_hashable({1, 2}), frozenset)


class TestPhysicalOperators:
    def test_class_scan(self, doc_database):
        rows = execute_plan(ClassScan("p", "Paragraph"), doc_database)
        assert len(rows) == doc_database.extension_size("Paragraph")
        assert all(isinstance(row["p"], OID) for row in rows)

    def test_expression_set_scan(self, doc_database):
        from repro.vql.analyzer import resolve_class_references
        expr = resolve_class_references(
            parse_expression("Paragraph->retrieve_by_string('Implementation')"),
            doc_database.schema, set())
        rows = execute_plan(ExpressionSetScan("p", expr), doc_database)
        assert rows
        assert all(row["p"].class_name == "Paragraph" for row in rows)

    def test_expression_set_scan_requires_reference_free(self):
        with pytest.raises(AlgebraError):
            ExpressionSetScan("p", parse_expression("d.sections"))

    def test_filter(self, doc_database):
        plan = Filter(parse_expression("p.number == 1"), ClassScan("p", "Paragraph"))
        rows = execute_plan(plan, doc_database)
        assert all(doc_database.value(row["p"], "number") == 1 for row in rows)
        assert len(rows) == doc_database.extension_size("Section")

    def test_set_probe_filter(self, doc_database):
        from repro.vql.analyzer import resolve_class_references
        expr = resolve_class_references(
            parse_expression("Paragraph->retrieve_by_string('Implementation')"),
            doc_database.schema, set())
        probe = SetProbeFilter("p", expr, ClassScan("p", "Paragraph"))
        filtered = execute_plan(probe, doc_database)
        direct = execute_plan(ExpressionSetScan("p", expr), doc_database)
        assert {row["p"] for row in filtered} == {row["p"] for row in direct}

    def test_set_probe_filter_validates_ref(self):
        with pytest.raises(AlgebraError):
            SetProbeFilter("q", Const((1, 2)), ClassScan("p", "Paragraph"))

    def test_nested_loop_join_and_hash_join_agree(self, doc_database):
        nl = NestedLoopJoin(
            parse_expression("p.section == s"),
            ClassScan("p", "Paragraph"), ClassScan("s", "Section"))
        hj = HashJoin(parse_expression("p.section"), parse_expression("s"),
                      ClassScan("p", "Paragraph"), ClassScan("s", "Section"))
        nl_rows = execute_plan(nl, doc_database)
        hj_rows = execute_plan(hj, doc_database)
        key = lambda row: (row["p"], row["s"])
        assert sorted(map(key, nl_rows)) == sorted(map(key, hj_rows))
        assert len(nl_rows) == doc_database.extension_size("Paragraph")

    def test_natural_merge_join(self, doc_database):
        left = Filter(parse_expression("p.number == 1"), ClassScan("p", "Paragraph"))
        right = Filter(parse_expression("p.number == 1"), ClassScan("p", "Paragraph"))
        rows = execute_plan(NaturalMergeJoin(left, right), doc_database)
        assert len(rows) == doc_database.extension_size("Section")

    def test_natural_merge_join_without_common_refs_is_product(self, doc_database):
        rows = execute_plan(
            NaturalMergeJoin(ClassScan("d", "Document"), ClassScan("s", "Section")),
            doc_database)
        assert len(rows) == (doc_database.extension_size("Document")
                             * doc_database.extension_size("Section"))

    def test_map_eval_and_project(self, doc_database):
        plan = ProjectOp(("t",), MapEval("t", parse_expression("d.title"),
                                         ClassScan("d", "Document")))
        rows = execute_plan(plan, doc_database)
        titles = {row["t"] for row in rows}
        assert TARGET_TITLE in titles

    def test_flatten_eval(self, doc_database):
        plan = FlattenEval("s", parse_expression("d.sections"),
                           ClassScan("d", "Document"))
        rows = execute_plan(plan, doc_database)
        assert len(rows) == doc_database.extension_size("Section")
        assert all("d" in row and "s" in row for row in rows)

    def test_flatten_eval_scalar_value_is_singleton(self, doc_database):
        plan = FlattenEval("doc", parse_expression("s.document"),
                           ClassScan("s", "Section"))
        rows = execute_plan(plan, doc_database)
        assert len(rows) == doc_database.extension_size("Section")

    def test_project_deduplicates(self, doc_database):
        plan = ProjectOp(("n",), MapEval("n", parse_expression("p.number"),
                                         ClassScan("p", "Paragraph")))
        rows = execute_plan(plan, doc_database)
        assert len(rows) == 5  # paragraph numbers are 1..5

    def test_union_and_diff(self, doc_database):
        ones = Filter(parse_expression("p.number == 1"), ClassScan("p", "Paragraph"))
        twos = Filter(parse_expression("p.number == 2"), ClassScan("p", "Paragraph"))
        all_paragraphs = ClassScan("p", "Paragraph")
        union_rows = execute_plan(UnionOp(ones, twos), doc_database)
        assert len(union_rows) == 2 * doc_database.extension_size("Section")
        diff_rows = execute_plan(DiffOp(all_paragraphs, ones), doc_database)
        assert len(diff_rows) == (doc_database.extension_size("Paragraph")
                                  - doc_database.extension_size("Section"))

    def test_union_is_idempotent(self, doc_database):
        ones = Filter(parse_expression("p.number == 1"), ClassScan("p", "Paragraph"))
        rows = execute_plan(UnionOp(ones, ones), doc_database)
        assert len(rows) == doc_database.extension_size("Section")

    def test_walk_physical(self):
        plan = ProjectOp(("p",), Filter(Const(True), ClassScan("p", "Paragraph")))
        assert [type(node).__name__ for node in walk_physical(plan)] == \
            ["ProjectOp", "Filter", "ClassScan"]


class TestNaiveLowering:
    def test_each_logical_operator_maps_to_its_default(self, doc_schema):
        logical = Project(("p",), Select(
            parse_expression("p.number == 1"),
            Join(Const(True), Get("p", "Paragraph"), Get("d", "Document"))))
        physical = naive_implementation(logical)
        names = [type(node).__name__ for node in walk_physical(physical)]
        assert names == ["ProjectOp", "Filter", "NestedLoopJoin",
                         "ClassScan", "ClassScan"]

    def test_map_and_flat_lowering(self, doc_schema):
        logical = Map("t", parse_expression("d.title"), Get("d", "Document"))
        assert isinstance(naive_implementation(logical), MapEval)

    def test_naive_execution_matches_optimized(self, doc_session):
        query = ("ACCESS p FROM p IN Paragraph "
                 "WHERE (p->document()).title == 'Query Optimization'")
        naive = doc_session.execute_naive(query)
        optimized = doc_session.execute(query)
        assert naive.value_set() == optimized.value_set()
