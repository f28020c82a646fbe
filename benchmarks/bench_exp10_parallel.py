"""EXP-10 — Partitioned parallel execution of method-bearing queries.

The paper's premise is that method-bearing queries are dominated by
expensive method evaluation, which makes them the ideal candidate for
intra-query parallelism: independent partitions/morsels of a class
extension evaluate methods concurrently with near-linear speedup.

This experiment measures that on the EXP-5 method-join workload
(``p->sameDocument(q)``), with *simulated external-engine latency* on the
``document()`` method — the regime where the method's work is a blocking
engine round-trip rather than inline CPU, so worker threads genuinely
overlap it.  The E1 path equivalence is excluded: when the optimizer can
rewrite ``p->document()`` into the attribute path ``p.section.document``
it removes the method calls entirely (the semantically optimal plan needs
no parallelism); EXP-10 exercises the complementary case of a method that
cannot be rewritten away.

Compared engines, on identical data:

* sequential — the compiled engine executing the degree-1 plan
  (``hash_join`` with per-row method key evaluation);
* parallel — the degree-4 plan (``parallel_hash_join``), morsel-driven
  key evaluation on worker threads, ordered merge.

Both are prepared once and timed execution-only; both are differentially
checked against the interpreter oracle before timing.  A second case runs
a method-bearing *selection* (``contains_string``) through
``parallel_scan`` over the hash-partitioned extension.

Run standalone (emits a JSON perf record):

    PYTHONPATH=src python benchmarks/bench_exp10_parallel.py \
        [--quick] [--json PATH] [--check] [--seed N]
"""

from __future__ import annotations

import sys
from collections import Counter

from conftest import bench_seed

from repro.bench import best_of, format_table, standalone_main
from repro.physical.evaluator import make_hashable
from repro.physical.interpreter import execute_plan_interpreted
from repro.physical.plans import PARALLEL_OPERATORS, uses_parallelism, walk_physical
from repro.service.prepared import execute_plan, prepare_plan
from repro.session import Session
from repro.workloads import (
    contains_only_query,
    document_knowledge,
    generate_document_database,
    same_document_join_query,
    simulate_method_latency,
)

#: workers used by the parallel plans
WORKERS = 4
#: simulated external-engine round-trip per method call (seconds); sleeps
#: release the GIL, so this is parallelizable work even on one core
METHOD_LATENCY = 0.0008
#: timing rounds (best-of)
ROUNDS = 3

JOIN_QUERY = same_document_join_query().text
SCAN_QUERY = contains_only_query().text

#: knowledge ablation: keep J1 (sameDocument ⇔ document()==document()) but
#: drop the expression equivalences (E1) that would eliminate the method
JOIN_EXCLUDE = ("semantic:expression",)
#: for the scan case additionally drop E5, which would turn the selection
#: into one bulk retrieve_by_string call
SCAN_EXCLUDE = ("semantic",)


def _latency_database(n_documents: int):
    database = generate_document_database(n_documents=n_documents,
                                          seed=bench_seed())
    simulate_method_latency(database.schema, {
        "document": METHOD_LATENCY,
        "contains_string": METHOD_LATENCY,
        "sameDocument": METHOD_LATENCY,
    })
    return database


def _measure(database, query: str, exclude_tags, label: str) -> dict:
    knowledge = document_knowledge(database.schema)
    sequential = Session(database, knowledge=knowledge,
                         exclude_tags=exclude_tags, parallelism=1)
    parallel = Session(database, knowledge=knowledge,
                       exclude_tags=exclude_tags, parallelism=WORKERS)
    seq_plan = sequential.optimize(query).best_plan
    par_plan = parallel.optimize(query).best_plan

    # Differential check against the interpreter oracle before timing.
    oracle = Counter(make_hashable(row)
                     for row in execute_plan_interpreted(par_plan, database))
    seq_rows = execute_plan(seq_plan, database)
    par_rows = execute_plan(par_plan, database)
    assert Counter(make_hashable(row) for row in par_rows) == oracle
    assert Counter(make_hashable(row) for row in seq_rows) == oracle

    seq_executable = prepare_plan(seq_plan, database)
    par_executable = prepare_plan(par_plan, database)
    seq_seconds = best_of(seq_executable.run, ROUNDS)
    par_seconds = best_of(par_executable.run, ROUNDS)

    return {
        "case": label,
        "rows": len(par_rows),
        "workers": WORKERS,
        "sequential_seconds": round(seq_seconds, 4),
        "parallel_seconds": round(par_seconds, 4),
        "speedup": round(seq_seconds / par_seconds, 2) if par_seconds else 0.0,
        "parallel_operators": [node.describe()
                               for node in walk_physical(par_plan)
                               if isinstance(node, PARALLEL_OPERATORS)],
        "uses_parallel_operator": uses_parallelism(par_plan),
        "sequential_is_sequential": not uses_parallelism(seq_plan),
    }


def run_cases(quick: bool = False) -> list[dict]:
    sizes = (6,) if quick else (8, 16)
    cases = []
    for n_documents in sizes:
        database = _latency_database(n_documents)
        cases.append(_measure(database, JOIN_QUERY, JOIN_EXCLUDE,
                              f"method-join[n={n_documents}]"))
        cases.append(_measure(database, SCAN_QUERY, SCAN_EXCLUDE,
                              f"method-scan[n={n_documents}]"))
    return cases


def summarize(cases: list[dict]) -> dict:
    join_speedups = [case["speedup"] for case in cases
                     if case["case"].startswith("method-join")]
    return {
        "workers": WORKERS,
        "method_latency_seconds": METHOD_LATENCY,
        "min_join_speedup": min(join_speedups) if join_speedups else 0.0,
    }


def check(record: dict) -> str | None:
    for case in record["cases"]:
        if not case["uses_parallel_operator"]:
            return f"{case['case']}: optimizer did not choose a parallel plan"
        if not case["sequential_is_sequential"]:
            return f"{case['case']}: degree-1 plan contains parallel operators"
        if case["case"].startswith("method-join") and case["speedup"] < 2.5:
            return (f"{case['case']}: join speedup {case['speedup']}x below "
                    f"2.5x at {WORKERS} workers")
        if case["case"].startswith("method-scan") and case["speedup"] < 1.5:
            return (f"{case['case']}: scan speedup {case['speedup']}x below "
                    f"1.5x at {WORKERS} workers")
    return None


def main(argv: list[str] | None = None) -> int:
    return standalone_main("exp10-parallel", run_cases,
                           description=__doc__.splitlines()[0],
                           summarize=summarize, check=check, argv=argv)


if __name__ == "__main__":
    sys.exit(main())


# ----------------------------------------------------------------------
# pytest entry point (smoke: direction only, one small size)
# ----------------------------------------------------------------------
def test_exp10_parallel_speedup(benchmark):
    database = _latency_database(6)
    case = benchmark.pedantic(
        lambda: _measure(database, JOIN_QUERY, JOIN_EXCLUDE, "method-join[n=6]"),
        rounds=1, iterations=1)
    print("\nEXP-10 parallel method join (quick):")
    print(format_table([case], columns=["case", "rows", "workers",
                                        "sequential_seconds",
                                        "parallel_seconds", "speedup"]))
    assert case["uses_parallel_operator"]
    assert case["speedup"] > 1.5
