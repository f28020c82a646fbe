"""EXP-8 — Compiled pipelined engine vs the seed interpreter.

The seed executor interpreted physical plans: every operator materialized
its input into a list and ``evaluate()`` re-walked the expression tree per
row.  The production engine (:func:`repro.service.prepared.execute_plan`)
compiles every expression once per plan and streams rows through generator
operators; the timed runs include that compilation.
This experiment executes *identical physical plans* under both engines on
the exp1/exp2/exp5 workloads and reports the wall-clock speedup; the
logical work counters are engine-independent, so any difference is pure
engine overhead.

Expected shape: ≥2× on the scan-and-filter heavy exp2 naive plan (per-row
expression overhead dominates), smaller but consistent wins on plans whose
time is spent inside method implementations (exp5's nested-loop join).

Run standalone (emits a JSON perf record):

    PYTHONPATH=src python benchmarks/bench_exp8_engine.py [--quick] [--json PATH]

or under pytest:

    PYTHONPATH=src python -m pytest benchmarks/bench_exp8_engine.py
"""

from __future__ import annotations

import sys

from conftest import DEFAULT_SIZE, SCALING_SIZES, semantic_session
from repro.bench import best_of as _best_of
from repro.bench import format_table, standalone_main
from repro.physical.interpreter import execute_plan_interpreted
from repro.physical.naive import naive_implementation
from repro.service.prepared import execute_plan
from repro.workloads import motivating_query, same_document_join_query

#: the exp2 acceptance threshold: compiled must be at least this much faster
#: than the seed interpreter on the exp2 naive workload
EXP2_MIN_SPEEDUP = 2.0


def _physical_plan(session, query_text: str, optimize: bool):
    translation = session.translate(query_text)
    if optimize:
        return session.optimizer.optimize(translation.plan).best_plan
    return naive_implementation(translation.plan)


def _measure_case(name: str, n_documents: int, query_text: str,
                  optimize: bool, rounds: int) -> dict:
    session = semantic_session(n_documents)
    database = session.database
    plan = _physical_plan(session, query_text, optimize)

    interpreted_rows = execute_plan_interpreted(plan, database)
    compiled_rows = execute_plan(plan, database)
    assert compiled_rows == interpreted_rows, \
        f"{name}: engines disagree on the result rows"

    interpreted = _best_of(lambda: execute_plan_interpreted(plan, database),
                           rounds)
    compiled = _best_of(lambda: execute_plan(plan, database), rounds)
    return {
        "case": name,
        "n_documents": n_documents,
        "optimized_plan": optimize,
        "rows": len(compiled_rows),
        "interpreted_ms": round(interpreted * 1000, 3),
        "compiled_ms": round(compiled * 1000, 3),
        "speedup": round(interpreted / compiled, 2) if compiled > 0 else float("inf"),
    }


def run_cases(quick: bool = False) -> list[dict]:
    """Measure every workload case and return the records."""
    rounds = 3 if quick else 7
    exp2_size = SCALING_SIZES[1] if quick else SCALING_SIZES[-1]
    join_size = 4 if quick else 8
    motivating = motivating_query().text
    join_query = same_document_join_query().text
    return [
        _measure_case("exp1-motivating-naive", DEFAULT_SIZE, motivating,
                      optimize=False, rounds=rounds),
        _measure_case("exp1-motivating-optimized", DEFAULT_SIZE, motivating,
                      optimize=True, rounds=rounds),
        _measure_case("exp2-speedup-naive", exp2_size, motivating,
                      optimize=False, rounds=rounds),
        _measure_case("exp2-speedup-optimized", exp2_size, motivating,
                      optimize=True, rounds=rounds),
        _measure_case("exp5-join-naive", join_size, join_query,
                      optimize=False, rounds=max(rounds // 2, 2)),
        _measure_case("exp5-join-optimized", join_size, join_query,
                      optimize=True, rounds=rounds),
    ]


def summarize(cases: list[dict]) -> dict:
    exp2 = next(case for case in cases if case["case"] == "exp2-speedup-naive")
    return {
        "exp2_speedup": exp2["speedup"],
        "exp2_speedup_target": EXP2_MIN_SPEEDUP,
    }


def check(record: dict) -> str | None:
    if record["exp2_speedup"] < EXP2_MIN_SPEEDUP:
        return (f"exp2 speedup {record['exp2_speedup']}x is below the "
                f"{EXP2_MIN_SPEEDUP}x target")
    return None


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_exp8_compiled_engine_at_least_2x_on_exp2(benchmark):
    """Acceptance: ≥2× wall-clock on the exp2 speedup workload."""
    session = semantic_session(SCALING_SIZES[-1])
    database = session.database
    plan = _physical_plan(session, motivating_query().text, optimize=False)

    assert execute_plan(plan, database) == execute_plan_interpreted(plan, database)
    interpreted = _best_of(lambda: execute_plan_interpreted(plan, database), 7)
    compiled = benchmark.pedantic(lambda: execute_plan(plan, database),
                                  rounds=7, iterations=1)
    compiled_best = _best_of(lambda: execute_plan(plan, database), 7)
    del compiled  # pedantic returns the last call's result, timing is separate

    speedup = interpreted / compiled_best
    print(f"\nEXP-8 exp2 naive plan: interpreted={interpreted * 1000:.2f}ms "
          f"compiled={compiled_best * 1000:.2f}ms speedup={speedup:.2f}x")
    assert speedup >= EXP2_MIN_SPEEDUP


def test_exp8_engines_agree_on_all_workload_cases(benchmark):
    cases = run_cases(quick=True)  # row equality is asserted per case
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print("\nEXP-8 engine comparison (quick):")
    print(format_table(cases))
    assert all(case["speedup"] > 0 for case in cases)


# ----------------------------------------------------------------------
# standalone CLI
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    return standalone_main("exp8-engine", run_cases,
                           description=__doc__.splitlines()[0],
                           summarize=summarize, check=check, argv=argv)


if __name__ == "__main__":
    sys.exit(main())
