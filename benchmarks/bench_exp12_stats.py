"""EXP-12 — statistics-driven cost estimation: ANALYZE beats flat defaults.

The paper's premise is that cost-*based* optimization needs real cost
inputs.  This experiment builds a deliberately skewed database — 90% of
``Reading`` objects share one ``category`` value while a ``score`` range
predicate matches ~1% — and plans::

    ACCESS r FROM r IN Reading
    WHERE r.category == 'common' AND r.score >= <threshold>

twice.  Without statistics the cost model assumes uniform keys, so the
hash-index lookup on ``category`` looks cheap (average bucket = 10% of the
extension) and the optimizer picks ``index_eq_scan`` — which actually emits
90% of the rows.  After ``ANALYZE``, the most-common-value statistics price
that lookup honestly and the equi-depth histogram prices the ``score``
range at ~1%, flipping the plan to ``index_range_scan`` with a residual
category filter.

Acceptance:

* the two models choose *different* access paths (eq-scan vs range-scan);
* the histogram-driven plan is at least ``MIN_SPEEDUP``× faster wall-clock
  and both plans return identical result sets (differential check);
* after ANALYZE every per-operator estimate of the chosen plan is within
  ``MAX_ESTIMATE_RATIO``× of the measured actual rows (EXPLAIN ANALYZE as
  a sanity oracle).

Run standalone (emits a JSON perf record):

    PYTHONPATH=src python benchmarks/bench_exp12_stats.py [--quick] [--json PATH]

or under pytest:

    PYTHONPATH=src python -m pytest benchmarks/bench_exp12_stats.py
"""

from __future__ import annotations

import random
import sys

from conftest import bench_seed
from repro import open_session
from repro.bench import best_of, format_table, standalone_main
from repro.datamodel.database import Database
from repro.datamodel.schema import ClassDef, PropertyDef, Schema
from repro.datamodel.types import INT, STRING
from repro.physical.profile import PlanProfile, estimated_vs_actual
from repro.service.prepared import execute_plan

#: the histogram-driven plan must run at least this many times faster
MIN_SPEEDUP = 2.0

#: per-operator |estimate/actual| misestimation bound after ANALYZE
MAX_ESTIMATE_RATIO = 10.0

#: fraction of readings sharing the dominant category value
COMMON_FRACTION = 0.9

QUERY = ("ACCESS r FROM r IN Reading "
         "WHERE r.category == 'common' AND r.score >= {threshold}")


def _skewed_database(n_readings: int, seed: int) -> Database:
    """A Reading(category, score) extension with heavy category skew."""
    schema = Schema("skewed-readings")
    reading = ClassDef(name="Reading")
    reading.add_property(PropertyDef("category", STRING))
    reading.add_property(PropertyDef("score", INT))
    reading.add_property(PropertyDef("payload", STRING))
    schema.add_class(reading)

    database = Database(schema, name=f"readings[{n_readings}]")
    rng = random.Random(seed)
    rows = []
    for i in range(n_readings):
        category = ("common" if rng.random() < COMMON_FRACTION
                    else f"rare{rng.randrange(9)}")
        rows.append({"category": category,
                     "score": rng.randrange(10_000),
                     "payload": f"reading {i}"})
    database.create_many("Reading", rows)
    database.create_hash_index("Reading", "category")
    database.create_sorted_index("Reading", "score")
    return database


def _plan_leaf(plan) -> str:
    """The name of the access-path leaf of a (linear) physical plan."""
    node = plan
    while node.inputs():
        node = node.inputs()[0]
    return node.name


def run_cases(quick: bool = False) -> list[dict]:
    n_readings = 5_000 if quick else 20_000
    rounds = 3 if quick else 5
    threshold = 9_900  # matches ~1% of scores
    database = _skewed_database(n_readings, bench_seed())
    session = open_session(database)
    query = QUERY.format(threshold=threshold)

    # Plan once per model: flat defaults first, ANALYZE-driven second.  The
    # physical plans are then executed directly so the comparison isolates
    # execution cost (optimization time is reported separately by EXP-7).
    flat = session.optimize(query)
    database.analyze()
    informed = session.optimize(query)

    flat_rows = execute_plan(flat.best_plan, database)
    informed_rows = execute_plan(informed.best_plan, database)
    assert {row["r"] for row in flat_rows} == \
        {row["r"] for row in informed_rows}, \
        "flat and histogram-driven plans disagree on the result set"

    flat_seconds = best_of(lambda: execute_plan(flat.best_plan, database),
                           rounds)
    informed_seconds = best_of(
        lambda: execute_plan(informed.best_plan, database), rounds)

    # EXPLAIN ANALYZE oracle: with fresh statistics, per-operator estimates
    # must stay within a sane factor of the measured cardinalities.
    profile = PlanProfile()
    execute_plan(informed.best_plan, database, profile=profile)
    comparisons = estimated_vs_actual(informed.best_plan, profile,
                                      session.optimizer.cost_model)
    worst_ratio = max(record["ratio"] for record in comparisons)

    return [
        {"case": "flat-defaults", "readings": n_readings,
         "access_path": _plan_leaf(flat.best_plan),
         "rows": len(flat_rows),
         "estimated_cost": round(flat.best_cost.cost, 1),
         "seconds": round(flat_seconds, 5)},
        {"case": "histogram-driven", "readings": n_readings,
         "access_path": _plan_leaf(informed.best_plan),
         "rows": len(informed_rows),
         "estimated_cost": round(informed.best_cost.cost, 1),
         "seconds": round(informed_seconds, 5)},
        {"case": "estimate-sanity",
         "operators": len(comparisons),
         "worst_estimate_ratio": round(worst_ratio, 2)},
    ]


def summarize(cases: list[dict]) -> dict:
    by_case = {case["case"]: case for case in cases}
    flat = by_case["flat-defaults"]
    informed = by_case["histogram-driven"]
    return {
        "speedup": round(flat["seconds"] / max(informed["seconds"], 1e-9), 2),
        "speedup_target": MIN_SPEEDUP,
        "flat_access_path": flat["access_path"],
        "informed_access_path": informed["access_path"],
        "plans_differ": flat["access_path"] != informed["access_path"],
        "worst_estimate_ratio": by_case["estimate-sanity"]
        ["worst_estimate_ratio"],
        "estimate_ratio_bound": MAX_ESTIMATE_RATIO,
    }


def check(record: dict) -> str | None:
    if not record["plans_differ"]:
        return ("flat and histogram-driven optimization chose the same "
                f"access path ({record['flat_access_path']})")
    if record["informed_access_path"] != "index_range_scan":
        return ("histogram-driven optimization did not pick the range scan "
                f"(got {record['informed_access_path']})")
    if record["speedup"] < MIN_SPEEDUP:
        return (f"histogram-driven speedup {record['speedup']}x is below "
                f"the {MIN_SPEEDUP}x target")
    if record["worst_estimate_ratio"] > MAX_ESTIMATE_RATIO:
        return (f"worst per-operator estimate ratio "
                f"{record['worst_estimate_ratio']}x exceeds the "
                f"{MAX_ESTIMATE_RATIO}x sanity bound")
    return None


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_exp12_histograms_flip_the_plan_and_win(benchmark):
    """Acceptance: different plan, >= MIN_SPEEDUP wall-clock, same rows."""
    cases = run_cases(quick=True)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    summary = summarize(cases)
    print("\nEXP-12 statistics-driven optimization (quick):")
    print(format_table(cases))
    print(f"speedup: {summary['speedup']}x "
          f"({summary['flat_access_path']} -> "
          f"{summary['informed_access_path']})")
    assert summary["plans_differ"]
    assert summary["informed_access_path"] == "index_range_scan"
    assert summary["speedup"] >= MIN_SPEEDUP


def test_exp12_estimates_track_actuals_after_analyze(benchmark):
    cases = run_cases(quick=True)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    summary = summarize(cases)
    assert summary["worst_estimate_ratio"] <= MAX_ESTIMATE_RATIO


# ----------------------------------------------------------------------
# standalone CLI
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    return standalone_main(
        "exp12-stats", run_cases,
        description=__doc__.splitlines()[0],
        summarize=summarize, check=check, argv=argv)


if __name__ == "__main__":
    sys.exit(main())
