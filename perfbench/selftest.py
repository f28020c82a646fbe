"""Self-test of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 perfbench/selftest.py

It checks, on tiny databases and short runs:

* ``BENCHMARK.json`` keeps to its format rules and names exactly
  the metrics the runner computes, each with a layer mapping;
* every workload, untraced and traced, finishes correct and prints every
  declared metric by name with its unit, in the report and in the result;
* the exact counts of one seed repeat identically in a second process;
* a deliberately corrupted expected result is caught as a failed
  operation (exit status 1, ``"correct": false``), not timed as a success;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  runner exits non-zero without printing a result.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SECONDS = "2"

failures: list[str] = []


def check(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        sys.stdout.write(f"FAIL {message}\n")


def run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)
    return done.returncode, done.stdout.splitlines()


def result_of(lines: list[str]) -> dict:
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {}


def check_spec() -> None:
    sys.path.insert(0, str(HERE))
    from run import MOVES
    check(set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(SPEC["paths"] == ["perfbench"], "paths")
    check(isinstance(SPEC["run_seconds"], int)
          and 1 <= SPEC["run_seconds"] <= 60, "run_seconds")
    check(2 <= len(WORKLOADS) <= 8, "workload count")
    names = []
    for workload in SPEC["workloads"]:
        check(set(workload) == {"name", "why"}, f"workload keys {workload}")
        check(len(workload["why"]) <= 200 and "\n" not in workload["why"],
              f"why of {workload['name']}")
        names.append(workload["name"])
    bounds = {}
    for metric in SPEC["end_to_end"]:
        check(set(metric) == {"name", "unit", "better", "bound"},
              f"keys of {metric['name']}")
        check(0 < metric["bound"] <= 0.25, f"bound of {metric['name']}")
        bounds[metric["name"]] = metric["bound"]
    for metric in SPEC["per_layer"]:
        check(set(metric) == {"name", "unit", "better"},
              f"keys of {metric['name']}")
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        names.append(metric["name"])
        check(bool(NAME.match(metric["name"])), f"name {metric['name']}")
        check(bool(UNIT.match(metric["unit"])), f"unit of {metric['name']}")
        check(metric["better"] in ("higher", "lower"),
              f"better of {metric['name']}")
    check(len(names) == len(set(names)), "names are used once")
    check(bounds.get("setup_s") == max(bounds.values()),
          "setup_s has the largest bound")
    check(set(MOVES) == {metric["name"] for metric in SPEC["per_layer"]},
          "every per-layer metric says what it should move")


def check_workload(workload: str) -> None:
    exact = {}
    for trace in ("0", "1"):
        section = "per_layer" if trace == "1" else "end_to_end"
        code, lines = run("--workload", workload, "--seed", "7",
                          "--seconds", SECONDS, "--trace", trace, "--tiny")
        result = result_of(lines)
        label = f"{workload} trace={trace}"
        check(code == 0 and result.get("correct") is True
              and result.get("failed") == 0, f"{label} runs correct")
        check(set(result) == {"correct", "attempted", "failed", "metrics"},
              f"{label} result keys")
        metrics = result.get("metrics", {})
        report = "\n".join(lines[:-1])
        for metric in SPEC[section]:
            name, unit = metric["name"], metric["unit"]
            value = metrics.get(name, {}).get("value")
            check(metrics.get(name, {}).get("unit") == unit
                  and isinstance(value, (int, float)) and math.isfinite(value),
                  f"{label} result carries {name} in {unit}")
            check(re.search(rf"\b{re.escape(name)}\s+\S+\s+{re.escape(unit)}\b",
                            report) is not None,
                  f"{label} report prints {name} with {unit}")
        if trace == "1":
            exact = {name: metrics[name]["value"] for name in metrics
                     if name.endswith(("calls_per_op", "reads_per_op",
                                       "cost_units_per_op", "rows_per_op",
                                       "plans_explored_per_miss",
                                       "bytes_per_record"))}
    # a second process, same seed: the exact counts must not move
    _, lines = run("--workload", workload, "--seed", "7", "--seconds",
                   SECONDS, "--trace", "1", "--tiny")
    again = result_of(lines).get("metrics", {})
    check(bool(exact) and all(again.get(name, {}).get("value") == value
                              for name, value in exact.items()),
          f"{workload} exact counts repeat across processes")
    code, lines = run("--workload", workload, "--seed", "7", "--seconds",
                      SECONDS, "--trace", "0", "--tiny", "--inject-fault")
    result = result_of(lines)
    check(code == 1 and result.get("correct") is False
          and result.get("failed", 0) >= 1,
          f"{workload} corrupted expectation is caught as an error")


def check_without_program() -> None:
    bare = ROOT / ".perfbench" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, lines = run("--workload", WORKLOADS[0], "--seed", "1",
                          "--seconds", "1", "--trace", "0", cwd=bare)
        check(code != 0 and not result_of(lines),
              "without the program the runner fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_spec()
    for workload in WORKLOADS:
        check_workload(workload)
    check_without_program()
    sys.stdout.write(f"selftest: {len(failures)} failure(s)\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
