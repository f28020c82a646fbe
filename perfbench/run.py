"""The repository benchmark: one command per workload and seed.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_scan --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced and traced blocks of the same loop and
reports the per-layer metrics (see ``tracing.py``).  The metric names and
units are those of ``BENCHMARK.json``; the report lines before the last
line also name, for each per-layer metric, the end-to-end metric and
workload it is expected to move.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

A run goes through these phases:

1. set-up, three times: generate the database from the seed, load it
   into a durable store, open the connection and warm the caches.  The
   first two databases replay the same fixed window of operations with
   the work counters on; the counts must agree exactly.  The first is
   then closed and its storage directory kept for the recovery
   measurements; the second stays open for the write probe of the
   read-only workloads; the third is measured.
2. the timed closed loop, one client, for ``--seconds``, in ten segments.
   After each segment the run times one recovery of the kept storage
   directory and, for ``paper_scan`` and ``adhoc_plan``, a slice of the
   write probe on the second database.  The host's speed drifts over
   seconds, so these figures are sampled across the whole loop rather
   than in one window after it.
3. checks outside the timed region: results against the reference
   interpreter (``paper_scan``, ``adhoc_plan``; ``oltp_rw`` checks each
   read against its model inside the loop), then every open database is
   closed, recovered and compared with its model and its closed state.

Any wrong result or exception counts as a failed operation; the run then
prints ``"correct": false`` and exits with status 1.  Without the program
source under ``src/`` it exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: scratch space of a run (storage directories, span files), inside the
#: checkout
WORK_DIR = ROOT / ".perfbench"
#: the timed loop runs in this many segments; after each one the run
#: times one recovery and, for a read-only workload, a slice of the write
#: probe, so that those figures sample the same stretch of time as the loop
SEGMENTS = 10

#: environment the program reads, pinned for every run so that a CI
#: matrix or a developer shell cannot change what is measured
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "REPRO_TRACE": "0",
    "REPRO_PARALLEL_DEFAULT": "1",
    "REPRO_DURABILITY": "wal",
    "REPRO_WAL_FSYNC": "interval",
    "REPRO_CHECKPOINT_INTERVAL": "1000",
    "REPRO_SLOW_QUERY_MS": "",
}

#: per-layer metric -> (end-to-end metric it should move, workloads)
MOVES = {
    "vql.analyze_us_per_op": ("read_p50_ms", "adhoc_plan, oltp_rw"),
    "vql.statement_cache_hit_ratio": ("read_p50_ms", "adhoc_plan, oltp_rw"),
    "algebra.translate_us_per_miss": ("throughput_ops_s, read_p50_ms",
                                      "adhoc_plan"),
    "optimizer.optimize_us_per_miss": ("throughput_ops_s, read_p50_ms",
                                       "adhoc_plan"),
    "optimizer.plans_explored_per_miss": ("throughput_ops_s, read_p50_ms",
                                          "adhoc_plan"),
    "physical.compile_us_per_miss": ("throughput_ops_s, read_p50_ms",
                                     "adhoc_plan"),
    "physical.fetch_us_per_op": ("read_p50_ms, throughput_ops_s",
                                 "paper_scan"),
    "physical.rows_per_op": ("read_p50_ms, throughput_ops_s", "paper_scan"),
    "service.open_us_per_op": ("read_p50_ms", "oltp_rw, adhoc_plan"),
    "service.plan_cache_hit_ratio": ("read_p50_ms", "oltp_rw, adhoc_plan"),
    "service.plan_cache_evictions": ("read_p50_ms", "oltp_rw, adhoc_plan"),
    "service.plan_invalidations": ("read_p50_ms", "oltp_rw, adhoc_plan"),
    "datamodel.method_calls_per_op": ("read_p50_ms", "paper_scan"),
    "datamodel.property_reads_per_op": ("read_p50_ms", "paper_scan"),
    "datamodel.external_calls_per_op": ("read_p50_ms", "paper_scan"),
    "datamodel.cost_units_per_op": ("read_p50_ms", "paper_scan"),
    "datamodel.snapshot_us_per_op": ("read_p50_ms", "oltp_rw"),
    "datamodel.commit_scope_us_per_write": ("write_p50_ms", "oltp_rw"),
    "storage.wal_append_us_per_record": ("write_p50_ms", "oltp_rw"),
    "storage.wal_bytes_per_record": ("write_p50_ms", "oltp_rw"),
    "storage.fsyncs_per_1k_commits": ("write_p50_ms", "oltp_rw"),
    "storage.checkpoint_ms": ("write_p99_ms", "oltp_rw"),
    "storage.checkpoints": ("write_p99_ms", "oltp_rw"),
    "storage.recovery_records_per_s": ("recovery_s", "oltp_rw"),
    "telemetry.record_us_per_op": ("read_p50_ms", "oltp_rw"),
    "api.self_us_per_op": ("read_p50_ms, write_p50_ms", "oltp_rw"),
    "unattributed_share": ("-", "all"),
    "trace_overhead": ("-", "all"),
}

#: the exact counts: identical for one seed, asserted by the count window
EXACT = ("cost_units_per_op", "datamodel.method_calls_per_op",
         "datamodel.property_reads_per_op", "datamodel.external_calls_per_op",
         "datamodel.cost_units_per_op", "optimizer.plans_explored_per_miss",
         "storage.wal_bytes_per_record", "physical.rows_per_op")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_scan", "adhoc_plan", "oltp_rw"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny databases (the self-test)")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one expected result (the self-test)")
    return parser.parse_args(argv)


def pin_environment() -> None:
    """Pin the program's environment; re-executes the interpreter once
    when a variable read at start-up (the hash seed) must change."""
    storage_dir = str(WORK_DIR / f"run-{os.getpid()}")
    wanted = dict(PINNED_ENV, REPRO_STORAGE_DIR=storage_dir)
    if any(os.environ.get(key) != value for key, value in wanted.items()):
        os.environ.update(wanted)
        os.execv(sys.executable, [sys.executable, *sys.argv])


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Block:
    """Operations, latencies and counter deltas of the loop segments of
    one kind (untraced or traced)."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.ops = 0
        self.ok = 0
        self.writes = 0
        #: completed operations per second of each segment
        self.rates: list[float] = []
        self.read_latencies: list[float] = []
        self.write_latencies: list[float] = []
        self.delta: dict[str, float] = {}

    def add_delta(self, before: dict, after: dict) -> None:
        for key, value in after.items():
            self.delta[key] = self.delta.get(key, 0.0) + value - before.get(
                key, 0.0)


class Run:
    """One benchmark invocation: set-up, timed loop, checks, metrics."""

    def __init__(self, args, work_dir: Path):
        from workloads import WORKLOADS
        self.args = args
        self.work_dir = work_dir
        self.workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
        self.failed = 0
        self.attempted = 0
        self.errors: list[str] = []
        self.info: dict[str, object] = {}
        #: the write probe's database (read-only workloads)
        self.side = None
        self.probe_latencies: list[float] = []
        self.recoveries: list[float] = []
        self.recovered_records = 0

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(message)

    # -- counters ---------------------------------------------------------
    @staticmethod
    def counters(connection) -> dict[str, float]:
        database = connection.database
        out = dict(database.work_snapshot())
        out.update(database.storage.counters())
        out.update({f"cache_{key}": value for key, value
                    in connection.service.cache.snapshot().items()})
        append = connection.metrics()["histograms"].get(
            "repro_wal_append_seconds", {})
        out["wal_append_seconds"] = append.get("sum", 0.0)
        out["wal_appends"] = append.get("count", 0)
        return out

    # -- phase 1: set-up and the exact-count window -------------------------
    def build(self, index: int):
        gc.collect()
        return self.workload.build(str(self.work_dir / f"db{index}"))

    def count_window(self, built) -> dict[str, float]:
        """Replay the first operations of the seeded sequence with the
        work counters on; every value is an exact count ratio."""
        from tracing import count_plans_explored
        workload = self.workload
        size = workload.count_window
        connection = built.connection
        before = self.counters(connection)
        rows = 0
        planned, restore = count_plans_explored()
        try:
            for op in itertools.islice(workload.operations(), size):
                rows += workload.rows_of(op, workload.execute(connection, op))
        finally:
            restore()
        after = self.counters(connection)
        delta = {key: after[key] - before.get(key, 0) for key in after}
        records = delta["wal_records"]
        return {
            "cost_units_per_op": delta["total_cost_units"] / size,
            "datamodel.method_calls_per_op": delta["method_calls"] / size,
            "datamodel.property_reads_per_op": delta["property_reads"] / size,
            "datamodel.external_calls_per_op":
                delta["external_method_calls"] / size,
            "datamodel.cost_units_per_op": delta["total_cost_units"] / size,
            "optimizer.plans_explored_per_miss":
                planned["plans"] / planned["calls"] if planned["calls"] else 0,
            "storage.wal_bytes_per_record":
                delta["wal_bytes"] / records if records else 0,
            "physical.rows_per_op": rows / size,
        }

    def set_up(self):
        """Set up three databases; returns the one the loop measures.

        The first two replay the count window.  The first is then closed:
        its storage directory, whose content depends only on the seed, is
        the one the recovery measurements reopen.  The second stays open
        as the database of the write probe (read-only workloads only).
        """
        first = self.build(0)
        windows = [self.count_window(first)]
        first.connection.close()
        first.database.close()
        self.frozen = first.storage_path
        second = self.build(1)
        windows.append(self.count_window(second))
        if self.workload.probe_writes:
            self.side = second
        else:
            second.connection.close()
            second.database.close()
        measured = self.build(2)
        self.setup_times = [first.setup_s, second.setup_s, measured.setup_s]
        self.exact = windows[0]
        if windows[0] != windows[1]:
            differing = sorted(key for key in windows[0]
                               if windows[0][key] != windows[1][key])
            self.fail(1, f"exact counts differ between two replays of the "
                         f"same operations: {differing}")
        return measured

    # -- phase 2: the timed loop and the measurements between its segments --
    def timed(self, built) -> dict[str, Block]:
        from tracing import SpanRecorder, install
        length = self.args.seconds / SEGMENTS
        modes = ["plain", "traced"] if self.args.trace else ["plain"]
        blocks = {"plain": Block(), "traced": Block()}
        self.recorder = SpanRecorder()
        operations = self.workload.operations()
        probe = (self.workload.probe(self.side.model)
                 if self.side is not None else None)
        if self.args.inject_fault:
            self.workload.inject_fault(built.model)
        for segment in range(SEGMENTS):
            mode = modes[segment % len(modes)]
            block = blocks[mode]
            before = self.counters(built.connection)
            restore = None
            if mode == "traced":
                restore, missing = install(self.recorder)
                self.info["unwrapped"] = missing
            try:
                self.loop(built, operations, length, block,
                          self.recorder if mode == "traced" else None)
            finally:
                if restore is not None:
                    restore()
            block.add_delta(before, self.counters(built.connection))
            self.measure_recovery()
            if probe is not None:
                self.write_probe(itertools.islice(
                    probe, self.workload.probe_writes // SEGMENTS))
        return blocks

    def loop(self, built, operations, seconds, block, recorder) -> None:
        workload = self.workload
        connection, model = built.connection, built.model
        ok = 0
        started = perf_counter()
        deadline = started + seconds
        while perf_counter() < deadline:
            op = next(operations)
            write = workload.is_write(op)
            span = recorder.open("op") if recorder is not None else -1
            t0 = perf_counter()
            try:
                result = workload.execute(connection, op)
                error = None
            except Exception as exc:  # a failed operation, not a crash
                error = exc
            finally:
                elapsed = perf_counter() - t0
                if recorder is not None:
                    recorder.close(span)
            block.ops += 1
            block.writes += write
            if error is not None:
                self.fail(1, f"{op!r} raised {error!r}")
                if connection.in_transaction:
                    connection.rollback()
                continue
            if not workload.check_inline(op, result, model):
                self.fail(1, f"{op!r} returned {result!r}")
                continue
            workload.record(op, result)
            ok += 1
            (block.write_latencies if write
             else block.read_latencies).append(elapsed)
        seconds = perf_counter() - started
        block.seconds += seconds
        block.ok += ok
        block.rates.append(ok / seconds)

    def measure_recovery(self) -> None:
        """Time one recovery of the frozen storage directory."""
        from workloads import recover
        recovered, elapsed, counters = recover(self.frozen)
        try:
            self.recoveries.append(elapsed)
            self.recovered_records = (recovered.object_count()
                                      + counters["recovery_replayed_records"])
        finally:
            recovered.close()

    def write_probe(self, operations) -> None:
        """Timed writes on the probe database of a read-only workload."""
        from workloads import apply_write, model_write
        side = self.side
        for op in operations:
            self.attempted += 1
            t0 = perf_counter()
            try:
                rows = apply_write(side.connection, op)
            except Exception as exc:  # a failed operation, not a crash
                self.fail(1, f"probe {op!r} raised {exc!r}")
                continue
            self.probe_latencies.append(perf_counter() - t0)
            if rows != model_write(side.model, op):
                self.fail(1, f"probe {op!r} affected {rows} rows")

    # -- phase 3: checks ---------------------------------------------------
    def durability(self, built) -> float:
        """Close *built*, recover it and compare the recovered database
        with the model and the closed state; returns the recovery time."""
        from workloads import CheckFailure, check_recovered, database_state
        from workloads import recover
        expected = database_state(built.database)
        built.connection.close()
        built.database.close()
        recovered, elapsed, _ = recover(built.storage_path)
        try:
            check_recovered(recovered, expected, built.model)
        except CheckFailure as exc:
            self.fail(1, f"durability of {built.storage_path}: {exc}")
        finally:
            recovered.close()
        return elapsed

    # -- the whole run -------------------------------------------------------
    def execute(self) -> dict[str, float]:
        phases = {}
        started = perf_counter()
        built = self.set_up()
        phases["set-up"] = perf_counter() - started
        gc.collect()
        started = perf_counter()
        blocks = self.timed(built)
        phases["loop and between-segment measurements"] = (
            perf_counter() - started)
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.attempted += sum(block.ops for block in blocks.values())
        started = perf_counter()
        wrong = self.workload.check_recorded(built.database)
        if wrong:
            self.fail(wrong, f"{wrong} operation(s) disagree with the "
                             "reference interpreter")
        phases["oracle"] = perf_counter() - started
        started = perf_counter()
        post_run = [self.durability(built)]
        if self.side is not None:
            post_run.append(self.durability(self.side))
        phases["durability"] = perf_counter() - started
        self.info["phase seconds"] = ", ".join(
            f"{name} {seconds:.2f}" for name, seconds in phases.items())
        self.info["post-run recovery seconds"] = ", ".join(
            f"{seconds:.4f}" for seconds in post_run)
        self.blocks = blocks
        plain = blocks["plain"]
        writes = plain.write_latencies or self.probe_latencies
        self.tails = {
            "read_p90_ms": percentile(plain.read_latencies, 0.90) * 1e3,
            "read_p99_ms": percentile(plain.read_latencies, 0.99) * 1e3,
            "write_p90_ms": percentile(writes, 0.90) * 1e3,
            "write_p99_ms": percentile(writes, 0.99) * 1e3,
            "mean_throughput_ops_s": plain.ok / plain.seconds,
        }
        self.info.update(
            read_samples=len(plain.read_latencies),
            write_samples=len(writes),
            write_source="timed loop" if plain.write_latencies else
            "write probe between loop segments, on a second database")
        return {
            "setup_s": statistics.median(self.setup_times),
            "throughput_ops_s": statistics.median(plain.rates),
            "read_p50_ms": percentile(plain.read_latencies, 0.50) * 1e3,
            "write_p50_ms": percentile(writes, 0.50) * 1e3,
            "peak_rss_mb": self.peak_rss_mb,
            "recovery_s": statistics.median(self.recoveries),
        }

    def per_layer(self, end_to_end: dict) -> dict[str, float]:
        blocks = self.blocks
        traced, plain = blocks["traced"], blocks["plain"]
        summary = self.recorder.summary()
        delta = traced.delta
        ops = max(traced.ops, 1)
        misses = delta.get("cache_misses", 0)
        lookups = delta.get("cache_hits", 0) + misses

        def layer(name: str, field: str = "self") -> float:
            return summary.get(name, {}).get(field, 0.0)

        def per(value: float, count: float, scale: float = 1e6) -> float:
            return value * scale / count if count else 0.0

        analyze_calls = layer("vql.analyze", "calls")
        op_total = layer("op", "total")
        records = delta.get("wal_records", 0)
        checkpoints = layer("storage.checkpoint", "calls")
        plain_rate = plain.ok / plain.seconds if plain.seconds else 0.0
        traced_rate = traced.ok / traced.seconds if traced.seconds else 0.0
        exact = self.exact
        return {
            "vql.analyze_us_per_op":
                per(layer("vql.analyze") + layer("vql.parse"), ops),
            "vql.statement_cache_hit_ratio":
                1 - layer("vql.parse", "calls") / analyze_calls
                if analyze_calls else 0.0,
            "algebra.translate_us_per_miss":
                per(layer("algebra.translate"), misses),
            "optimizer.optimize_us_per_miss":
                per(layer("optimizer.optimize"), misses),
            "optimizer.plans_explored_per_miss":
                exact["optimizer.plans_explored_per_miss"],
            "physical.compile_us_per_miss":
                per(layer("physical.compile"), misses),
            "physical.fetch_us_per_op": per(layer("physical.execute"), ops),
            "physical.rows_per_op": exact["physical.rows_per_op"],
            "service.open_us_per_op": per(layer("service"), ops),
            "service.plan_cache_hit_ratio":
                delta.get("cache_hits", 0) / lookups if lookups else 0.0,
            "service.plan_cache_evictions": delta.get("cache_evictions", 0),
            "service.plan_invalidations": delta.get("cache_invalidations", 0),
            "datamodel.method_calls_per_op":
                exact["datamodel.method_calls_per_op"],
            "datamodel.property_reads_per_op":
                exact["datamodel.property_reads_per_op"],
            "datamodel.external_calls_per_op":
                exact["datamodel.external_calls_per_op"],
            "datamodel.cost_units_per_op": exact["datamodel.cost_units_per_op"],
            "datamodel.snapshot_us_per_op":
                per(layer("datamodel.snapshot"), ops),
            "datamodel.commit_scope_us_per_write":
                per(layer("datamodel.commit_scope"), traced.writes),
            "storage.wal_append_us_per_record":
                per(delta.get("wal_append_seconds", 0.0),
                    delta.get("wal_appends", 0)),
            "storage.wal_bytes_per_record":
                exact["storage.wal_bytes_per_record"],
            "storage.fsyncs_per_1k_commits":
                per(delta.get("wal_fsyncs", 0), records, 1e3),
            "storage.checkpoint_ms":
                per(layer("storage.checkpoint", "total"), checkpoints, 1e3),
            "storage.checkpoints": delta.get("checkpoints_completed", 0),
            "storage.recovery_records_per_s":
                self.recovered_records / end_to_end["recovery_s"],
            "telemetry.record_us_per_op": per(layer("telemetry.record"), ops),
            "api.self_us_per_op": per(layer("api"), ops),
            "unattributed_share":
                layer("op") / op_total if op_total else 0.0,
            "trace_overhead": traced_rate / plain_rate if plain_rate else 0.0,
        }


def _write(line: str = "") -> None:
    sys.stdout.write(line + "\n")


def report(run: Run, spec: dict, end_to_end: dict, layers: dict) -> None:
    """The human-readable lines before the result line."""
    args = run.args
    _write(f"perfbench {args.workload} seed={args.seed} "
           f"seconds={args.seconds:g} trace={args.trace}"
           + (" tiny" if args.tiny else ""))
    pinned = " ".join(f"{key}={os.environ.get(key, '')!r}"
                      for key in sorted(PINNED_ENV) + ["REPRO_STORAGE_DIR"])
    _write(f"  environment: {pinned}")
    _write(f"  git={git_sha()} python={sys.version.split()[0]} "
           f"nproc={os.cpu_count()} "
           f"affinity={len(os.sched_getaffinity(0))}")
    _write("  client: one closed-loop client, one connection")
    for key, value in sorted(run.workload.describe().items()):
        _write(f"  input {key}: {value}")
    for key, value in sorted(run.info.items()):
        _write(f"  {key}: {value}")
    _write(f"  setup samples (s): "
           + ", ".join(f"{value:.4f}" for value in run.setup_times))
    _write(f"  recovery samples (s): "
           + ", ".join(f"{value:.4f}" for value in run.recoveries))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    _write("  end-to-end:")
    for name, value in end_to_end.items():
        _write(f"    {name:<34} {value:>14.6g} {units[name]}")
    tail_units = {"mean_throughput_ops_s": "ops/s"}
    for name, value in run.tails.items():
        _write(f"    {name:<34} {value:>14.6g} "
               f"{tail_units.get(name, 'ms')} (not gated)")
    rate = run.failed / run.attempted if run.attempted else 0.0
    _write(f"    {'error_rate':<34} {rate:>14.6g} ratio "
           f"({run.failed} of {run.attempted})")
    _write(f"    {'cost_units_per_op':<34} "
           f"{run.exact['cost_units_per_op']:>14.6g} units (exact)")
    if layers:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        _write("  per-layer (moves: end-to-end metric @ workload):")
        for name, value in layers.items():
            moves, where = MOVES[name]
            mark = " (exact)" if name in EXACT else ""
            _write(f"    {name:<36} {value:>14.6g} {units[name]:<7} "
                   f"{moves} @ {where}{mark}")
    for error in run.errors:
        _write(f"  ERROR {error}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no program source under src/repro "
                         "next to the benchmark; nothing to measure\n")
        return 2
    pin_environment()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    spec = json.loads(SPEC_PATH.read_text())
    work_dir = Path(os.environ["REPRO_STORAGE_DIR"])
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args, work_dir)
        end_to_end = run.execute()
        layers = run.per_layer(end_to_end) if args.trace else {}
        if args.trace:
            run.recorder.write(str(WORK_DIR / f"spans-{args.workload}.jsonl"))
    except Exception:
        sys.stderr.write(traceback.format_exc())
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    section = "per_layer" if args.trace else "end_to_end"
    declared = [metric["name"] for metric in spec[section]]
    values = layers if args.trace else end_to_end
    if sorted(declared) != sorted(values):
        sys.stderr.write(f"perfbench: computed {sorted(values)} but "
                         f"BENCHMARK.json declares {sorted(declared)}\n")
        return 1
    report(run, spec, end_to_end, layers)
    correct = run.failed == 0
    units = {metric["name"]: metric["unit"] for metric in spec[section]}
    _write(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
