"""The benchmark's three workloads: inputs, operations and output checks.

Every workload builds a durable document database (write-ahead log,
``interval`` fsync policy, default checkpoint interval) from the seed and
drives it through the public statement API with one closed-loop client:
the next operation starts when the previous one has returned.

* ``paper_scan`` — one operation is an analyst request that runs the
  paper's four method-bearing queries on cached plans with fresh bind
  values.  Results are checked after the timed loop, once per distinct
  query and binding, against the reference interpreter.
* ``adhoc_plan`` — one operation is the paper's query Q with the term and
  the title written as literals, drawn from a key space far larger than
  the statement and plan caches, so nearly every statement is parsed,
  translated, optimized and compiled afresh.  Checked like ``paper_scan``.
* ``oltp_rw`` — Zipf-skewed point reads, autocommit updates, inserts and
  ``BEGIN``/``UPDATE``/``COMMIT`` transactions on ``Document.title``.
  Every read is checked against a model of titles and authors that the
  benchmark keeps beside the database.

The read-only workloads also time a probe of writes on a second copy of
their database.  After the loop every open database is closed, recovered
from its storage directory and compared with its model and with the state
the closed database held.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Iterator

from repro import connect
from repro.algebra.translate import translate_query
from repro.datamodel.database import Database
from repro.optimizer.generator import OptimizerGenerator
from repro.physical.evaluator import make_hashable
from repro.physical.interpreter import execute_plan_interpreted
from repro.physical.naive import naive_implementation
from repro.storage import FileStorageAdapter
from repro.vql.analyzer import AnalyzedQuery, analyze_query
from repro.vql.bindings import bind_query
from repro.vql.parser import parse_query
from repro.workloads import document_knowledge, generate_document_database
from repro.workloads.documents import QUERY_TERM, TARGET_TITLE
from repro.workloads.schema_library import (
    DEFAULT_LARGE_PARAGRAPH_THRESHOLD,
    document_schema,
)

#: fsync policy and checkpoint interval of every benchmark database
WAL_FSYNC = "interval"
CHECKPOINT_INTERVAL = 1000

Q_TEXT = ("ACCESS p FROM p IN Paragraph WHERE p->contains_string(:term) "
          "AND (p->document()).title == :title")
WORD_COUNT_TEXT = "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > :n"
RANGE_TEXT = ("ACCESS d.title FROM d IN Document, p IN d->paragraphs() "
              "WHERE p->contains_string(:term)")
JOIN_TEXT = ("ACCESS [pn: p.number, qn: q.number] "
             "FROM p IN Paragraph, q IN Paragraph "
             "WHERE p->sameDocument(q) AND p->contains_string(:term)")
ADHOC_TEXT = ("ACCESS p FROM p IN Paragraph WHERE p->contains_string('{term}') "
              "AND (p->document()).title == '{title}'")

READ_TEXT = "ACCESS d.author FROM d IN Document WHERE d.title == :t"
UPDATE_TEXT = "UPDATE Document d SET author = :a WHERE d.title == :t"
INSERT_TEXT = "INSERT INTO Document (title, author) VALUES (:t, :a)"


class CheckFailure(Exception):
    """An output or durability check found a wrong result."""


@dataclass
class Built:
    """One set-up database with its open connection."""

    database: Database
    connection: Any
    storage_path: str
    setup_s: float
    #: title -> author of every Document, kept beside the database
    model: dict[str, str]


def _titles_and_authors(database: Database) -> dict[str, str]:
    model = {}
    for oid in database.extension("Document"):
        values = database.get(oid).values
        model[values["title"]] = values.get("author")
    return model


def _fetch(connection, text: str, parameters=None) -> list:
    return connection.execute(text, parameters).fetchall()


# ----------------------------------------------------------------------
# writes shared by oltp_rw and the write probe of the read-only workloads
# ----------------------------------------------------------------------
class WriteStream:
    """Seeded updates, inserts and one-update transactions.

    The stream draws keys itself and remembers the titles it inserted, so
    two streams with the same seed produce the same statements whatever
    the database answers.
    """

    def __init__(self, rng: random.Random, pick_title, tag: str):
        self.rng = rng
        #: draws a title of the generated database
        self.pick_title = pick_title
        self.inserted: list[str] = []
        self.tag = tag
        self.counter = itertools.count(1)

    def key(self) -> str:
        """A generated title, or one in ten times an inserted one."""
        if self.inserted and self.rng.random() < 0.1:
            return self.rng.choice(self.inserted)
        return self.pick_title()

    def write(self, kind: str) -> tuple:
        """The next ``(kind, title, author)`` write of *kind*."""
        serial = next(self.counter)
        if kind == "insert":
            title = f"{self.tag} insert {serial}"
            self.inserted.append(title)
        else:
            title = self.key()
        return (kind, title, f"{self.tag} author {serial}")


def apply_write(connection, op: tuple) -> int:
    """Run one write operation; returns the affected row count."""
    kind, title, author = op
    params = {"t": title, "a": author}
    if kind == "update":
        return connection.execute(UPDATE_TEXT, params).rowcount
    if kind == "insert":
        return connection.execute(INSERT_TEXT, params).rowcount
    connection.execute("BEGIN")
    rows = connection.execute(UPDATE_TEXT, params).rowcount
    connection.execute("COMMIT")
    return rows


def model_write(model: dict[str, str], op: tuple) -> int:
    """Apply *op* to the model; returns the row count the database must
    report."""
    _, title, author = op
    model[title] = author
    return 1


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------
class Workload:
    """A seeded workload: database generation, operations, checks."""

    name = ""
    #: operations the exact-count window replays on two fresh databases
    count_window = 0
    #: writes of the write probe, run in slices between the loop's segments
    #: on a second database (0: the loop writes itself)
    probe_writes = 5000

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.corrupt = False

    def describe(self) -> dict[str, Any]:
        """Input sizes, for the report."""
        return {"count window (ops)": self.count_window,
                "write probe (writes)": self.probe_writes}

    def inject_fault(self, model: dict[str, str]) -> None:
        """Corrupt one expected result, so that the checks must fail."""
        self.corrupt = True

    # -- set-up ---------------------------------------------------------
    def generate(self) -> Database:
        raise NotImplementedError

    def build(self, storage_path: str) -> Built:
        """Generate, load and open the database, then warm its caches."""
        started = perf_counter()
        database = self.generate()
        connection = connect(database,
                             knowledge=document_knowledge(database.schema),
                             durability="wal", storage_path=storage_path,
                             wal_fsync=WAL_FSYNC,
                             checkpoint_interval=CHECKPOINT_INTERVAL,
                             parallelism=1)
        # the generated state reaches stable storage only through a
        # checkpoint: without it recovery would start from nothing
        connection.checkpoint()
        model = _titles_and_authors(database)
        self.prepare_inputs(database, model)
        self.warm(connection)
        return Built(database, connection, storage_path,
                     perf_counter() - started, model)

    def prepare_inputs(self, database: Database,
                       model: dict[str, str]) -> None:
        """Derive the seeded key pools from the generated database."""

    def warm(self, connection) -> None:
        """Fill the caches the timed loop relies on."""

    # -- operations -----------------------------------------------------
    def operations(self) -> Iterator[tuple]:
        """The seeded operation sequence (restartable: a new iterator
        yields the same operations again)."""
        raise NotImplementedError

    def is_write(self, op: tuple) -> bool:
        return False

    def execute(self, connection, op: tuple) -> Any:
        """Run one operation (the timed part); returns what it produced."""
        raise NotImplementedError

    def rows_of(self, op: tuple, result: Any) -> int:
        """Rows an operation returned, for the row counter."""
        return 0

    # -- checks ---------------------------------------------------------
    def check_inline(self, op: tuple, result: Any, model: dict) -> bool:
        """Check a result that must be checked at once (the model moves);
        return False when it is wrong."""
        return True

    def record(self, op: tuple, result: Any) -> None:
        """Keep a result for the after-loop oracle check."""

    def check_recorded(self, database: Database) -> int:
        """Check the kept results; returns the number of wrong operations."""
        return 0

    def probe(self, model: dict) -> Iterator[tuple]:
        """The write probe of a read-only workload: updates, inserts and
        transactions in the ratio of ``oltp_rw``'s writes."""
        rng = random.Random(f"{self.seed}:probe")
        titles = sorted(model)
        stream = WriteStream(rng, lambda: rng.choice(titles), "probe")
        for _ in range(self.probe_writes):
            kind = rng.choices(("update", "insert", "txn"), (3, 1, 1))[0]
            yield stream.write(kind)


class _OracleChecked(Workload):
    """Read-only workloads whose results are checked against the
    reference interpreter after the timed loop."""

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed, tiny)
        #: (statement, bindings) -> [result multiset, occurrences, wrong]
        self.results: dict[tuple, list] = {}

    def statements(self, op: tuple) -> list[tuple[str, dict]]:
        raise NotImplementedError

    def execute(self, connection, op: tuple) -> list:
        return [_fetch(connection, text, params)
                for text, params in self.statements(op)]

    def rows_of(self, op: tuple, result: list) -> int:
        return sum(len(rows) for rows in result)

    def record(self, op: tuple, result: list) -> None:
        for (text, params), rows in zip(self.statements(op), result):
            key = (text, tuple(sorted(params.items())))
            multiset = collections.Counter(make_hashable(row) for row in rows)
            seen = self.results.get(key)
            if seen is None:
                self.results[key] = [multiset, 1, 0]
                continue
            seen[1] += 1
            if multiset != seen[0]:
                seen[2] += 1  # the same statement answered differently

    def oracle_plan(self, text: str, translation, database: Database):
        """The plan the oracle interprets: the naive (``optimize=False``)
        plan of the bound query."""
        return naive_implementation(translation.plan)

    def check_recorded(self, database: Database) -> int:
        wrong = 0
        for index, ((text, params), (multiset, count, drift)) in enumerate(
                sorted(self.results.items(), key=lambda item: repr(item[0]))):
            expected = oracle_rows(database, text, dict(params),
                                   self.oracle_plan)
            if self.corrupt and index == 0:
                expected[("corrupted expected row",)] += 1
            if multiset != expected:
                wrong += count
            else:
                wrong += drift
        return wrong


def oracle_rows(database: Database, text: str, params: dict,
                plan_for) -> collections.Counter:
    """Evaluate *text* with *params* substituted on the reference
    interpreter; returns the output values as a multiset."""
    analyzed = analyze_query(parse_query(text), database.schema)
    if params:
        analyzed = AnalyzedQuery(query=bind_query(analyzed.query, params),
                                 variable_types=analyzed.variable_types,
                                 parameters=())
    translation = translate_query(analyzed)
    plan = plan_for(text, translation, database)
    rows = execute_plan_interpreted(plan, database)
    return collections.Counter(make_hashable(row.get(translation.output_ref))
                               for row in rows)


def _mid_frequency_terms(database: Database, rng: random.Random,
                         count: int) -> list[str]:
    """*count* terms from the middle of the vocabulary ranked by paragraph
    frequency, one drawn from each of *count* equal strata of the band, so
    that the pool's frequency mix is the same for every seed.  The Zipf
    head would blow up the join; the tail would match nothing."""
    frequency = collections.Counter()
    for oid in database.extension("Paragraph"):
        frequency.update(set(database.get(oid).values["content"].split()))
    ranked = sorted(frequency, key=lambda word: (-frequency[word], word))
    band = ranked[len(ranked) // 4: len(ranked) // 2]
    count = min(count, len(band))
    return [rng.choice(band[len(band) * i // count:
                            len(band) * (i + 1) // count])
            for i in range(count)]


class PaperScan(_OracleChecked):
    """The paper's four method-bearing queries as one analyst request."""

    name = "paper_scan"
    count_window = 40

    @property
    def documents(self) -> int:
        return 4 if self.tiny else 24

    def generate(self) -> Database:
        return generate_document_database(n_documents=self.documents,
                                          seed=self.seed)

    def prepare_inputs(self, database, model) -> None:
        rng = random.Random(f"{self.seed}:paper_scan")
        self.terms = [QUERY_TERM] + _mid_frequency_terms(database, rng, 7)
        others = sorted(title for title in model if title != TARGET_TITLE)
        self.titles = [TARGET_TITLE] + rng.sample(others, min(5, len(others)))
        threshold = DEFAULT_LARGE_PARAGRAPH_THRESHOLD
        self.word_counts = list(range(threshold, threshold + 24, 3))

    def describe(self) -> dict[str, Any]:
        return dict(super().describe(), documents=self.documents,
                    terms=len(self.terms), titles=len(self.titles),
                    word_counts=len(self.word_counts))

    def operations(self) -> Iterator[tuple]:
        rng = random.Random(f"{self.seed}:paper_scan:ops")
        while True:
            yield ("request", rng.choice(self.terms), rng.choice(self.titles),
                   rng.choice(self.word_counts), rng.choice(self.terms),
                   rng.choice(self.terms))

    def statements(self, op: tuple) -> list[tuple[str, dict]]:
        _, q_term, title, n, range_term, join_term = op
        return [(Q_TEXT, {"term": q_term, "title": title}),
                (WORD_COUNT_TEXT, {"n": n}),
                (RANGE_TEXT, {"term": range_term}),
                (JOIN_TEXT, {"term": join_term})]

    def warm(self, connection) -> None:
        self.execute(connection, next(self.operations()))

    def oracle_plan(self, text, translation, database):
        if text != JOIN_TEXT:
            return naive_implementation(translation.plan)
        # The naive join plan is a cross product of all paragraph pairs
        # (~10 s per binding here).  The structural optimizer pushes the
        # selection below the join but knows none of the semantic rules
        # the optimized plan relies on, so the oracle stays independent.
        generator = OptimizerGenerator(database.schema,
                                       document_knowledge(database.schema))
        structural = generator.generate_without_semantics(database)
        return structural.optimize(translation.plan).best_plan


class AdhocPlan(_OracleChecked):
    """The paper's query Q with literal keys that defeat both caches."""

    name = "adhoc_plan"
    count_window = 40

    @property
    def documents(self) -> int:
        return 4 if self.tiny else 12

    def generate(self) -> Database:
        return generate_document_database(
            n_documents=self.documents,
            vocabulary_size=200 if self.tiny else 4000, seed=self.seed)

    def prepare_inputs(self, database, model) -> None:
        words = set()
        for oid in database.extension("Paragraph"):
            words.update(database.get(oid).values["content"].split())
        self.words = sorted(words)
        self.titles = sorted(model)

    def describe(self) -> dict[str, Any]:
        return dict(super().describe(), documents=self.documents,
                    key_space=len(self.words) * len(self.titles),
                    statement_cache=1024, plan_cache=256)

    def operations(self) -> Iterator[tuple]:
        rng = random.Random(f"{self.seed}:adhoc_plan:ops")
        while True:
            yield ("adhoc", rng.choice(self.words), rng.choice(self.titles))

    def statements(self, op: tuple) -> list[tuple[str, dict]]:
        _, term, title = op
        return [(ADHOC_TEXT.format(term=term, title=title), {})]


class OltpReadWrite(Workload):
    """Zipf-skewed point reads and writes on Document.title."""

    name = "oltp_rw"
    count_window = 2400
    probe_writes = 0
    #: Zipf exponent of the key popularity
    skew = 1.1

    @property
    def documents(self) -> int:
        return 20 if self.tiny else 200

    def generate(self) -> Database:
        return generate_document_database(n_documents=self.documents,
                                          seed=self.seed)

    def describe(self) -> dict[str, Any]:
        return dict(super().describe(), documents=self.documents,
                    mix="50% read, 30% update, 10% insert, 10% transaction",
                    key_skew=f"Zipf s={self.skew} over Document.title")

    def inject_fault(self, model: dict[str, str]) -> None:
        # the most popular title: the first reads of it must fail
        model[self.titles[0]] = "corrupted expected author"

    def prepare_inputs(self, database, model) -> None:
        rng = random.Random(f"{self.seed}:oltp_rw")
        self.titles = sorted(model)
        rng.shuffle(self.titles)  # popularity rank -> title
        weights = [1.0 / (rank + 1) ** self.skew
                   for rank in range(len(self.titles))]
        self.cumulative = list(itertools.accumulate(weights))

    def warm(self, connection) -> None:
        _fetch(connection, READ_TEXT, {"t": self.titles[0]})

    def operations(self) -> Iterator[tuple]:
        rng = random.Random(f"{self.seed}:oltp_rw:ops")
        titles, cumulative = self.titles, self.cumulative
        total = cumulative[-1]
        stream = WriteStream(
            rng, lambda: titles[bisect.bisect(cumulative, rng.random() * total)],
            "oltp")
        while True:
            draw = rng.random()
            if draw < 0.5:
                yield ("read", stream.key())
            elif draw < 0.8:
                yield stream.write("update")
            elif draw < 0.9:
                yield stream.write("insert")
            else:
                yield stream.write("txn")

    def is_write(self, op: tuple) -> bool:
        return op[0] != "read"

    def execute(self, connection, op: tuple) -> Any:
        if op[0] == "read":
            return _fetch(connection, READ_TEXT, {"t": op[1]})
        return apply_write(connection, op)

    def rows_of(self, op: tuple, result: Any) -> int:
        return len(result) if op[0] == "read" else 0

    def check_inline(self, op: tuple, result: Any, model: dict) -> bool:
        if op[0] == "read":
            return result == [model[op[1]]]
        return result == model_write(model, op)


WORKLOADS = {cls.name: cls for cls in (PaperScan, AdhocPlan, OltpReadWrite)}


# ----------------------------------------------------------------------
# durability check
# ----------------------------------------------------------------------
def database_state(database: Database) -> dict[str, Any]:
    """Every live object's values, keyed by OID, in comparable form."""
    state = {}
    for class_name in database.schema.class_names():
        for oid in database.extension(class_name, deep=False):
            state[str(oid)] = make_hashable(database.get(oid).values)
    return state


def recover(storage_path: str) -> tuple[Database, float, dict]:
    """Open *storage_path* into a fresh database; returns it, the seconds
    recovery took and the adapter's counters."""
    database = Database(document_schema(), name="recovered")
    adapter = FileStorageAdapter(storage_path, fsync=WAL_FSYNC,
                                 checkpoint_interval=CHECKPOINT_INTERVAL)
    started = perf_counter()
    database.attach_storage(adapter)
    return database, perf_counter() - started, adapter.counters()


def check_recovered(recovered: Database, expected_state: dict,
                    model: dict[str, str]) -> None:
    """Compare a recovered database with the model and the closed state;
    raises :class:`CheckFailure` on the first difference."""
    if _titles_and_authors(recovered) != model:
        raise CheckFailure("recovered titles/authors differ from the model")
    if database_state(recovered) != expected_state:
        raise CheckFailure("recovered objects differ from the closed state")
    # the indexes are rebuilt on recovery: read a sample through them
    connection = connect(recovered, durability="memory", parallelism=1)
    try:
        for title in sorted(model)[:: max(1, len(model) // 50)]:
            rows = _fetch(connection, READ_TEXT, {"t": title})
            if rows != [model[title]]:
                raise CheckFailure(
                    f"recovered index read of {title!r} returned {rows!r}")
    finally:
        connection.close()
