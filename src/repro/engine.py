"""Top-level convenience functions.

These helpers wrap the most common workflow — open a session on a database
with its semantic knowledge and run queries — so that the quickstart example
fits on one screen.

:func:`run_query` used to rebuild the schema-specific optimizer (and re-plan
the query) on every call; it now routes through a per-database
:class:`~repro.service.QueryService`, so repeated one-shot calls against the
same database reuse the generated optimizer, the analyzed statement and the
optimized + compiled plan.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Sequence

from repro.datamodel.database import Database
from repro.optimizer.knowledge import SchemaKnowledge
from repro.optimizer.search import OptimizerOptions
from repro.service.service import QueryService
from repro.session import QueryResult, Session
from repro.vql.bindings import ParameterValues

__all__ = ["open_session", "open_service", "run_query"]


def open_session(database: Database,
                 knowledge: Optional[SchemaKnowledge] = None,
                 options: Optional[OptimizerOptions] = None,
                 exclude_tags: Sequence[str] = (),
                 parallelism: Optional[int] = None) -> Session:
    """Open a query session on *database*.

    ``knowledge`` carries the schema-specific semantic knowledge about
    methods; without it the generated optimizer only has the predefined
    structural rules.  ``parallelism`` enables morsel-driven parallel plans
    for method-bearing work (default: ``REPRO_PARALLEL_DEFAULT`` or 1).
    """
    return Session(database, knowledge=knowledge, options=options,
                   exclude_tags=exclude_tags, parallelism=parallelism)


def open_service(database: Database,
                 knowledge: Optional[SchemaKnowledge] = None,
                 options: Optional[OptimizerOptions] = None,
                 exclude_tags: Sequence[str] = (),
                 parallelism: Optional[int] = None) -> QueryService:
    """Open a plan-caching, multi-client query service on *database*."""
    return QueryService(database, knowledge=knowledge, options=options,
                        exclude_tags=exclude_tags, parallelism=parallelism)


#: one service per (database, knowledge object) pair.  A cached service
#: necessarily keeps its database alive (it holds compiled plans bound to
#: it), so the cache is a small LRU rather than a weak mapping — evicting
#: the least-recently-used service is what releases a dropped database.
_MAX_CACHED_SERVICES = 8
_SERVICES: "OrderedDict[tuple[int, Optional[int]], QueryService]" = OrderedDict()
_SERVICES_LOCK = threading.Lock()


def _service_for(database: Database,
                 knowledge: Optional[SchemaKnowledge]) -> QueryService:
    key = (id(database), None if knowledge is None else id(knowledge))
    with _SERVICES_LOCK:
        service = _SERVICES.get(key)
        # The identity re-check guards against id() reuse: an entry pins its
        # database/knowledge alive, so a live entry's ids cannot be recycled,
        # but a stale mapping would silently serve the wrong database.
        if (service is not None and service.database is database
                and (knowledge is None or service.knowledge is knowledge)):
            _SERVICES.move_to_end(key)
            return service
        service = QueryService(database, knowledge=knowledge)
        _SERVICES[key] = service
        _SERVICES.move_to_end(key)
        while len(_SERVICES) > _MAX_CACHED_SERVICES:
            _SERVICES.popitem(last=False)
    return service


def run_query(database: Database, query: str,
              knowledge: Optional[SchemaKnowledge] = None,
              optimize: bool = True,
              parameters: ParameterValues = None):
    """One-shot helper: run *query* through the cached service for
    *database* (optimizer generation, statement analysis and plan
    optimization are all paid once per database / query shape).

    *query* may be any statement of the unified language; DDL/DML return
    the router's :class:`~repro.api.router.StatementResult` instead of a
    :class:`~repro.session.QueryResult`.

    .. deprecated:: 1.2
        The keyword signature (``knowledge=``/``optimize=``/
        ``parameters=`` re-supplied on every call) is superseded by the
        statement API: open a :func:`repro.connect` connection once and use
        ``Connection.execute`` — the connection owns the knowledge and
        plan cache, so per-call configuration cannot drift.  ``run_query``
        is retained as a compatibility wrapper over the same router.
    """
    service = _service_for(database, knowledge)
    # The caller may have add()ed to the knowledge object since the service
    # was cached; the old per-call behaviour applied such additions
    # immediately, so the service re-syncs before executing.
    service.sync_knowledge()
    result = service.execute(query, parameters=parameters, optimize=optimize)
    if hasattr(result, "as_query_result"):
        return result.as_query_result()
    return result
