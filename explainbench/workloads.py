"""The three workloads: inputs, set-up, one request, and the reference.

Everything here drives the program through its public API:
:class:`~repro.engine.ExplainSession` and the workload generators.
Settings come from ``settings.json`` next to this file.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

from repro.compiler.knowledge import CompilationBudget
from repro.core.cnf_proxy import cnf_proxy_from_circuit
from repro.core.naive import game_from_circuit, shapley_naive
from repro.core.pipeline import to_plan
from repro.db.evaluate import lineage
from repro.engine import (
    ArtifactCache,
    EngineOptions,
    ExplainSession,
    PersistentArtifactStore,
    get_engine,
)
from repro.workloads import (
    ImdbConfig,
    TpchConfig,
    generate_imdb,
    generate_tpch,
    imdb_query,
    tpch_query,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETTINGS = json.loads((HERE / "settings.json").read_text(encoding="utf-8"))


def request_blocks(name: str, seed: int):
    """Endless blocks of query names: a fixed mix in a seeded order.

    A block holds each query of the workload as often as its ``counts``
    entry in ``settings.json`` says.
    """
    counts = SETTINGS["workloads"][name]["counts"]
    block = [query for query, count in counts.items() for _ in range(count)]
    rng = random.Random(f"{name}/{seed}")
    while True:
        order = list(block)
        rng.shuffle(order)
        yield order


def build_database(kind: str):
    inputs = SETTINGS["inputs"]
    if kind == "tpch":
        return generate_tpch(TpchConfig(**inputs["tpch"]))
    return generate_imdb(ImdbConfig(**inputs["imdb"]))


def query_sql(query: str) -> str:
    return (tpch_query(query) if query.startswith("Q") else imdb_query(query)).sql


def database_kind(query: str) -> str:
    return "tpch" if query.startswith("Q") else "imdb"


def exact_options() -> EngineOptions:
    exact = SETTINGS["exact_options"]
    return EngineOptions(
        budget=CompilationBudget(max_nodes=exact["max_nodes"]),
        timeout=None,
        numeric_backend=exact["numeric_backend"],
    )


def merged_stats(*stats: dict) -> dict[str, float]:
    """Sum counters of several sessions."""
    total: dict[str, float] = {}
    for one in stats:
        for key, value in one.items():
            total[key] = total.get(key, 0) + value
    return total


class Workload:
    """One workload's set-up, request and tear-down.

    :meth:`setup` builds everything a request needs (its cost is
    ``setup_s``), :meth:`request` runs one ``explain_many`` and returns
    its results, :meth:`stats` returns cumulative ``session.stats``
    counters, and :meth:`close` releases every session, process and
    directory.
    """

    def __init__(self, name: str, workdir: Path) -> None:
        self.spec = SETTINGS["workloads"][name]
        self.workdir = workdir
        self.width = SETTINGS["thread_pool_width"]
        self.databases: dict[str, object] = {}
        self.sessions: dict[str, ExplainSession] = {}

    @property
    def queries(self) -> list[str]:
        return list(self.spec["counts"])

    def setup(self) -> None:
        """Generate the databases, open one session per database, and
        warm the cache with one request per query."""
        proxy = self.spec["method"] == "proxy"
        for kind in sorted({database_kind(query) for query in self.queries}):
            database = self.databases[kind] = build_database(kind)
            self.sessions[kind] = (
                ExplainSession(database, method="proxy",
                               max_workers=self.width) if proxy
                else ExplainSession(database, options=exact_options(),
                                    max_workers=self.width))
        for query in self.queries:
            self.request(query)

    def request(self, query: str) -> dict:
        return self.sessions[database_kind(query)].explain_many(query_sql(query))

    def after_request(self) -> int:
        """Clean up after one request, outside its timed window; return
        the bytes it left in artifact stores."""
        return 0

    def stats(self) -> dict[str, float]:
        return merged_stats(*(s.stats for s in self.sessions.values()))

    def close(self) -> None:
        sessions, self.sessions = self.sessions, {}
        for session in sessions.values():
            session.close()


class ColdWorkload(Workload):
    """Every request gets a fresh cache over a fresh store directory."""

    def __init__(self, name: str, workdir: Path) -> None:
        super().__init__(name, workdir)
        self._stats: dict[str, float] = {}
        self._stores = 0
        self._last_store: Path | None = None

    def setup(self) -> None:
        self.databases["imdb"] = build_database("imdb")

    def request(self, query: str) -> dict:
        self._stores += 1
        self._last_store = self.workdir / f"store-{self._stores}"
        cache = ArtifactCache(store=PersistentArtifactStore(self._last_store))
        session = ExplainSession(self.databases["imdb"],
                                 options=exact_options(), cache=cache,
                                 max_workers=self.width)
        with session:
            results = session.explain_many(query_sql(query))
        self._stats = merged_stats(self._stats, session.stats)
        return results

    def after_request(self) -> int:
        store, self._last_store = self._last_store, None
        if store is None:
            return 0
        written = PersistentArtifactStore(store).total_bytes()
        shutil.rmtree(store, ignore_errors=True)
        return written

    def stats(self) -> dict[str, float]:
        return dict(self._stats)


def make_workload(name: str, workdir: Path) -> Workload:
    if SETTINGS["workloads"][name].get("cold"):
        return ColdWorkload(name, workdir)
    return Workload(name, workdir)


# ----------------------------------------------------------------------
# Reference values
# ----------------------------------------------------------------------

def reference(workload: Workload, queries) -> dict[str, dict]:
    """Expected values of every answer of ``queries``, computed without
    the session, the cache or the batched kernels.

    Exact answers with few facts use ``repro.core.naive`` enumeration;
    other exact answers the per-answer, uncached path on the ``python``
    kernel; proxy answers an uncached ``cnf_proxy_from_circuit``.
    """
    proxy = workload.spec["method"] == "proxy"
    engine = get_engine("exact")
    options = exact_options().with_(numeric_backend="python")
    naive_max = SETTINGS["naive_reference_max_facts"]
    expected: dict[str, dict] = {}
    for query in sorted(set(queries)):
        database = workload.databases[database_kind(query)]
        result = lineage(to_plan(query_sql(query), database), database,
                         endogenous_only=True)
        answers = {}
        for answer in result.tuples():
            circuit = result.lineage_of(answer)
            players = sorted(circuit.reachable_vars())
            if proxy:
                answers[answer] = cnf_proxy_from_circuit(circuit, players)
            elif len(players) <= naive_max:
                answers[answer] = shapley_naive(game_from_circuit(circuit),
                                                players)
            else:
                outcome = engine.explain_circuit(circuit, players, options)
                if not outcome.ok:
                    raise RuntimeError(
                        f"reference for {query} {answer!r}: {outcome.status}"
                    )
                answers[answer] = outcome.values
        expected[query] = answers
    return expected


def check(results: dict, expected: dict) -> tuple[int, int]:
    """``(verified, attempted)`` answers of one request.

    An answer is verified when its status is ``ok`` and its values
    equal the reference; an answer the reference does not know counts
    as attempted and not verified.
    """
    verified = sum(
        1 for answer, values in expected.items()
        if answer in results
        and results[answer].status == "ok"
        and results[answer].values == values
    )
    extra = sum(1 for answer in results if answer not in expected)
    return verified, len(expected) + extra
