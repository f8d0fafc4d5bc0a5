"""In-memory span tracing of the program's layers, from outside the program.

The traced run rebinds the public entry point of each layer (module
functions and class methods) to a wrapper that records a span: name,
request id, parent span, start and end.  Nothing under ``src/`` knows
about it.  :meth:`Tracer.uninstall` puts every original back, so an
untraced run after a traced one calls the program's own functions.

A span opened on the client thread nests under the client's innermost
open span.  A span opened on a pool thread that has no open span of its
own nests under the client's innermost open span at that moment (for
example a numerics span under ``Transport.run_batch``).  A layer's self
time is its span time minus the part of that interval its child spans
cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

#: Layer span name -> the public entry points it wraps, as
#: ``"module:function"`` or ``"module:Class.method"``; a trailing ``*``
#: wraps every method with that prefix.
ENTRY_POINTS = {
    "db.lineage": ["repro.db.evaluate:lineage"],
    "db.lineage_of": ["repro.db.evaluate:LineageResult.lineage_of"],
    "cache.open": ["repro.engine.cache:ArtifactCache.open"],
    "scheduler.plan": ["repro.engine.scheduler:plan_batch"],
    "circuits.tseytin": ["repro.circuits.tseytin:tseytin_transform"],
    "compiler.compile": [
        "repro.compiler.knowledge:compile_cnf",
        "repro.compiler.knowledge:compile_component",
    ],
    "numerics.tape_lower": ["repro.core.numerics.tape:compile_tape"],
    "numerics.exec": [
        "repro.core.shapley:shapley_all_facts",
        "repro.core.shapley:shapley_all_facts_batched",
    ],
    "proxy.values": ["repro.core.cnf_proxy:cnf_proxy_values"],
    "store.write": ["repro.engine.store:PersistentArtifactStore.store_*"],
    "store.read": ["repro.engine.store:PersistentArtifactStore.load_*"],
    "service.run_batch": [
        "repro.engine.service.local:InProcessTransport.run_batch",
    ],
}

#: Attribute set on every wrapper, so a test can prove none is left.
MARK = "_explainbench_span"


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, request, name, start, end)
        self.answer_gates = 0
        self.request_id: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client_thread: int | None = None
        self._client_stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._client_thread:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, original):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            try:
                parent = (stack or tracer._client_stack)[-1]
            except IndexError:  # no open span on this or the client thread
                parent = None
            span = next(tracer._ids)
            stack.append(span)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span, parent, tracer.request_id, name, start, end)
                )
            if name == "db.lineage_of":
                tracer.answer_gates += result.size
            return result

        setattr(traced, MARK, name)
        return traced

    def begin_request(self, request_id: int) -> None:
        """Mark the calling thread as the client and tag later spans."""
        self._client_thread = threading.get_ident()
        self.request_id = request_id

    # -- installing --------------------------------------------------

    def install(self) -> None:
        """Rebind every entry point in :data:`ENTRY_POINTS`."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        try:
            for name, targets in ENTRY_POINTS.items():
                for target in targets:
                    self._install_target(name, target)
        except BaseException:
            self.uninstall()
            raise

    def _install_target(self, name: str, target: str) -> None:
        module_name, _, attribute = target.partition(":")
        module = sys.modules.get(module_name) or __import__(
            module_name, fromlist=["_"]
        )
        if "." in attribute:
            class_name, _, method = attribute.partition(".")
            owner = getattr(module, class_name)
            if method.endswith("*"):
                methods = [m for m in vars(owner) if m.startswith(method[:-1])]
            else:
                methods = [method]
            for method_name in methods:
                original = vars(owner)[method_name]
                self._rebind(owner, method_name, original,
                             self._wrap(name, original))
            return
        # A module function is bound under its name in every module
        # that imported it: rebind each binding, by identity.
        original = getattr(module, attribute)
        wrapper = self._wrap(name, original)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._rebind(loaded, key, original, wrapper)

    def _rebind(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._installed.append((owner, key, original))

    def uninstall(self) -> None:
        """Put every original attribute back (idempotent)."""
        while self._installed:
            owner, key, original = self._installed.pop()
            setattr(owner, key, original)
        self._client_thread = None
        self._client_stack = []
        self.request_id = None

    # -- analysis ----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name, summed over all spans."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        totals: dict[str, float] = {}
        for span, _, _, name, start, end in self.spans:
            covered = _covered(children.get(span, ()), start, end)
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span, parent, request, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span, "parent": parent, "request": request,
                    "name": name, "start": start, "end": end,
                }) + "\n")


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def installed_wrappers() -> list[str]:
    """Every tracing wrapper still bound in a ``repro`` module or class
    (empty after :meth:`Tracer.uninstall`)."""
    found = []
    for module in list(sys.modules.values()):
        module_name = getattr(module, "__name__", "")
        if not module_name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if hasattr(value, MARK):
                found.append(f"{module_name}:{key}")
            elif isinstance(value, type):
                found.extend(
                    f"{module_name}:{key}.{method}"
                    for method, bound in vars(value).items()
                    if hasattr(bound, MARK)
                )
    return found
