"""Layer spans for the traced run, recorded from outside the program.

:func:`install` wraps the public entry points of each layer (listed in
:func:`_entry_points`) with the spans of a :class:`Tracer`;
:func:`uninstall` puts the originals back.  The program itself carries
no tracing code.

Every call becomes a span: name, parent span, ``(client_id, req)`` tag
when the arguments carry one, start, end, and *active* time.  Coroutine
entry points are driven step by step, so a span's active time counts
only the steps its coroutine actually ran, not the time it sat suspended
waiting for a reply; ``end - start - active`` of a client operation is
its reply wait.  A span's self time is its active time minus the active
time of the child spans it called.  Since one thread runs the event
loop, steps nest properly and a single span stack is exact.
"""

from __future__ import annotations

import copy
import functools
import inspect
import sys
import time
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

_now = time.perf_counter

#: Spans kept in memory for the JSONL dump (aggregates cover all spans).
MAX_KEPT_SPANS = 20_000


def _entry_points() -> List[Tuple[str, Any, str]]:
    """``(span name, owner, attribute)`` for every wrapped entry point."""
    from repro.checkers import sc, tsc
    from repro.core import history, timed
    from repro.engine.cache import CacheEngine
    from repro.engine.server import ServerEngine
    from repro.net import framing
    from repro.net.client import NetCacheClient
    from repro.store.recovery import DurableStore

    points = [
        ("net.client.read", NetCacheClient, "read"),
        ("net.client.write", NetCacheClient, "write"),
        ("net.framing.encode", framing, "encode_frame"),
        ("net.framing.decode", framing, "decode_frame"),
        ("net.framing.send", framing.FrameConnection, "send"),
        ("net.framing.recv", framing.FrameConnection, "recv"),
        ("engine.server.execute", ServerEngine, "execute"),
        ("engine.server.replay", ServerEngine, "replay"),
        ("engine.cache.lookup", CacheEngine, "lookup"),
        ("engine.cache.rule3", CacheEngine, "rule3"),
        ("engine.cache.install_fetched", CacheEngine, "install_fetched"),
        ("store.open", DurableStore, "open"),
        ("store.log_write", DurableStore, "log_write"),
        ("store.log_writes", DurableStore, "log_writes"),
        ("store.snapshot", DurableStore, "snapshot"),
        ("checkers.check_tsc", tsc, "check_tsc"),
        ("checkers.check_sc", sc, "check_sc"),
        ("checkers.late_reads", timed, "late_reads"),
        ("core.history.build", history.History, "__init__"),
    ]
    for name in sorted(vars(CacheEngine)):
        if name.startswith("apply_"):
            points.append((f"engine.cache.{name}", CacheEngine, name))
    return points


#: Span names by layer; a layer's self time is the sum over its spans.
LAYERS = (
    "net.client", "net.framing", "engine.server", "engine.cache",
    "store", "checkers", "core.history",
)


def layer_of(span_name: str) -> str:
    for layer in LAYERS:
        if span_name.startswith(layer + "."):
            return layer
    raise KeyError(span_name)


class Stat:
    """Per-name aggregates: completed calls, self, active and wall seconds."""

    __slots__ = ("calls", "self_s", "active_s", "wall_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.active_s = 0.0
        self.wall_s = 0.0

    def add(self, other: "Stat", factor: float) -> None:
        """Add ``other``, its times multiplied by ``factor``."""
        self.calls += other.calls
        self.self_s += other.self_s * factor
        self.active_s += other.active_s * factor
        self.wall_s += other.wall_s * factor


class Span:
    __slots__ = (
        "sid", "name", "parent", "tag", "start", "end", "active", "stat",
        "step_start", "child",
    )

    def __init__(self, sid, name, parent, start, stat) -> None:
        self.sid = sid
        self.name = name
        self.parent = parent
        self.tag = None
        self.start = start
        self.end = 0.0
        self.active = 0.0
        self.stat = stat
        self.step_start = 0.0
        self.child = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.sid, "name": self.name, "parent": self.parent,
            "tag": self.tag, "start": self.start, "end": self.end,
            "active": self.active,
        }


def _tag(name: str, args: tuple, kwargs: dict) -> Optional[Tuple[Any, Any]]:
    """``(client_id, req)`` when the call's arguments carry it."""
    if name == "engine.server.replay":
        key = args[1] if len(args) > 1 else None
        return tuple(key) if isinstance(key, tuple) else None
    client_id = None
    owner = args[0] if args else None
    if name.startswith("net.client."):
        client_id = owner.client_id
    elif name == "engine.server.execute" and len(args) > 1:
        client_id = args[1]
    elif name.startswith("engine.cache.") and owner is not None:
        client_id = owner.site_id
    req = kwargs.get("req")
    if req is None:
        for arg in args:
            if isinstance(arg, dict) and "req" in arg:
                req = arg["req"]
                break
    if client_id is None and req is None:
        return None
    return (client_id, req)


class Tracer:
    """Collects spans and per-name aggregates while installed."""

    def __init__(self) -> None:
        self.stack: List[Span] = []
        self.next_id = 0
        self.kept: List[Span] = []
        self.stats: Dict[str, Stat] = {}

    def take(self) -> Dict[str, Stat]:
        """The aggregates since the last take; the live ones restart at 0."""
        taken = {}
        for name, stat in self.stats.items():
            taken[name] = copy.copy(stat)
            stat.__init__()
        return taken

    def open(self, name: str, stat: Stat, args: tuple, kwargs: dict) -> Span:
        self.next_id += 1
        stack = self.stack
        span = Span(self.next_id, name, stack[-1].sid if stack else None, _now(), stat)
        if len(self.kept) < MAX_KEPT_SPANS:
            span.tag = _tag(name, args, kwargs)
        return span

    def enter(self, span: Span) -> None:
        span.child = 0.0
        self.stack.append(span)
        span.step_start = _now()

    def leave(self, span: Span, done: bool) -> None:
        now = _now()
        elapsed = now - span.step_start
        stack = self.stack
        stack.pop()
        span.active += elapsed
        stat = span.stat
        stat.self_s += elapsed - span.child
        if stack:
            stack[-1].child += elapsed
        if done:
            span.end = now
            stat.calls += 1
            stat.active_s += span.active
            stat.wall_s += now - span.start
            if len(self.kept) < MAX_KEPT_SPANS:
                self.kept.append(span)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A traced twin of ``fn``.  A coroutine function becomes a
        generator-based coroutine that steps the original coroutine,
        timing each step as part of the span."""
        tracer = self
        stat = self.stats.setdefault(name, Stat())
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            @types.coroutine
            def traced_coroutine(*args, **kwargs):
                span = tracer.open(name, stat, args, kwargs)
                coro = fn(*args, **kwargs)
                value: Any = None
                error: Optional[BaseException] = None
                while True:
                    tracer.enter(span)
                    try:
                        if error is None:
                            yielded = coro.send(value)
                        else:
                            yielded = coro.throw(error)
                    except StopIteration as stop:
                        tracer.leave(span, done=True)
                        return stop.value
                    except BaseException:
                        tracer.leave(span, done=True)
                        raise
                    tracer.leave(span, done=False)
                    try:
                        value, error = (yield yielded), None
                    except GeneratorExit:
                        coro.close()
                        raise
                    except BaseException as exc:  # delivered into the coroutine
                        value, error = None, exc

            return traced_coroutine

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name, stat, args, kwargs)
            tracer.enter(span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave(span, done=True)

        return traced


Patches = List[Tuple[Any, str, Any]]


def install(tracer: Tracer) -> Patches:
    """Wrap every entry point; returns the patches for :func:`uninstall`.
    Module-level functions are also replaced in every ``repro`` module
    that imported them by name, so callers inside the program reach the
    wrapper too."""
    patches: Patches = []
    for name, owner, attr in _entry_points():
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original)
        if inspect.ismodule(owner):
            for module in list(sys.modules.values()):
                if (
                    module is not None
                    and getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, attr, None) is original
                ):
                    patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
        else:
            # An inherited method is shadowed, then the shadow deleted.
            own = attr in vars(owner)
            patches.append((owner, attr, original if own else None))
            setattr(owner, attr, wrapper)
    return patches


def uninstall(patches: Patches) -> None:
    for owner, attr, original in reversed(patches):
        if original is None:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)
    patches.clear()
