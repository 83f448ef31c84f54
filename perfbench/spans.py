"""In-memory spans recorded around calls into the lorascale layers.

A :class:`Tracer` replaces public functions and methods with wrappers
that record one span per call: id, name, start and end (perf_counter
nanoseconds), the id of the enclosing span on the same thread, the id
of the benchmark unit it ran in, a work count taken from the call's
arguments or result, and the exception type if the call raised.
Callers inside lorascale look these names up as module or class
attributes at call time, so a wrapper installed from outside sees every
call.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import itertools
import json
import threading
import time

ID, NAME, START, END, PARENT, RUN, COUNT, ERROR = range(8)


def _events(args, result):
    return len(args[0])


def _length(args, result):
    return len(result)


def driver_targets():
    """(owner, attribute, span name, count) for the driver process."""
    from lorascale import controller, kernels, netserver, simulator, world

    return [
        (kernels, "mark_any_overlap", "kernels.any_overlap", _events),
        (kernels, "mark_window", "kernels.window", _events),
        (simulator, "run", "simulator.run", lambda a, r: int(r.dev.size)),
        (simulator, "estimate_pdr", "simulator.estimate_pdr", lambda a, r: r.sent),
        (simulator, "write_packet_log", "simulator.write_packet_log", lambda a, r: r),
        (world.SimWorld, "advance", "world.advance", None),
        (world.SimWorld, "query", "world.query", _length),
        (world.SimWorld, "ground_truth", "world.ground_truth", None),
        (controller, "turn_on_sequence", "controller.turn_on", _length),
        (controller, "collect", "controller.collect", None),
        (controller, "compute_counts", "controller.compute_counts", None),
        (controller, "turn_off_sequence", "controller.turn_off", None),
        (controller, "write_output", "controller.write_output", None),
        (netserver.NetClient, "query", "netserver.client_query", _length),
    ]


def server_targets():
    """(owner, attribute, span name, count) for the server process."""
    from lorascale import netserver

    return [
        (netserver.PacketStore, "ingest_file", "netserver.ingest_file", lambda a, r: r[0]),
        (netserver.PacketStore, "query", "netserver.store_query", _length),
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []

    def install(self, targets) -> None:
        for owner, attr, name, count in targets:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name, count):
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [next(ids), name, 0, 0, stack[-1] if stack else None, self.run_id, 0, None]
            spans.append(span)
            stack.append(span[ID])
            span[START] = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def dump(self, path) -> None:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "run", "count", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def load(path) -> list[list]:
    with open(path, "r", encoding="utf-8") as fh:
        return [[d["id"], d["name"], d["start_ns"], d["end_ns"], d["parent"], d["run"],
                 d["count"], d["error"]] for d in map(json.loads, fh)]


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part of it its child spans cover (ns)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = {}
    for span in spans:
        lo, hi = span[START], span[END]
        covered, reach = 0, lo
        for start, end in sorted(children.get(span[ID], ())):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out[span[ID]] = (hi - lo) - covered
    return out
