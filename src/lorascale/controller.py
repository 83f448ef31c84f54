"""End-to-end experiment orchestration.

Drives an experiment through its phases: load the device roster,
prompt the operator to switch devices on, wait out the experiment,
collect per-device packets from the network server, turn delivered and
sent counts out of the frame-counter sequence, shut devices down in
three priority tiers, and write the report files.

The controller is transport-agnostic: any object with a batch
``query(dev_euis, from_ts, to_ts)`` method works as the server client
(TCP client or a simulated world).  It returns one entry per EUI, in
request order, over the one closed window: the device's packets as
:data:`~lorascale.netserver.Columns`, a ``(timestamps, counters)`` pair
of equal-length sequences in time order, or the
``ProtocolError``/``OSError`` that failed that device alone; raising
fails every device of the call.  The pairs go through to the report as
they came: a failed device gets an empty one, and its reason is a string
from there to the report.  Any object with ``now()``/``sleep(dt)`` works
as the clock.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Iterator, Protocol

from .netserver import NO_PACKETS, Columns, ProtocolError, check_devices


class OrchestrationError(Exception):
    """The experiment cannot proceed (bad roster, dead server, ...)."""


class TurnOffAborted(OrchestrationError):
    """The turn-off stopped early; ``done`` holds what
    :func:`turn_off_sequence` returns, as far as it got."""

    def __init__(self, reason: str, done: tuple) -> None:
        super().__init__(reason)
        self.done = done


# --- clocks ---------------------------------------------------------------

class Clock(Protocol):
    def now(self) -> float: ...
    def sleep(self, seconds: float) -> None: ...


class RealClock:
    def now(self) -> float:
        return time.time()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


class VirtualClock:
    """Clock whose sleeps simply advance a counter; for replayed runs."""

    def __init__(self, start: float = 0.0):
        self._t = start

    def now(self) -> float:
        return self._t

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep a negative time")
        self._t += seconds


class WorldClock:
    """Clock that advances a live simulated world as time passes."""

    def __init__(self, world):
        self._world = world

    def now(self) -> float:
        return self._world.now

    def sleep(self, seconds: float) -> None:
        self._world.advance(seconds)


# --- operator interface ---------------------------------------------------

@dataclass(frozen=True)
class TurnOn:
    device_id: str


@dataclass(frozen=True)
class TurnOff:
    device_id: str


class Operator(Protocol):
    def prompt(self, action: TurnOn | TurnOff) -> bool: ...


class ScriptedOperator:
    """Replays a recorded list of confirm/skip replies."""

    def __init__(self, replies: Iterable[bool]):
        self._replies = list(replies)
        self._i = 0

    def prompt(self, action: TurnOn | TurnOff) -> bool:
        if self._i >= len(self._replies):
            raise OrchestrationError(
                f"operator script exhausted after {self._i} replies, "
                f"but {action} still needs an answer"
            )
        reply = self._replies[self._i]
        self._i += 1
        return reply


class SimulatedOperator:
    """Auto-confirms every prompt, toggling a simulated world if given."""

    def __init__(self, world=None):
        self._world = world
        self.transcript: list[tuple[TurnOn | TurnOff, bool]] = []

    def prompt(self, action: TurnOn | TurnOff) -> bool:
        if self._world is not None:
            self._world.set_active(action.device_id, isinstance(action, TurnOn))
        self.transcript.append((action, True))
        return True


# --- roster ---------------------------------------------------------------

@dataclass(frozen=True)
class RosterEntry:
    device_id: str
    dev_eui: str


class DeviceMatrix:
    """Ordered id <-> EUI mapping, held to :func:`~lorascale.netserver.check_devices`."""

    def __init__(self, entries: Iterable[RosterEntry]):
        self.entries = list(entries)
        if not self.entries:
            raise OrchestrationError("device matrix is empty")
        try:
            self._eui_by_id = check_devices((e.device_id, e.dev_eui) for e in self.entries)
        except ValueError as exc:
            raise OrchestrationError(str(exc)) from None

    @classmethod
    def _checked(cls, eui_by_id: dict[str, str]) -> DeviceMatrix:
        """The matrix of an ``id -> EUI`` table that already obeys the rule."""
        matrix = cls.__new__(cls)
        matrix.entries = [RosterEntry(*pair) for pair in eui_by_id.items()]
        matrix._eui_by_id = eui_by_id
        return matrix

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def ids(self) -> list[str]:
        return [e.device_id for e in self.entries]

    def eui_for(self, device_id: str) -> str:
        return self._eui_by_id[device_id]


def numbered_lines(path) -> Iterator[tuple[int, str]]:
    """The data lines of a line file, stripped, with their line numbers
    from 1; blank lines and ``#`` comment lines are skipped.  Rosters,
    mappings, configs, operator scripts and reports all read this way,
    and each refusal of a line names it as ``path:line``, as is a line
    that is not UTF-8 text (a ``ValueError``)."""
    # undecodable bytes become lone surrogates, which only a bad line holds
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for number, raw in enumerate(fh, 1):
            if not raw.isascii():
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError:
                    raise ValueError(f"{path}:{number}: not UTF-8 text") from None
            line = raw.strip()
            if line and line[0] != "#":
                yield number, line


def _device_table(path, pair, forms: bool = True) -> dict[str, str]:
    """:func:`~lorascale.netserver.check_devices` of the pairs that ``pair``
    reads from the data lines of ``path``; a line that ``pair`` refuses
    with a ``ValueError``, or whose device breaks the rule, names ``path:line``."""
    # read first, so a line that is not UTF-8 keeps numbered_lines' own message
    lines = list(numbered_lines(path))
    number = 0

    def pairs():
        nonlocal number
        for number, line in lines:
            yield pair(line)

    try:
        return check_devices(pairs(), forms)
    except ValueError as exc:
        raise OrchestrationError(f"{path}:{number}: {exc}") from None


def load_roster(experiment_table, mapping_table) -> DeviceMatrix:
    """Build the device matrix from the two roster files.

    The experiment table lists the ids taking part, one per line; an
    empty field after a comma, as a spreadsheet exports it, is allowed.
    The mapping table holds ``id,eui`` lines for the whole fleet, held to
    the matrix's rule.  The matrix keeps the experiment table's order.
    """
    def mapped(line: str) -> tuple[str, str]:
        device_id, _, eui = line.partition(",")
        if not eui.strip() or "," in eui:
            raise ValueError(f"expected 'id,eui', got {line!r}")
        return device_id.strip(), eui.strip()

    def listed(line: str) -> tuple[str, str]:
        device_id, _, rest = line.partition(",")
        device_id = device_id.strip()
        if rest.replace(",", "").strip():
            raise ValueError(f"expected one device id, got {line!r}")
        if device_id not in mapping:
            raise ValueError(f"unmapped id {device_id}")
        return device_id, mapping[device_id]

    mapping = _device_table(mapping_table, mapped)
    # listed pairs come from the checked mapping, so their forms are not checked again
    listed_devices = _device_table(experiment_table, listed, forms=False)
    if not listed_devices:
        raise OrchestrationError(f"experiment table {experiment_table} lists no devices")
    return DeviceMatrix._checked(listed_devices)


# --- report records ---------------------------------------------------------

@dataclass
class DeviceReport:
    device_id: str
    delivered: int = 0
    sent: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.delivered <= self.sent:
            raise ValueError("delivered must lie in [0, sent]")


@dataclass(frozen=True)
class ShutdownRecord:
    device_id: str
    at: float
    confirmed: bool
    priority: str  # "high" | "middle" | "low"


# --- phases ----------------------------------------------------------------

def _poll(entries: Iterable[RosterEntry], from_ts: float, to_ts: float, client
          ) -> tuple[dict[str, Columns], dict[str, str]]:
    """One batch query for every entry, in order, over one window.

    The only place the controller asks the server; with no entries it
    asks nothing.  A failed entry leaves its device with no packets and
    the failure's text as its reason, and a failed call does so for
    every device; what that means is the caller's decision.
    """
    entries = list(entries)
    packets: dict[str, Columns] = {}
    failures: dict[str, str] = {}
    if not entries:
        return packets, failures
    try:
        answers = client.query([e.dev_eui for e in entries], from_ts, to_ts)
    except (ProtocolError, OSError) as exc:
        answers = [exc] * len(entries)
    for entry, got in zip(entries, answers, strict=True):
        if isinstance(got, Exception):  # the exception that failed this device
            packets[entry.device_id] = NO_PACKETS
            failures[entry.device_id] = str(got)
        else:
            packets[entry.device_id] = got
    return packets, failures


def turn_on_sequence(matrix: DeviceMatrix, operator: Operator, client, clock: Clock,
                     probe_window: float, step: float = 0.0) -> set[str]:
    """Prompt devices on in matrix order, then probe for silent ones.

    After the prompts, ``probe_window`` seconds pass and every device
    without a single packet since the sequence began is flagged as a
    failed turn-on.  The server's data is the authority: a skipped or
    dead device shows up the same way, as silence.  A failed probe
    query aborts the run, naming the first reason.  When the clock has
    stepped back past the sequence's start, no inverted window is sent
    and every device counts as silent, so the turn-on verdict rests on
    the experiment window alone; the turn-off skips such a window too.
    """
    began = clock.now()
    for entry in matrix:
        operator.prompt(TurnOn(entry.device_id))
        if step > 0:
            clock.sleep(step)
    if probe_window > 0:
        clock.sleep(probe_window)
    ended = clock.now()
    if ended < began:
        return set(matrix.ids())
    packets, failures = _poll(matrix, began, ended, client)
    if failures:
        first = next(iter(failures.values()))
        raise OrchestrationError(f"server unreachable during turn-on probe: {first}")
    # a pair is never empty: silence is an empty timestamp column
    return {device_id for device_id, (ts, _) in packets.items() if not len(ts)}


def collect(matrix: DeviceMatrix, start_ts: float, end_ts: float, client
            ) -> tuple[dict[str, Columns], dict[str, str]]:
    """Every device's packets over the window; a failed query flags the device."""
    if end_ts <= start_ts:
        raise ValueError("experiment window is empty")
    return _poll(matrix, start_ts, end_ts, client)


def compute_counts(packets: Columns) -> tuple[int, int]:
    """(delivered, sent) from one device's frame-counter sequence, the
    counter column of its packets.

    Delivered is the number of distinct counter values seen.  Sent sums
    ``max - min + 1`` over monotone counter segments: counters only
    ever increase, so a decrease means the device restarted counting
    and must not produce a negative gap.
    """
    fcnts = packets[1]
    if not len(fcnts):
        return 0, 0
    delivered = len(set(fcnts))
    sent = 0
    seg_min = seg_max = fcnts[0]
    for fc in fcnts[1:]:
        if fc < seg_max:
            sent += seg_max - seg_min + 1
            seg_min = seg_max = fc
        else:
            seg_max = fc
    sent += seg_max - seg_min + 1
    return delivered, sent


# Recheck windows that wait for one settling poll at most.  The cap bounds
# a settle's reply to this many windows of traffic for each late responder.
_SETTLE_WINDOWS = 64


def turn_off_sequence(matrix: DeviceMatrix, reports: dict[str, DeviceReport],
                      operator: Operator, client, clock: Clock,
                      recheck_window: float, collect_failures: Iterable[str] = ()
                      ) -> tuple[list[ShutdownRecord], dict[str, str], dict[str, str]]:
    """Three-priority shutdown with late-responder detection.

    Devices that delivered during the experiment go first (high tier,
    matrix order).  After every shutdown ``recheck_window`` seconds pass,
    and that span is the shutdown's recheck window.  The waiting windows
    are settled by one poll of every still-silent device, in matrix
    order, over the span from the first window's start to the last one's
    end.  A device's earliest packet inside a window names that window,
    and a packet between windows is skipped.  A previously silent device
    so found is a late responder: it is appended to the middle tier, in
    (window, matrix) order, and is not polled again.  Windows are
    settled before a tier's queue runs dry, before a declined device is
    queued again, before a still-silent device is shut down, before a
    window that starts before the last one ends (the clock stepped back)
    and once ``_SETTLE_WINDOWS`` wait.  So the prompts, the log and the
    late responders are those that a poll right after each window would
    find.  A window whose clock stepped back past its start holds no
    packet and is not asked about.

    A device in ``collect_failures`` delivered nothing only because its
    collect query failed, which is no evidence of silence, so it is never
    rechecked.  Whatever is left forms the low tier.  A skipped device is
    retried once at the end of its tier, then logged as an unconfirmed
    shutdown.  A failed settle is skipped and its windows are not asked
    about again; each device's first reason is returned with the log and
    the late responders (detection order).  An operator that stops the
    sequence, with an :class:`OrchestrationError` or a
    ``KeyboardInterrupt``, makes it raise :class:`TurnOffAborted`.
    """
    high = deque(e.device_id for e in matrix if reports[e.device_id].delivered > 0)
    # still-silent devices not yet shut down, in matrix order
    unknown = set(collect_failures)
    pending = {e.device_id: e for e in matrix
               if reports[e.device_id].delivered == 0 and e.device_id not in unknown}
    middle: deque[str] = deque()
    late: dict[str, str] = {}
    failures: dict[str, str] = {}
    log: list[ShutdownRecord] = []
    retried: set[str] = set()
    # the waiting (device shut down, start, end) windows in time order,
    # each starting where or after the last one ends
    windows: list[tuple[str, float, float]] = []

    def window_of(ts: float) -> int:
        """Index of the waiting window that holds ``ts``; ``len(windows)`` if none does."""
        i = bisect_left(windows, ts, key=itemgetter(2))
        return i if i < len(windows) and windows[i][1] <= ts else len(windows)

    def settle(middle_open: bool) -> None:
        if not windows:
            return
        fresh, lost = _poll(pending.values(), windows[0][1], windows[-1][2], client)
        for device_id, reason in lost.items():
            # the poll is lost, not the run; the report keeps the reason
            failures.setdefault(device_id, f"turn-off recheck: {reason}")
        found = []
        for device_id, (ts, _) in fresh.items():
            first = min(map(window_of, ts), default=len(windows))
            if first < len(windows):
                found.append((first, device_id))
        found.sort(key=itemgetter(0))  # stable: matrix order within a window
        for i, device_id in found:
            late[device_id] = windows[i][0]
            del pending[device_id]
            if middle_open:
                middle.append(device_id)
            # once the low tier is formed, a late responder keeps
            # its slot there; the report still names it
        windows.clear()

    def drain(queue: deque[str], priority: str, middle_open: bool) -> None:
        while True:
            if not queue:
                settle(middle_open)  # may refill the middle tier
                if not queue:
                    return
            device_id = queue.popleft()
            confirmed = operator.prompt(TurnOff(device_id))
            if not confirmed and device_id not in retried:
                retried.add(device_id)
                settle(middle_open)  # late responders found so far queue first
                queue.append(device_id)
                continue
            if device_id in pending:
                settle(middle_open)  # it was still silent in every waiting window
                pending.pop(device_id, None)
            shutdown_at = clock.now()
            if windows and shutdown_at < windows[-1][2]:
                settle(middle_open)  # the clock stepped back: windows stay apart
            log.append(ShutdownRecord(device_id, shutdown_at, confirmed, priority))
            clock.sleep(recheck_window)
            window_end = clock.now()
            if shutdown_at <= window_end:
                windows.append((device_id, shutdown_at, window_end))
            if len(windows) >= _SETTLE_WINDOWS:
                settle(middle_open)

    try:
        drain(high, "high", middle_open=True)
        drain(middle, "middle", middle_open=True)
        logged = {r.device_id for r in log}
        drain(deque(d for d in matrix.ids() if d not in logged), "low", middle_open=False)
    except (OrchestrationError, KeyboardInterrupt) as exc:
        raise TurnOffAborted(str(exc) or "interrupted", (log, late, failures)) from exc
    return log, late, failures


# --- output files ----------------------------------------------------------

@dataclass
class ExperimentResult:
    """Each device's outcome lives in one record: its counts in
    ``reports``, and its id in ``turn_on_failures``, ``late_responders``
    or ``query_failures`` (id -> reason).  A device that delivered
    nothing and is no late responder never responded.  ``packets`` holds
    each device's collected packets as the client's columns, an empty
    pair for a failed query.  ``turn_off_aborted`` is why the turn-off
    stopped early, or empty when it ran to the end."""

    name: str
    matrix: DeviceMatrix
    reports: dict[str, DeviceReport]
    turn_on_failures: set[str]
    late_responders: dict[str, str]
    query_failures: dict[str, str]
    shutdown_log: list[ShutdownRecord]
    start_ts: float
    end_ts: float
    packets: dict[str, Columns]
    turn_off_aborted: str = ""


# A timestamp-file line, ``eui fcnt ts``: ``%s`` writes a counter as
# ``str`` does, and the lines of ``_STAMP_CHUNK`` packets are formatted by
# one ``%``, which bounds the text held at once.
_STAMP_FORMAT = "%s %s %.6f\n"
_STAMP_CHUNK = 1 << 14


def write_output(result: ExperimentResult, report_path, timestamp_path) -> None:
    """Write the main report and the auxiliary timestamp file.

    Report layout: experiment header, one line per failed turn-on, one
    ``id delivered sent`` line per roster device in matrix order, one
    trailer line per late responder, then ``# query-failed id reason``
    per failed device in matrix order, each whitespace run of the
    outside reason written as one space so the record stays one line,
    then ``# turn-off-aborted reason`` if the turn-off stopped early,
    then ``# shutdown-unconfirmed id`` per device whose shutdown the
    operator never confirmed, in matrix order; after an aborted turn-off
    that includes each device never shut down.
    The timestamp file lists every collected packet as ``eui fcnt ts``,
    ascending in time, then EUI, then counter.  Each device's columns are
    in store order (by time, then counter), as every query returns them,
    so one stable sort of the packets by time alone, gathered device by
    device in EUI order, gives that order.  Its lines are formatted
    ``_STAMP_CHUNK`` at a time, by one ``%`` of the repeated line format.
    """
    duration = result.end_ts - result.start_ts
    lines = [
        f"# experiment {result.name} start {result.start_ts:.6f} "
        f"end {result.end_ts:.6f} duration {duration:.6f}"
    ]
    for device_id in result.matrix.ids():
        if device_id in result.turn_on_failures:
            lines.append(f"# turn-on-failed {device_id}")
    for device_id in result.matrix.ids():
        report = result.reports[device_id]
        lines.append(f"{device_id} {report.delivered} {report.sent}")
    for device_id, after_id in result.late_responders.items():
        lines.append(f"# late-responder {device_id} after {after_id}")
    for device_id in result.matrix.ids():
        if device_id in result.query_failures:
            reason = result.query_failures[device_id].split()
            lines.append(" ".join(["# query-failed", device_id, *reason]))
    if result.turn_off_aborted:
        lines.append(" ".join(["# turn-off-aborted", *result.turn_off_aborted.split()]))
    # a device the turn-off never reached is unconfirmed only when it stopped early
    confirmed = {r.device_id: r.confirmed for r in result.shutdown_log}
    for device_id in result.matrix.ids():
        if not confirmed.get(device_id, not result.turn_off_aborted):
            lines.append(f"# shutdown-unconfirmed {device_id}")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    ts, fcnt, euis = [], [], []
    for device_id in sorted(result.matrix.ids(), key=result.matrix.eui_for):
        got_ts, got_fcnt = result.packets.get(device_id, NO_PACKETS)
        ts += got_ts
        fcnt += got_fcnt
        euis += repeat(result.matrix.eui_for(device_id), len(got_ts))
    order = sorted(range(len(ts)), key=ts.__getitem__)
    with open(timestamp_path, "w", encoding="utf-8") as fh:
        for lo in range(0, len(order), _STAMP_CHUNK):
            chunk = order[lo:lo + _STAMP_CHUNK]
            fields = [None] * (3 * len(chunk))
            fields[0::3] = map(euis.__getitem__, chunk)
            fields[1::3] = map(fcnt.__getitem__, chunk)
            fields[2::3] = map(ts.__getitem__, chunk)
            fh.write(_STAMP_FORMAT * len(chunk) % tuple(fields))


def parse_report(path) -> dict[str, DeviceReport]:
    """The counts of a :func:`write_output` report, by device id; the
    ``#`` lines are skipped.  A line that is no ``id delivered sent``
    record, or that repeats an earlier line's id, is a ``ValueError``
    that names it as ``path:line``."""
    reports: dict[str, DeviceReport] = {}
    for number, line in numbered_lines(path):
        try:
            device_id, delivered, sent = line.split()
            report = DeviceReport(device_id, int(delivered), int(sent))
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: not an 'id delivered sent' line: {exc}")
        if device_id in reports:
            raise ValueError(f"{path}:{number}: device {device_id} is listed twice")
        reports[device_id] = report
    return reports


# --- full workflow ----------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSettings:
    name: str
    duration: float
    probe_window: float
    recheck_window: float
    turnon_step: float = 0.0

    def __post_init__(self) -> None:
        if not self.name or any(c.isspace() for c in self.name):
            raise ValueError("experiment name must be a single non-empty token")
        if not 0 < self.duration < math.inf:
            raise ValueError("experiment duration must be finite and positive")
        if not all(0 <= w < math.inf
                   for w in (self.probe_window, self.recheck_window, self.turnon_step)):
            raise ValueError("windows must be finite and non-negative")


def run_experiment(matrix: DeviceMatrix, operator: Operator, client, clock: Clock,
                   settings: ExperimentSettings) -> ExperimentResult:
    """Execute every phase in order and return the assembled result,
    also when the turn-off stops early."""
    probe_silent = turn_on_sequence(
        matrix, operator, client, clock, settings.probe_window, settings.turnon_step
    )
    start_ts = clock.now()
    clock.sleep(settings.duration)
    end_ts = clock.now()
    packets, collect_failures = collect(matrix, start_ts, end_ts, client)
    reports = {device_id: DeviceReport(device_id, *compute_counts(got))
               for device_id, got in packets.items()}
    aborted = ""
    try:
        shutdown_log, late, recheck_failures = turn_off_sequence(
            matrix, reports, operator, client, clock, settings.recheck_window, collect_failures
        )
    except TurnOffAborted as exc:
        (shutdown_log, late, recheck_failures), aborted = exc.done, str(exc)
    return ExperimentResult(
        name=settings.name,
        matrix=matrix,
        reports=reports,
        # a live device can lose a whole probe to collisions, but not the experiment
        turn_on_failures={d for d in probe_silent if reports[d].delivered == 0},
        late_responders=late,
        # a device whose collect query failed is never rechecked
        query_failures={**recheck_failures, **collect_failures},
        shutdown_log=shutdown_log,
        start_ts=start_ts,
        end_ts=end_ts,
        packets=packets,
        turn_off_aborted=aborted,
    )
