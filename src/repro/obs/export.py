"""Trace export and inspection: the one home of the Chrome format.

Recorders keep cycle-valued records
(:class:`~repro.obs.recorder.TraceRecord`); this module is the only code
that knows the Chrome/Perfetto ``trace_event`` JSON format (microsecond
``ts``/``dur``, ``0x…`` async ids, ``M`` metadata events naming processes
and threads).
:func:`chrome_events` converts a recorder's records to event dicts and
:func:`write_chrome_trace` streams them into a file loadable by
https://ui.perfetto.dev and ``chrome://tracing``; :func:`recorder_from_chrome`
is the inverse, rebuilding a recorder from saved events so the post-hoc
profiler stitches exactly what the live one did.  :func:`load_trace`,
:func:`load_trace_payload`, :func:`trace_layers`, and
:func:`busiest_components` are the read-side helpers used by the CLI
summary, the trace example, the post-hoc profiler, and the tests.
"""

from __future__ import annotations

import json
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.obs.recorder import TraceRecord, TraceRecorder

#: Events encoded per ``json.dumps`` call while streaming a trace file.
_WRITE_CHUNK = 4096


class TraceFormatError(ValueError):
    """A trace file is unreadable: truncated/partial JSON (e.g. a run
    killed mid-write) or a payload without a ``traceEvents`` array."""


def _us(cycles: int, tck_ns: float) -> float:
    return cycles * tck_ns / 1000.0


def _cycles(us: float, tck_ns: float) -> int:
    return int(round(float(us) * 1000.0 / tck_ns))


def _chrome_event(record: TraceRecord, tck_ns: float) -> Dict[str, object]:
    """One record as a Chrome ``trace_event`` dict (times in µs)."""
    ph, cat, name, pid, tid, cycle, dur, event_id, args = record
    if ph == "X":
        event = {"ph": ph, "cat": cat, "name": name, "pid": pid, "tid": tid,
                 "ts": _us(cycle, tck_ns), "dur": _us(dur, tck_ns)}
    elif ph == "i":
        event = {"ph": ph, "s": "t", "cat": cat, "name": name, "pid": pid,
                 "tid": tid, "ts": _us(cycle, tck_ns)}
    elif ph in ("b", "e"):
        event = {"ph": ph, "cat": cat, "name": name, "id": f"0x{event_id:x}",
                 "pid": pid, "tid": tid, "ts": _us(cycle, tck_ns)}
    else:
        event = {"ph": ph, "cat": cat, "name": name, "pid": pid, "tid": tid,
                 "ts": _us(cycle, tck_ns)}
    if args is not None:
        event["args"] = args
    return event


def chrome_events(recorder: TraceRecorder) -> Iterator[Dict[str, object]]:
    """Yield ``recorder``'s ``traceEvents``: ``M`` events naming every
    process (system) and thread (component path), then every record."""
    for pid, name in sorted(recorder.process_names.items()):
        yield {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
               "args": {"name": name}}
    for (pid, path), tid in sorted(recorder.thread_ids.items(),
                                   key=lambda item: item[1]):
        yield {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
               "args": {"name": path}}
    tck_ns = recorder.tck_ns
    for record in recorder.events:
        yield _chrome_event(record, tck_ns)


def recorder_from_chrome(
    events: Iterable[Dict[str, object]], tck_ns: float = 1.25
) -> TraceRecorder:
    """Inverse of :func:`chrome_events`: a recorder holding the events as
    cycle records, with process and thread names from the ``M`` events."""
    recorder = TraceRecorder(tck_ns=tck_ns, limit=None)
    for event in events:
        ph = event["ph"]
        pid = int(event.get("pid", 0))
        tid = int(event.get("tid", 0))
        if ph == "M":
            name = (event.get("args") or {}).get("name")
            if event.get("name") == "process_name" and name is not None:
                recorder.process_names[pid] = str(name)
            elif event.get("name") == "thread_name" and name is not None:
                recorder.thread_ids[(pid, str(name))] = tid
            continue
        recorder.events.append(TraceRecord(
            ph, event.get("cat", ""), event.get("name", ""), pid, tid,
            _cycles(event.get("ts", 0.0), tck_ns),
            _cycles(event.get("dur", 0.0), tck_ns) if ph == "X" else 0,
            int(event["id"], 16) if ph in ("b", "e") else None,
            event.get("args"),
        ))
    return recorder


def write_chrome_trace(recorder: TraceRecorder, path: str) -> int:
    """Write ``recorder``'s events as a Chrome trace JSON file.

    Returns the number of trace events written (metadata included).  The
    events are converted and encoded a chunk at a time, so writing never
    holds more than one chunk of event dicts.  ``otherData`` carries the
    recorder bookkeeping the post-hoc profiler needs: ``tck_ns``, drop
    counts, a ``truncated`` flag, and the exact final engine clock per
    trace pid (``runtimes_cycles``).
    """
    other = {
        "generator": "repro.obs",
        "tck_ns": recorder.tck_ns,
        "recorded": recorder.recorded,
        "dropped": recorder.dropped,
        "truncated": recorder.dropped > 0,
        "runtimes_cycles": {
            str(pid): cycles
            for pid, cycles in sorted(recorder.runtimes.items())
        },
    }
    written = 0
    events = chrome_events(recorder)
    with open(path, "w", encoding="utf-8") as handle:
        # Byte-for-byte what ``json.dump`` writes for the whole payload.
        handle.write('{"traceEvents": [')
        while True:
            chunk = list(islice(events, _WRITE_CHUNK))
            if not chunk:
                break
            if written:
                handle.write(", ")
            handle.write(json.dumps(chunk)[1:-1])
            written += len(chunk)
        handle.write('], "displayTimeUnit": "ns", "otherData": ')
        handle.write(json.dumps(other))
        handle.write("}\n")
    return written


def load_trace_payload(path: str) -> Dict[str, object]:
    """Load a trace file as its full payload dict.

    Accepts both the object format written by :func:`write_chrome_trace`
    (returned as-is, ``otherData`` included) and a bare JSON event array
    (wrapped as ``{"traceEvents": [...]}``).  Raises
    :class:`TraceFormatError` — naming the file — on truncated or
    malformed JSON and on payloads without a ``traceEvents`` array,
    instead of surfacing a bare ``json.JSONDecodeError``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                f"{path} is not a valid trace file (truncated or partial "
                f"JSON? {exc.msg} at line {exc.lineno} column {exc.colno})"
            ) from exc
    if isinstance(payload, list):
        return {"traceEvents": payload}
    if not isinstance(payload, dict) or not isinstance(
        payload.get("traceEvents"), list
    ):
        raise TraceFormatError(
            f"{path} is not a trace file: expected a JSON event array or "
            "an object with a 'traceEvents' array"
        )
    return payload


def load_trace(path: str) -> List[Dict[str, object]]:
    """Load a trace file; returns its ``traceEvents`` list.

    Accepts both the object format written here and a bare JSON array
    (the other legal ``trace_event`` container); raises
    :class:`TraceFormatError` on unreadable files (see
    :func:`load_trace_payload`).
    """
    return list(load_trace_payload(path)["traceEvents"])


def trace_layers(events: Sequence[Dict[str, object]]) -> frozenset:
    """Categories present among non-metadata events."""
    return frozenset(
        str(e["cat"]) for e in events if e.get("ph") != "M" and "cat" in e
    )


def busiest_components(
    recorder: TraceRecorder, n: int = 5
) -> List[Tuple[str, float]]:
    """Top ``n`` components by total span time.

    Returns ``[(component path, total busy microseconds), ...]`` sorted
    busiest-first, each path qualified as ``pid<N>:<path>`` so the same
    component in two simulated systems stays distinguishable.  Complete
    (``"X"``) spans contribute their duration; async (``"b"``/``"e"``)
    lifetime spans contribute end minus begin, matched by
    ``(pid, cat, name, id)`` and attributed to the component that opened
    the span — so task-lifetime activity ranks consistently with
    duration spans instead of being ignored.  Instants and counters carry
    no duration.  For a saved file, pass :func:`recorder_from_chrome` of
    its events.
    """
    busy: Dict[Tuple[int, int], int] = {}
    open_async: Dict[Tuple[int, str, str, int], Tuple[int, int]] = {}
    for ph, cat, name, pid, tid, cycle, dur, event_id, _args in recorder.events:
        if ph == "X":
            busy[(pid, tid)] = busy.get((pid, tid), 0) + dur
        elif ph == "b":
            open_async[(pid, cat, name, event_id)] = (cycle, tid)
        elif ph == "e":
            opened = open_async.pop((pid, cat, name, event_id), None)
            if opened is None or cycle <= opened[0]:
                continue
            key = (pid, opened[1])
            busy[key] = busy.get(key, 0) + cycle - opened[0]
    names = recorder.thread_names()
    ranked = sorted(busy.items(), key=lambda item: (-item[1], item[0]))[:n]
    return [
        (f"pid{key[0]}:{names[key]}" if key in names
         else f"pid{key[0]}.tid{key[1]}", _us(total, recorder.tck_ns))
        for key, total in ranked
    ]
