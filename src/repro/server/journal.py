"""Durable job-state journal: a JSONL append log of query lifecycles.

Transient-server serving means the *front end* can die too, not just the
workers.  The journal makes the job server's admission state durable: every
query appends ``submitted`` / ``started`` / ``finished`` / ``rejected``
records (simulated timestamps, tenant, pool, cache key, result repr), so a
restarted :class:`~repro.server.jobserver.JobServer` can recover the set of
queries that were admitted but never finished and resume them
deterministically via :meth:`JobServer.resume`.

Query *callables* cannot be serialised faithfully (they close over live RDD
graphs), so recovery is by name: the restarting process supplies a registry
mapping query names back to callables — the same pattern as restart scripts
re-registering their prepared statements.  Replay is pure bookkeeping:
:func:`replay` folds the log into per-query final states, tolerating
duplicate submissions from previous recovery passes (last writer wins).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class JournalEntry:
    """Final replayed state of one journalled query."""

    name: str
    pool: str
    tenant: Optional[str] = None
    cache_key: Optional[str] = None
    submitted_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    ok: bool = False
    rejected: bool = False
    cached: bool = False
    error: Optional[str] = None
    result_repr: Optional[str] = None
    #: Raw event kinds seen for this query, in order.
    events: List[str] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        return self.finished_at is not None or self.rejected

    @property
    def pending(self) -> bool:
        """Admitted (queued or running) but never finished: resume these."""
        return not self.finished


class JobJournal:
    """Append-only JSONL writer for one server's query lifecycle events.

    Every record is a single JSON object on its own line with sorted keys,
    flushed on write — the durability contract is "whatever made it to the
    line boundary replays".  The file is opened in append mode so a
    restarted server keeps extending the same history, after cutting any
    torn last line (a write the crash interrupted) so the next record
    starts on a line of its own.
    """

    def __init__(self, path: str):
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        _cut_torn_tail(path)
        self._fh = open(path, "a", encoding="utf-8")
        self.entries_written = 0

    def record(self, event: str, **fields: Any) -> None:
        payload = {"event": event}
        for key, value in fields.items():
            if value is not None:
                payload[key] = value
        json.dump(payload, self._fh, sort_keys=True, separators=(",", ":"))
        self._fh.write("\n")
        self._fh.flush()
        self.entries_written += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _cut_torn_tail(path: str) -> None:
    """Truncate ``path`` after its last line end, if anything follows it."""
    if not os.path.exists(path):
        return
    with open(path, "rb+") as fh:
        if fh.seek(0, os.SEEK_END) == 0:
            return
        fh.seek(-1, os.SEEK_END)
        if fh.read(1) == b"\n":
            return
        fh.seek(0)
        fh.truncate(fh.read().rfind(b"\n") + 1)


def load_events(path: str) -> List[Dict[str, Any]]:
    """All journal events, in append order; [] for a missing file.

    An unterminated last line is a write the crash cut short and is not
    replayed; a terminated line that does not parse is damage, and raises
    ``ValueError`` naming the file and line.
    """
    if not os.path.exists(path):
        return []
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.endswith("\n"):
                break
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}: line {number} is not a journal record ({exc.msg})"
                ) from exc
    return events


def replay(path: str) -> Dict[str, JournalEntry]:
    """Fold the log into per-query final states (insertion-ordered).

    A re-submission of a name seen before (a recovery pass re-running a
    query) resets that query's lifecycle — last submission wins, matching
    the server's in-memory behaviour on resume.
    """
    entries: Dict[str, JournalEntry] = {}
    for event in load_events(path):
        kind = event.get("event")
        name = event.get("name")
        if not name:
            continue
        entry = entries.get(name)
        if kind == "submitted" or entry is None:
            fresh = JournalEntry(
                name=name,
                pool=event.get("pool", ""),
                tenant=event.get("tenant"),
                cache_key=event.get("cache_key"),
                submitted_at=event.get("t"),
            )
            if entry is not None:
                fresh.events = entry.events
            # Move-to-end keeps resume order = last-submission order.
            entries.pop(name, None)
            entries[name] = fresh
            entry = fresh
        entry.events.append(str(kind))
        if kind == "started":
            entry.started_at = event.get("t")
        elif kind == "finished":
            entry.finished_at = event.get("t")
            entry.ok = bool(event.get("ok"))
            entry.cached = bool(event.get("cached"))
            entry.error = event.get("error")
            entry.result_repr = event.get("result")
        elif kind == "rejected":
            entry.rejected = True
            entry.finished_at = event.get("t")
            entry.error = event.get("reason")
    return entries


def pending_queries(path: str) -> List[JournalEntry]:
    """Queries admitted but never finished, in original submission order."""
    return [entry for entry in replay(path).values() if entry.pending]
