"""Handshake transcript bookkeeping and the measurement report schema.

Every handshake message is logged with its direction and exact wire size
(including the 4-byte handshake header).  ChangeCipherSpec is logged for
the size report but excluded from the transcript hash, matching how the
Finished computation treats it.  A message's bytes wait in a queue until
``absorb`` feeds them to the running hash, in the order they were added;
``transcript_hash`` absorbs whatever is still queued first, so the
Finished inputs are those of hashing each message as it is added.  A
message may be added as several parts (the record payloads it travels
in), which are hashed one after the other and never joined.  The
handshake channel absorbs a received message as it arrives and the
messages it sent once their flight is written, so the server's flight,
megabyte-scale certificate and all, leaves before the server hashes it,
and asking for the hash never re-reads the certificate.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import asdict, dataclass, field
from typing import Any

from ..errors import ParameterError
from .record import RecordLayer
from .wire import SUITE_NAMES, TemplateInfo, alert_name


@dataclass
class TranscriptEntry:
    message: str
    direction: str  # "sent" or "received"
    length: int


@dataclass
class HandshakeTranscript:
    entries: list[TranscriptEntry] = field(default_factory=list)
    local_template: TemplateInfo | None = None
    remote_template: TemplateInfo | None = None
    suite: int | None = None
    aborted: bool = False
    alert: int | None = None
    duration_ms: float | None = None
    # Record-layer counters, copied in when the handshake finishes.
    records_sent: int = 0
    records_received: int = 0
    writes: int = 0
    _hash: Any = field(default_factory=hashlib.sha512, repr=False)
    _unhashed: list = field(default_factory=list, repr=False)
    _started: float = field(default_factory=time.monotonic, repr=False)

    def add_message(self, name: str, direction: str, *parts: bytes) -> None:
        """Log a message, ``parts`` joined; they enter the hash at the
        next ``absorb``, one by one, and must not change until then."""
        length = sum(map(len, parts))
        self.entries.append(TranscriptEntry(message=name, direction=direction, length=length))
        self._unhashed.extend(parts)

    def absorb(self) -> None:
        """Hash every message part added since the last call, in order."""
        for data in self._unhashed:
            self._hash.update(data)
        self._unhashed.clear()

    def note_ccs(self, direction: str) -> None:
        # One-byte body, never part of the transcript hash.
        self.entries.append(TranscriptEntry(message="ChangeCipherSpec", direction=direction, length=1))

    def transcript_hash(self) -> bytes:
        """SHA-512 over every message added so far."""
        self.absorb()
        return self._hash.copy().digest()

    def finish(
        self,
        record: RecordLayer,
        suite: int | None = None,
        aborted: bool = False,
        alert: int | None = None,
    ) -> None:
        if suite is not None:
            self.suite = suite
        self.aborted = aborted
        self.alert = alert
        self.records_sent = record.records_sent
        self.records_received = record.records_received
        self.writes = record.writes
        self.duration_ms = (time.monotonic() - self._started) * 1000.0


def transcript_report(t: HandshakeTranscript) -> dict:
    """JSON-ready summary: per-message sizes, totals, negotiated suite,
    template views from both sides, duration, abort status, and the
    records and transport writes the handshake took."""
    sent = sum(e.length for e in t.entries if e.direction == "sent")
    received = sum(e.length for e in t.entries if e.direction == "received")
    return {
        "messages": [
            {"message": e.message, "direction": e.direction, "bytes": e.length}
            for e in t.entries
        ],
        "total_bytes": sent + received,
        "total_sent": sent,
        "total_received": received,
        "suite": None if t.suite is None else f"0x{t.suite:04X}",
        "suite_name": None if t.suite is None else SUITE_NAMES.get(t.suite),
        "templates": {
            "local": None if t.local_template is None else asdict(t.local_template),
            "remote": None if t.remote_template is None else asdict(t.remote_template),
        },
        "duration_ms": t.duration_ms,
        "aborted": t.aborted,
        "alert": t.alert,
        "alert_name": None if t.alert is None else alert_name(t.alert),
        "records": {
            "sent": t.records_sent,
            "received": t.records_received,
            "writes": t.writes,
        },
    }


def _stats(values: list) -> dict:
    return {"min": min(values), "median": statistics.median(values), "max": max(values)}


def aggregate_reports(reports: list[dict]) -> dict:
    """Fold per-handshake transcript reports into one report with
    min/median/max for every size and timing figure.  All runs must have
    followed the same message sequence."""
    first = reports[0]
    shape = [(m["message"], m["direction"]) for m in first["messages"]]
    for rep in reports[1:]:
        if [(m["message"], m["direction"]) for m in rep["messages"]] != shape:
            raise ParameterError("handshake runs diverged in message sequence")
    messages = []
    for idx, (name, direction) in enumerate(shape):
        sizes = [rep["messages"][idx]["bytes"] for rep in reports]
        messages.append(
            {"message": name, "direction": direction, "bytes": _stats(sizes)}
        )
    return {
        "repetitions": len(reports),
        "suite": first["suite"],
        "suite_name": first["suite_name"],
        "templates": first["templates"],
        "messages": messages,
        "total_bytes": _stats([rep["total_bytes"] for rep in reports]),
        "total_sent": _stats([rep["total_sent"] for rep in reports]),
        "total_received": _stats([rep["total_received"] for rep in reports]),
        "duration_ms": _stats([rep["duration_ms"] for rep in reports]),
        "aborted": any(rep["aborted"] for rep in reports),
        "records": {
            key: _stats([rep["records"][key] for rep in reports])
            for key in first["records"]
        },
    }
