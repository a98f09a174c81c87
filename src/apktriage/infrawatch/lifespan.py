"""Lifespan of a remote server: APK packing time to conservative end time."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

from apktriage.infrawatch.timeline import DomainTimeline, EmptyTimeline

END_OBSERVED_DEATH = "ObservedDeath"
END_STILL_ALIVE = "StillAliveAtWindowEnd"
END_DEAD_BEFORE_FIRST = "DeadBeforeFirstInspection"


@dataclass(frozen=True)
class LifespanRecord:
    domain: str
    start: datetime
    end: datetime
    end_kind: str

    @property
    def days(self) -> int:
        return max(int((self.end - self.start).total_seconds()) // 86400, 0)


def lifespan(t: DomainTimeline, manifest_mtime: datetime) -> LifespanRecord:
    """Start = manifest mtime. End: last Alive probe when death was
    observed; last inspection while still alive; first inspection when
    the server never answered."""
    if not t.probes:
        raise EmptyTimeline(t.domain)
    alive = [p for p in t.probes if p.alive]
    if not alive:
        end, kind = t.probes[0].ts, END_DEAD_BEFORE_FIRST
    elif t.probes[-1].alive:
        end, kind = t.probes[-1].ts, END_STILL_ALIVE
    else:
        end, kind = alive[-1].ts, END_OBSERVED_DEATH
    if end < manifest_mtime:
        end = manifest_mtime
    return LifespanRecord(domain=t.domain, start=manifest_mtime, end=end, end_kind=kind)


def lifespan_table(records):
    """(header, rows, mirror) of lifespan records, sorted by domain."""
    ordered = sorted(records, key=lambda r: r.domain)
    header = ["Domain", "Start", "End", "EndKind", "Days"]
    rows = [[r.domain, r.start.isoformat(), r.end.isoformat(), r.end_kind, r.days]
            for r in ordered]
    mirror = [{"domain": r.domain, "start": r.start.isoformat(),
               "end": r.end.isoformat(), "end_kind": r.end_kind,
               "days": r.days} for r in ordered]
    return header, rows, mirror
