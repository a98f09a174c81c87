"""Routine monitoring: one resolution + probe per domain per cadence tick."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

from apktriage.infrawatch.backends import BackendUnavailable, Prober, Resolver, WhoisClient
from apktriage.infrawatch.timeline import (
    DomainTimeline,
    Probe,
    Resolution,
    TimelineStore,
    _ts,
)

# a probe is Alive iff DNS resolves and the HTTP status is below this
DEAD_STATUS = 500


@dataclass(frozen=True)
class Window:
    start: datetime
    end: datetime

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError("window start must precede end")


def ticks(window: Window, cadence: timedelta):
    if cadence < timedelta(days=1):
        raise ValueError("cadence must be at least one day")
    t = window.start
    yield t
    while window.end - t >= cadence:  # never steps past the window, nor datetime.max
        t += cadence
        yield t


def monitor_tick(t: DomainTimeline, ts: datetime, stamp: str, resolver: Resolver,
                 prober: Prober, store: TimelineStore) -> None:
    """Run one inspection at ``ts``, which the store writes as ``stamp``,
    and append it to ``t`` and ``store`` once it is decided: a resolution
    and a probe, a resolution and a gap on a prober outage, or a gap alone
    on a resolver outage; an outage is never dropped. Any other exception
    from a backend appends nothing of the tick, so the store never holds
    half a tick. ``ts`` must come after every tick of ``t``: the records
    go onto its lists without the checks of ``add_resolution`` and
    ``add_probe``, which such a tick always passes."""
    domain = t.domain
    try:
        ips = resolver.resolve(domain, ts)
    except BackendUnavailable as e:
        gap = str(e)
        t.gaps.append((ts, gap))
        store.append(domain, {"ts": stamp, "kind": "gap", "payload": gap})
        return
    gap = None
    try:
        if not ips:
            alive, detail = False, "nxdomain"
        elif (status := prober.probe(domain, ts)) is None:
            alive, detail = False, "unreachable"
        else:
            alive, detail = status < DEAD_STATUS, f"{status // 100}xx"
    except BackendUnavailable as e:
        gap = str(e)
    t.resolutions.append(Resolution(ts, ips))
    if ips is not None and t._first_resolved is None:
        t._first_resolved = ts
    store.append(domain, {"ts": stamp, "kind": "resolution",
                          "payload": None if ips is None else sorted(ips)})
    if gap is None:
        t.probes.append(Probe(ts, alive, detail))
        store.append(domain, {"ts": stamp, "kind": "probe",
                              "payload": {"alive": alive, "detail": detail}})
    else:
        t.gaps.append((ts, gap))
        store.append(domain, {"ts": stamp, "kind": "gap", "payload": gap})


def schedule(domains, window: Window, cadence: timedelta,
             resolver: Resolver, prober: Prober, whois: WhoisClient | None,
             store: TimelineStore) -> dict[str, DomainTimeline]:
    """Monitor every domain across the window, resuming from the timelines
    persisted in ``store``: already-covered ticks are skipped.
    Ticks run as UTC whole seconds, the form the store keeps, so the
    returned timelines equal what the store loads back; each tick's
    stamp is formatted once per call. A whois record is
    stamped with the domain's first pending tick (the window's last tick
    when none is pending), so a resumed store matches an uninterrupted one
    byte for byte. Every domain is loaded, and its name checked, before the
    first tick runs. The store is closed on every exit, so an exception or
    an interrupt still writes every tick decided before it; a killed
    process loses the ticks of the domain in progress, which a resume runs
    again."""
    tick_list = [t.astimezone(timezone.utc).replace(microsecond=0)
                 for t in ticks(window, cadence)]
    stamps = [_ts(tick) for tick in tick_list]
    timelines = {d: store.load(d) for d in sorted(set(domains))}
    try:
        for domain, t in timelines.items():
            last = t.last_tick()
            # the ticks are strictly increasing: the pending ones are a suffix
            first = 0 if last is None else bisect_right(tick_list, last)
            if whois is not None and t.whois is None:
                rec = whois.lookup(domain)
                if rec is not None:
                    t.whois = rec
                    store.set_whois(domain, tick_list[min(first, len(tick_list) - 1)], rec)
            for tick, stamp in zip(tick_list[first:], stamps[first:]):
                monitor_tick(t, tick, stamp, resolver, prober, store)
    finally:
        store.close()
    return timelines
