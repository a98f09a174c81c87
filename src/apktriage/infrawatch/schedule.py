"""Routine monitoring: one resolution + probe per domain per cadence tick."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

from apktriage.infrawatch.backends import BackendUnavailable, Prober, Resolver, WhoisClient
from apktriage.infrawatch.timeline import (
    DomainTimeline,
    Probe,
    Resolution,
    TimelineStore,
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


def monitor_tick(t: DomainTimeline, ts: datetime, resolver: Resolver, prober: Prober,
                 store: TimelineStore) -> None:
    """Run one inspection and append it to ``store`` once it is decided:
    a resolution and a probe, a resolution and a gap on a prober outage,
    or a gap alone on a resolver outage; an outage is never dropped. Any
    other exception from a backend appends nothing of the tick, so the
    store never holds half a tick."""
    try:
        ips = resolver.resolve(t.domain, ts)
    except BackendUnavailable as e:
        t.gaps.append((ts, str(e)))
        store.append_gap(t.domain, ts, str(e))
        return
    resolution = Resolution(ts=ts, ips=ips)
    try:
        if not ips:
            probe = Probe(ts=ts, alive=False, detail="nxdomain")
        elif (status := prober.probe(t.domain, ts)) is None:
            probe = Probe(ts=ts, alive=False, detail="unreachable")
        else:
            probe = Probe(ts=ts, alive=status < DEAD_STATUS, detail=f"{status // 100}xx")
    except BackendUnavailable as e:
        probe, gap = None, str(e)
    t.add_resolution(resolution)
    if probe is None:
        t.gaps.append((ts, gap))
    else:
        t.add_probe(probe)
    store.append_resolution(t.domain, resolution)
    if probe is None:
        store.append_gap(t.domain, ts, gap)
    else:
        store.append_probe(t.domain, probe)


def schedule(domains, window: Window, cadence: timedelta,
             resolver: Resolver, prober: Prober, whois: WhoisClient | None,
             store: TimelineStore) -> dict[str, DomainTimeline]:
    """Monitor every domain across the window, resuming from the timelines
    persisted in ``store``: already-covered ticks are skipped.
    Ticks run as UTC whole seconds, the form the store keeps, so the
    returned timelines equal what the store loads back. A whois record is
    stamped with the domain's first pending tick (the window's last tick
    when none is pending), so a resumed store matches an uninterrupted one
    byte for byte. Every domain is loaded, and its name checked, before the
    first tick runs. The store is closed on every exit, so an exception or
    an interrupt still writes every tick decided before it; a killed
    process loses the ticks of the domain in progress, which a resume runs
    again."""
    tick_list = [t.astimezone(timezone.utc).replace(microsecond=0)
                 for t in ticks(window, cadence)]
    timelines = {d: store.load(d) for d in sorted(set(domains))}
    try:
        for domain, t in timelines.items():
            last = t.last_tick()
            pending = [tick for tick in tick_list if last is None or tick > last]
            if whois is not None and t.whois is None:
                rec = whois.lookup(domain)
                if rec is not None:
                    t.whois = rec
                    store.set_whois(domain, pending[0] if pending else tick_list[-1], rec)
            for tick in pending:
                monitor_tick(t, tick, resolver, prober, store)
    finally:
        store.close()
    return timelines
