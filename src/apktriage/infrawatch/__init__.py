from apktriage.infrawatch.backends import (
    BackendUnavailable,
    DnsResolver,
    HttpProber,
    ScriptedProber,
    ScriptedResolver,
    ScriptedWhois,
)
from apktriage.infrawatch.bindings import (
    KIND_FIXED,
    KIND_FLEXIBLE_I,
    KIND_FLEXIBLE_II,
    BindingClassification,
    BindingSegment,
    binding_segments,
    classify_bindings,
)
from apktriage.infrawatch.geo import GeoDb, cctld_country, distribution, geolocate
from apktriage.infrawatch.lifespan import (
    END_DEAD_BEFORE_FIRST,
    END_OBSERVED_DEATH,
    END_STILL_ALIVE,
    LifespanRecord,
    lifespan,
    lifespan_table,
)
from apktriage.infrawatch.registrants import registrant_stats
from apktriage.infrawatch.schedule import Window, monitor_tick, schedule, ticks
from apktriage.infrawatch.timeline import (
    DomainTimeline,
    EmptyTimeline,
    Probe,
    Resolution,
    TimelineStore,
    WhoisRecord,
)

__all__ = [
    "BackendUnavailable", "DnsResolver", "HttpProber",
    "ScriptedProber", "ScriptedResolver", "ScriptedWhois",
    "KIND_FIXED", "KIND_FLEXIBLE_I", "KIND_FLEXIBLE_II",
    "BindingClassification", "BindingSegment", "binding_segments",
    "classify_bindings", "GeoDb", "cctld_country", "distribution", "geolocate",
    "END_DEAD_BEFORE_FIRST", "END_OBSERVED_DEATH", "END_STILL_ALIVE",
    "LifespanRecord", "lifespan", "lifespan_table", "registrant_stats",
    "Window", "monitor_tick", "schedule", "ticks",
    "DomainTimeline", "EmptyTimeline", "Probe", "Resolution",
    "TimelineStore", "WhoisRecord",
]
