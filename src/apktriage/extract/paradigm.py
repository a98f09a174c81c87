"""Native vs. hybrid development-paradigm classification."""

from __future__ import annotations

from apktriage.apkcore.artifact import ApkArtifact
from apktriage.genscan.fingerprints import GeneratorMatch

PARADIGM_NATIVE = "Native"
PARADIGM_HYBRID = "Hybrid"

_WEB_SUFFIXES = (".html", ".htm", ".js")
# embedded-browser engines shipped as native libraries
_BROWSER_LIBS = ("libxwalkcore.so", "libmttwebview.so", "libwebviewchromium.so")
# share of asset bytes in HTML/JS at which the assets count as a web app
WEB_BYTE_RATIO = 0.3


def classify_paradigm(apk: ApkArtifact, match: GeneratorMatch | None) -> str:
    """Hybrid iff a generator matched, or HTML/JS bytes dominate the
    assets, or a known embedded-browser framework is bundled."""
    if match is not None:
        return PARADIGM_HYBRID

    asset_bytes = web_bytes = 0
    for e in apk.entries:
        if e.path.startswith("assets/"):
            asset_bytes += e.size
            if e.path.lower().endswith(_WEB_SUFFIXES):
                web_bytes += e.size
    if asset_bytes and web_bytes / asset_bytes >= WEB_BYTE_RATIO:
        return PARADIGM_HYBRID

    if any(e.path.startswith("lib/") and e.path.rsplit("/", 1)[-1] in _BROWSER_LIBS
           for e in apk.entries):
        return PARADIGM_HYBRID
    return PARADIGM_NATIVE
