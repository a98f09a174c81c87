"""Typed view of the fields the triage pipeline needs from a manifest."""

from __future__ import annotations

from dataclasses import dataclass

from apktriage.apkcore.axml import AxmlElement, parse_axml
from apktriage.apkcore.errors import ManifestUndecodable

ACTION_MAIN = "android.intent.action.MAIN"
CATEGORY_LAUNCHER = "android.intent.category.LAUNCHER"


@dataclass(frozen=True)
class ManifestInfo:
    package_name: str
    main_activity: str | None
    permissions: frozenset[str]


def _str_attr(elem: AxmlElement, name: str) -> str | None:
    """A string attribute's value, or None when it is absent. Any other
    value type makes the manifest undecodable."""
    value = elem.attr(name)
    if value is not None and not isinstance(value, str):
        raise ManifestUndecodable(f"<{elem.name}> attribute {name!r} is not a string")
    return value


def _is_launcher(activity: AxmlElement) -> bool:
    for intent in activity.find_all("intent-filter"):
        actions = {_str_attr(a, "name") for a in intent.find_all("action")}
        categories = {_str_attr(c, "name") for c in intent.find_all("category")}
        if ACTION_MAIN in actions and CATEGORY_LAUNCHER in categories:
            return True
    return False


def _qualify(name: str | None, package: str) -> str | None:
    if name is None:
        return None
    if name.startswith("."):
        return package + name
    if "." not in name:
        return f"{package}.{name}"
    return name


def parse_manifest(axml_bytes: bytes) -> ManifestInfo:
    root = parse_axml(axml_bytes)
    if root.name != "manifest":
        raise ManifestUndecodable(f"root element is <{root.name}>, not <manifest>")
    package = _str_attr(root, "package") or ""

    permissions = set()
    for up in root.find_all("uses-permission"):
        name = _str_attr(up, "name")
        if name:
            permissions.add(name)

    main_activity = None
    for app in root.find_all("application"):
        for tag in ("activity", "activity-alias"):
            for activity in app.find_all(tag):
                if _is_launcher(activity):
                    candidate = _qualify(_str_attr(activity, "name"), package)
                    if main_activity is None:
                        main_activity = candidate

    return ManifestInfo(
        package_name=package,
        main_activity=main_activity,
        permissions=frozenset(permissions),
    )
