"""Dangerous-permission counting against a versioned reference list.

The embedded list is the Google protection-level "dangerous" set as of
API 31. Pass a user-supplied file (one permission per line, '#'
comments) to override it when analysing older or newer targets.
"""

from __future__ import annotations

from dataclasses import dataclass

from apktriage.apkcore.manifest import ManifestInfo
from apktriage.util import list_file_entries, read_data_text


@dataclass(frozen=True)
class PermissionProfile:
    dangerous_count: int
    normal_count: int

    @property
    def all_count(self) -> int:
        return self.dangerous_count + self.normal_count


def load_dangerous_db(path=None) -> frozenset[str]:
    """The permissions listed in the file at ``path``, or in the embedded
    list when ``path`` is None; a list with none is a ``ValueError``."""
    perms = frozenset(list_file_entries(
        read_data_text(path, "dangerous_permissions.txt").splitlines()))
    if not perms:
        raise ValueError(f"{path}: the dangerous-permission list is empty")
    return perms


def permission_profile(m: ManifestInfo, dangerous_db: frozenset[str]) -> PermissionProfile:
    dangerous = len(m.permissions & dangerous_db)
    return PermissionProfile(dangerous_count=dangerous,
                             normal_count=len(m.permissions) - dangerous)
