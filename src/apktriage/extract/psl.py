"""Registrable-domain reduction against a public-suffix list snapshot.

The shipped snapshot (standard one-rule-per-line format, wildcard and
exception rules included) is trimmed to common suffixes; pass a full
list for exotic TLD coverage.
"""

from __future__ import annotations

from apktriage.util import read_data_text


class SuffixList:
    def __init__(self, rules: set[str], wildcards: set[str], exceptions: set[str]):
        self.rules = rules
        self.wildcards = wildcards
        self.exceptions = exceptions

    def registrable(self, host: str) -> str:
        """Return the registrable domain (public suffix + one label).

        A host that is itself a public suffix is returned unchanged; an
        unknown TLD falls back to the last two labels.
        """
        labels = host.lower().rstrip(".").split(".")
        suffix_len = 1  # unknown TLDs behave like a plain rule
        for i in range(len(labels)):
            cand = ".".join(labels[i:])
            parent = ".".join(labels[i + 1:])
            if cand in self.exceptions:
                suffix_len = len(labels) - i - 1
                break
            if cand in self.rules:
                suffix_len = len(labels) - i
                break
            if parent in self.wildcards:
                suffix_len = len(labels) - i
                break
        if suffix_len >= len(labels):
            return host.lower()
        return ".".join(labels[-(suffix_len + 1):])


def load_suffix_list(path=None) -> SuffixList:
    text = read_data_text(path, "public_suffix.dat")
    rules, wildcards, exceptions = set(), set(), set()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("//"):
            continue
        if line.startswith("!"):
            exceptions.add(line[1:])
        elif line.startswith("*."):
            wildcards.add(line[2:])
        else:
            rules.add(line)
    return SuffixList(rules, wildcards, exceptions)
