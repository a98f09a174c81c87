"""Payment-session classification: third-party vs. fourth-party services.

A session groups the payment requests one app issued against one payment
endpoint. A licensed third-party service always points at a single stable
merchant; a fourth-party aggregator rotates recipient accounts (or fans a
single unlicensed domain out over many merchants) to evade tracing.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation

from apktriage.util import list_file_entries, pct, read_json_lines

KIND_THIRD_PARTY = "ThirdParty"
KIND_FOURTH_PARTY = "FourthParty"
KIND_INDETERMINATE = "Indeterminate"

CHANNEL_RAIL = "ThirdPartyRail"
CHANNEL_BANK = "BankTransfer"
CHANNEL_DIGITAL = "DigitalCurrency"
CHANNEL_UNKNOWN = "Unknown"

CHANNELS = (CHANNEL_RAIL, CHANNEL_BANK, CHANNEL_DIGITAL, CHANNEL_UNKNOWN)

# Recipient-identifier shapes that mark a digital-currency address even when
# the observation carries no channel hint: base58-style (BTC-like) and
# bech32/hex-style (segwit, EVM) addresses.
DIGITAL_PATTERNS = tuple(re.compile(p) for p in (
    r"^[13][1-9A-HJ-NP-Za-km-z]{25,34}$",
    r"^bc1[02-9ac-hj-np-z]{11,71}$",
    r"^0x[0-9a-fA-F]{40}$",
    r"^T[1-9A-HJ-NP-Za-km-z]{33}$",
))

MIN_CONFIDENT_OBSERVATIONS = 3


class EmptySession(ValueError):
    """A session must contain at least one observation."""


@dataclass(frozen=True)
class PaymentObservation:
    session_id: str
    request_index: int
    amount: Decimal
    payment_domain: str
    recipient_id: str
    channel_hint: str = CHANNEL_UNKNOWN

    def __post_init__(self):
        if self.amount <= 0:
            raise ValueError(f"amount must be positive, got {self.amount}")
        if self.channel_hint not in CHANNELS:
            raise ValueError(f"unknown channel hint {self.channel_hint!r}")


@dataclass(frozen=True)
class PaymentClassification:
    session_id: str
    service_kind: str
    channel: str
    evidence: tuple[str, ...] = field(default_factory=tuple)


def _infer_channel(obs) -> tuple[str, list[str]]:
    """The channel of a non-empty session, with its evidence."""
    hints = Counter(o.channel_hint for o in obs if o.channel_hint != CHANNEL_UNKNOWN)
    if hints:
        channel = max(sorted(hints), key=lambda c: hints[c])
        return channel, [f"majority channel hint {channel} ({hints[channel]}/{len(obs)})"]
    if all(any(p.match(o.recipient_id) for p in DIGITAL_PATTERNS) for o in obs):
        return CHANNEL_DIGITAL, [f"all {len(obs)} recipient identifiers match "
                                 "digital-currency address syntax"]
    return CHANNEL_UNKNOWN, []


def classify_session(obs, licensed_db) -> PaymentClassification:
    """Classify one session.

    ThirdParty: licensed payment domain and a single stable recipient.
    FourthParty: more than one distinct recipient. Fewer than three
    observations never yield a confident verdict (Indeterminate).
    """
    obs = sorted(obs, key=lambda o: o.request_index)
    if not obs:
        raise EmptySession("session contains no observations")
    session_id = obs[0].session_id
    indices = [o.request_index for o in obs]
    if len(set(indices)) != len(indices):
        raise ValueError("duplicate request_index within session")

    channel, evidence = _infer_channel(obs)
    recipients = {o.recipient_id for o in obs}
    domains = {o.payment_domain.lower() for o in obs}
    licensed = all(d in licensed_db for d in domains)

    if len(obs) < MIN_CONFIDENT_OBSERVATIONS:
        evidence.append(
            f"only {len(obs)} observation(s); need "
            f"{MIN_CONFIDENT_OBSERVATIONS} for a confident verdict")
        return PaymentClassification(session_id, KIND_INDETERMINATE,
                                     channel, tuple(evidence))

    if len(recipients) > 1:
        evidence.append(
            f"{len(recipients)} distinct recipients over {len(obs)} requests")
        kind = KIND_FOURTH_PARTY
    elif licensed:
        evidence.append(
            f"licensed domain(s) {sorted(domains)} with a single stable recipient")
        kind = KIND_THIRD_PARTY
    else:
        evidence.append("unlicensed domain but a single stable recipient")
        kind = KIND_INDETERMINATE
    return PaymentClassification(session_id, kind, channel, tuple(evidence))


def channel_breakdown(classifications):
    """Channel distribution over fourth-party sessions.

    Returns (rows, notice): rows are (channel, count, percentage) with
    percentages over all fourth-party sessions including Unknown, so the
    column sums to 100 within rounding. An empty result carries an
    explicit notice instead of silent emptiness.
    """
    fourth = [c for c in classifications if c.service_kind == KIND_FOURTH_PARTY]
    if not fourth:
        return [], "no fourth-party sessions observed"
    counts = Counter(c.channel for c in fourth)
    total = len(fourth)
    rows = [(ch, counts[ch], pct(counts[ch], total))
            for ch in CHANNELS if counts[ch]]
    return rows, None


def _observation(rec) -> PaymentObservation:
    """One observation from its decoded JSON line; ``ValueError`` when
    ``rec`` is not one."""
    if type(rec) is not dict:
        raise ValueError("an observation is a JSON object")
    for key in ("session_id", "payment_domain", "recipient_id"):
        if type(rec.get(key)) is not str:
            raise ValueError(f"{key!r} must be a string")
    hint, index, amount = (rec.get("channel_hint", CHANNEL_UNKNOWN),
                           rec.get("request_index"), rec.get("amount"))
    if type(hint) is not str:
        raise ValueError("'channel_hint' must be a string")
    if type(index) is not int:
        raise ValueError("'request_index' must be an integer")
    if type(amount) not in (str, int, float):
        raise ValueError("'amount' must be a string or a number")
    try:
        value = Decimal(str(amount))
    except InvalidOperation:
        value = None
    if value is None or not value.is_finite():
        raise ValueError(f"'amount' must be a finite decimal, got {amount!r}")
    return PaymentObservation(session_id=rec["session_id"], request_index=index,
                              amount=value, payment_domain=rec["payment_domain"],
                              recipient_id=rec["recipient_id"], channel_hint=hint)


def read_observations_jsonl(path) -> dict[str, list[PaymentObservation]]:
    """Group a JSON-lines observation file by session."""
    sessions: dict[str, list[PaymentObservation]] = {}
    for o in read_json_lines(path, _observation):
        sessions.setdefault(o.session_id, []).append(o)
    return sessions


def load_licensed_db(path) -> frozenset[str]:
    """One licensed payment-service domain per line; # comments allowed.
    No path gives an empty DB."""
    if path is None:
        return frozenset()
    with open(path, encoding="utf-8") as f:
        return frozenset(d.lower() for d in list_file_entries(f))
