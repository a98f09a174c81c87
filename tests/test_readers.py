"""The JSON-lines readers of ``report`` and ``payclass`` against an
independent oracle: the line loops they had before the shared checked
reader, copied here. The oracle imports nothing from ``apktriage``, so on
every well-formed file the records must agree field for field."""

import json
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apktriage.payclass.sessions import read_observations_jsonl
from apktriage.reportcli.taxonomy import read_labels_jsonl
from apktriage.util import json_lines

CASES = settings(max_examples=100, deadline=None)


def oracle_labels(path):
    labels = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            labels.append((rec["sample_id"], rec["top"], rec["sub"],
                           frozenset(rec.get("tactics", ())),
                           dict(rec.get("behavior", {}))))
    return labels


def oracle_observations(path):
    sessions = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            o = (rec["session_id"], int(rec["request_index"]),
                 Decimal(str(rec["amount"])), rec["payment_domain"],
                 rec["recipient_id"], rec.get("channel_hint", "Unknown"))
            sessions.setdefault(o[0], []).append(o)
    return sessions


# escapes, control and non-ASCII characters, and line separators that
# JSON leaves unescaped
text_st = st.text(st.sampled_from(list('aZ9 "\\/\n\r\t\x00\x0c\x85é€\u2028\U0001f600')),
                  max_size=8)
# keys neither reader knows
extra_st = st.dictionaries(st.sampled_from(["note", "source", "x"]), st.integers(), max_size=2)


def _records(required, optional):
    return st.tuples(extra_st, st.fixed_dictionaries(required, optional=optional)).map(
        lambda t: {**t[0], **t[1]})


name_st = st.one_of(st.none(), st.sampled_from(["Sex", "Gambling", "Lotteries"]), text_st)
label_st = _records(
    {"sample_id": text_st, "top": name_st, "sub": name_st},
    {"tactics": st.lists(st.sampled_from(["P1", "P3", "P12", ""]), max_size=4),
     "behavior": st.dictionaries(text_st, st.sampled_from(["Major", "Minor", "x"]),
                                 max_size=3)})
observation_st = _records(
    {"session_id": st.sampled_from(["s1", "s2", "s3"]),
     "request_index": st.integers(min_value=-(10 ** 20), max_value=10 ** 20),
     "amount": st.one_of(
         st.decimals(min_value=Decimal("0.01"), max_value=Decimal(10) ** 12,
                     allow_nan=False, allow_infinity=False).map(str),
         st.integers(min_value=1, max_value=10 ** 30),
         st.floats(min_value=1e-9, max_value=1e15)),
     "payment_domain": text_st, "recipient_id": text_st},
    {"channel_hint": st.sampled_from(
        ["ThirdPartyRail", "BankTransfer", "DigitalCurrency", "Unknown"])})

# padding both readers strip; "\x0c" and "\u3000" are not JSON whitespace
pad_st = st.sampled_from(["", " ", "\t", "\x0c", "\u3000"])


def file_st(record_st):
    """The text of a JSON-lines file of ``record_st`` records: padded
    lines, either escaping, with blank lines between them."""
    line_st = st.tuples(pad_st, record_st, st.booleans(), pad_st,
                        st.sampled_from(["\n", "\n\n", "\n \n"]))
    return st.lists(line_st, max_size=6).map(lambda lines: "".join(
        lead + json.dumps(r, ensure_ascii=ascii) + trail + end
        for lead, r, ascii, trail, end in lines))


@CASES
@given(text=file_st(label_st))
def test_labels_match_the_oracle(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "labels.jsonl"
    path.write_text(text, encoding="utf-8")
    assert [(l.sample_id, l.top, l.sub, l.tactics, l.behavior)
            for l in read_labels_jsonl(path)] == oracle_labels(path)


@CASES
@given(text=file_st(observation_st))
def test_observations_match_the_oracle(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "obs.jsonl"
    path.write_text(text, encoding="utf-8")
    got = {sid: [(o.session_id, o.request_index, o.amount, o.payment_domain,
                  o.recipient_id, o.channel_hint) for o in obs]
           for sid, obs in read_observations_jsonl(path).items()}
    want = oracle_observations(path)
    assert list(got) == list(want)
    assert got == want
    # Decimal equality ignores the exponent; the written form must agree too
    assert [str(o[2]) for obs in got.values() for o in obs] == \
        [str(o[2]) for obs in want.values() for o in obs]


def test_json_lines_numbers_every_line():
    seen = json_lines("f.jsonl", ["1\n", "\n", "  \n", "[2]\n"], lambda obj: obj)
    assert seen == [1, [2]]
    with pytest.raises(ValueError, match=r"^f\.jsonl, line 4: "):
        json_lines("f.jsonl", ["1", "", " ", "{"], lambda obj: obj)


def test_json_lines_keeps_program_faults():
    def parse(obj):
        return obj["a"] + 1  # a TypeError is a fault of the parse, not of the input

    with pytest.raises(TypeError):
        json_lines("f.jsonl", ['{"a": "x"}'], parse)
