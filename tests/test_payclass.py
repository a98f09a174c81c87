"""Payment-session classification tests."""

from decimal import Decimal

import pytest

from apktriage.payclass.sessions import (
    CHANNEL_BANK,
    CHANNEL_DIGITAL,
    CHANNEL_RAIL,
    CHANNEL_UNKNOWN,
    KIND_FOURTH_PARTY,
    KIND_INDETERMINATE,
    KIND_THIRD_PARTY,
    EmptySession,
    PaymentClassification,
    PaymentObservation,
    channel_breakdown,
    classify_session,
    load_licensed_db,
    read_observations_jsonl,
)

LICENSED = frozenset({"pay.licensed.example", "alipay.example"})


def obs(i, domain="pay.licensed.example", recipient="merchant-1",
        hint=CHANNEL_RAIL, session="s1", amount="9.99"):
    return PaymentObservation(session_id=session, request_index=i,
                              amount=Decimal(amount), payment_domain=domain,
                              recipient_id=recipient, channel_hint=hint)


class TestClassify:
    def test_third_party_stable_licensed(self):
        c = classify_session([obs(1), obs(2), obs(3)], LICENSED)
        assert c.service_kind == KIND_THIRD_PARTY
        assert c.channel == CHANNEL_RAIL

    def test_fourth_party_rotating_recipients(self):
        c = classify_session([obs(1, recipient="acct-a"),
                              obs(2, recipient="acct-b"),
                              obs(3, recipient="acct-c")], LICENSED)
        assert c.service_kind == KIND_FOURTH_PARTY

    def test_single_observation_indeterminate(self):
        c = classify_session([obs(1)], LICENSED)
        assert c.service_kind == KIND_INDETERMINATE

    def test_two_observations_still_indeterminate(self):
        c = classify_session([obs(1), obs(2, recipient="other")], LICENSED)
        assert c.service_kind == KIND_INDETERMINATE

    def test_unlicensed_stable_recipient_indeterminate(self):
        c = classify_session([obs(i, domain="shady.example") for i in (1, 2, 3)],
                             LICENSED)
        assert c.service_kind == KIND_INDETERMINATE

    def test_empty_session(self):
        with pytest.raises(EmptySession):
            classify_session([], LICENSED)

    def test_reorder_invariance(self):
        sample = [obs(1, recipient="a"), obs(2, recipient="b"),
                  obs(3, recipient="a")]
        assert classify_session(sample, LICENSED) == \
            classify_session(list(reversed(sample)), LICENSED)

    def test_monotonicity_fourth_party_never_flips(self):
        base = [obs(1, recipient="a"), obs(2, recipient="b"),
                obs(3, recipient="c")]
        assert classify_session(base, LICENSED).service_kind == KIND_FOURTH_PARTY
        extended = base + [obs(4, recipient="d")]
        assert classify_session(extended, LICENSED).service_kind == \
            KIND_FOURTH_PARTY

    def test_digital_currency_syntax_overrides_unknown(self):
        addr = "1BvBMSEYstWetqTFn5Au4m4GFg7xJaNVN2"
        c = classify_session(
            [obs(i, domain="shady.example", recipient=addr,
                 hint=CHANNEL_UNKNOWN) for i in (1, 2, 3)], LICENSED)
        assert c.channel == CHANNEL_DIGITAL

    def test_majority_hint_wins(self):
        c = classify_session(
            [obs(1, hint=CHANNEL_BANK), obs(2, hint=CHANNEL_BANK),
             obs(3, hint=CHANNEL_RAIL)], LICENSED)
        assert c.channel == CHANNEL_BANK

    def test_amount_must_be_positive(self):
        with pytest.raises(ValueError):
            obs(1, amount="0")

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError):
            classify_session([obs(1), obs(1)], LICENSED)


class TestBreakdown:
    def _fourth(self, n, channel):
        return [PaymentClassification(f"s{channel}{i}", KIND_FOURTH_PARTY,
                                      channel) for i in range(n)]

    def test_47_service_fixture(self):
        cs = (self._fourth(31, CHANNEL_RAIL) + self._fourth(11, CHANNEL_BANK)
              + self._fourth(4, CHANNEL_DIGITAL)
              + self._fourth(1, CHANNEL_UNKNOWN))
        rows, notice = channel_breakdown(cs)
        by = {ch: (n, p) for ch, n, p in rows}
        assert by[CHANNEL_RAIL] == (31, 65.96)
        assert by[CHANNEL_BANK] == (11, 23.40)
        assert by[CHANNEL_DIGITAL] == (4, 8.51)
        assert notice is None
        assert abs(sum(p for _, _, p in rows) - 100.0) <= 0.1

    def test_all_bank(self):
        rows, _ = channel_breakdown(self._fourth(5, CHANNEL_BANK))
        assert rows == [(CHANNEL_BANK, 5, 100.0)]

    def test_zero_fourth_party(self):
        rows, notice = channel_breakdown(
            [PaymentClassification("s", KIND_THIRD_PARTY, CHANNEL_RAIL)])
        assert rows == []
        assert notice


class TestIo:
    def test_jsonl_and_licensed_db(self, tmp_path):
        f = tmp_path / "obs.jsonl"
        f.write_text(
            '{"session_id":"s1","request_index":1,"amount":"5.00",'
            '"payment_domain":"pay.licensed.example","recipient_id":"m1",'
            '"channel_hint":"ThirdPartyRail"}\n'
            '{"session_id":"s2","request_index":1,"amount":2.5,'
            '"payment_domain":"x.example","recipient_id":"m2"}\n')
        sessions = read_observations_jsonl(f)
        assert set(sessions) == {"s1", "s2"}
        assert sessions["s1"][0].amount == Decimal("5.00")
        assert sessions["s2"][0].channel_hint == CHANNEL_UNKNOWN

        db = tmp_path / "licensed.txt"
        db.write_text("# licensed rails\nPay.Licensed.Example\n\nalipay.example\n")
        assert load_licensed_db(db) == LICENSED
