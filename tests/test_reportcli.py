"""Taxonomy validation, aggregation and report-emission tests."""

from decimal import Decimal

import pytest

from apktriage.apkcore.permissions import PermissionProfile
from apktriage.assoc.graph import build_graph
from apktriage.reportcli.aggregate import (
    category_distribution,
    corpus_report,
    corpus_table,
    permission_aggregate,
)
from apktriage.reportcli.emit import emit_report
from apktriage.reportcli.taxonomy import (
    SUB_BY_NAME,
    SUB_CATEGORIES,
    TaxonomyLabel,
    read_labels_jsonl,
    validate_label,
)

from test_assoc import make_sample


def label(top, sub, tactics=(), behavior=None, sample_id="s"):
    return TaxonomyLabel(sample_id=sample_id, top=top, sub=sub,
                         tactics=frozenset(tactics),
                         behavior=dict(behavior or {}))


class TestValidateLabel:
    def test_all_18_canonical_rows_accepted(self):
        assert len(SUB_CATEGORIES) == 18
        for sub in SUB_CATEGORIES:
            violations = validate_label(
                label(sub.top, sub.name, sub.tactics,
                      {k: v for k, v in sub.behavior.items()}))
            assert violations == [], (sub.name, violations)

    def test_cross_row_swaps_rejected(self):
        for sub in SUB_CATEGORIES:
            for other in SUB_CATEGORIES:
                if other.top == sub.top:
                    continue
                assert validate_label(label(other.top, sub.name)), \
                    f"{sub.name} under {other.top} must be a violation"

    def test_canonical_examples(self):
        assert validate_label(
            label("Financial", "Cryptocurrency Trading", {"P6"})) == []
        v = validate_label(label("Sex", "Gambling Games"))
        assert any("sub not under top" in x for x in v)
        v = validate_label(label("Gambling", "Lotteries", {"P2"}))
        assert any("tactic not listed" in x for x in v)

    def test_miscellany_admits_any_tactic(self):
        assert validate_label(label("Sex", "Sex Miscellany", {"P7", "P11"})) == []

    def test_unknown_values(self):
        assert validate_label(label("Nope", "Live Porn"))
        assert validate_label(label("Sex", "No Such Sub"))
        assert validate_label(label("Sex", "Live Porn", {"P99"}))
        assert validate_label(label("Sex", "Live Porn", {"P2"},
                                    {"U3": "Sometimes"}))
        assert validate_label(label("Sex", "Live Porn", {"P2"},
                                    {"X9": "Major"}))


class TestDistribution:
    def test_corpus_percentages(self):
        labels = (["Financial"] * 356 + ["Gambling"] * 261 + ["Sex"] * 110
                  + ["Service"] * 108 + ["AuxiliaryTool"] * 8)
        dist = category_distribution(labels)
        expected = {"Financial": 42.24, "Gambling": 30.96, "Sex": 13.04,
                    "Service": 12.81, "AuxiliaryTool": 0.95}
        for top, pctv in expected.items():
            assert abs(dist[top][1] - pctv) <= 0.02
        assert abs(sum(v[1] for v in dist.values()) - 100.0) <= 0.02

    def test_single_label(self):
        assert category_distribution(["Sex"])["Sex"] == (1, 100.0)

    def test_uniform_split(self):
        labels = (["Sex"] * 20 + ["Gambling"] * 20 + ["Financial"] * 20
                  + ["Service"] * 20 + ["AuxiliaryTool"] * 20)
        assert all(v[1] == 20.0 for v in category_distribution(labels).values())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            category_distribution([])


class TestPermissionAggregate:
    def test_total_mean(self):
        profiles = {
            "a": (PermissionProfile(3, 19), "Sex"),
            "b": (PermissionProfile(5, 20), "Sex"),
        }
        rows, notices = permission_aggregate(profiles)
        assert rows["Total"] == (4.00, 19.50, 23.50)
        assert rows["Sex"] == (4.00, 19.50, 23.50)
        assert any("Gambling" in n for n in notices)

    def test_reconstructed_corpus_total(self):
        # 25 samples engineered to mean (3.96, 19.36, 23.32)
        dangerous = [4] * 24 + [0]       # mean 96/25 = 3.84 -> adjust
        dangerous = [4] * 24 + [3]       # 99/25 = 3.96
        normal = [19] * 16 + [20] * 9    # 484/25 = 19.36
        profiles = {
            f"s{i}": (PermissionProfile(dangerous[i], normal[i]), "Financial")
            for i in range(25)}
        rows, _ = permission_aggregate(profiles)
        assert rows["Total"] == (3.96, 19.36, 23.32)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            permission_aggregate({})


class TestEmit:
    def test_corpus_report_deterministic(self, tmp_path):
        report = corpus_report(["Sex"] * 3 + ["Gambling"] * 7)
        p1 = emit_report(str(tmp_path / "one"), *corpus_table(report))
        p2 = emit_report(str(tmp_path / "two"), *corpus_table(report))
        for a, b in zip(p1, p2):
            assert open(a, "rb").read() == open(b, "rb").read()

    def test_group_table_column_order(self, tmp_path):
        samples = [make_sample(f"m{i}", fingerprint="shared") for i in range(4)]
        g = build_graph(samples)
        from apktriage.assoc.stats import group_stats, group_table
        rows = group_stats(g, {"m0": "Sex"}, corpus_size=10)
        csv_path, _ = emit_report(str(tmp_path / "groups"), *group_table(rows))
        header = open(csv_path, encoding="utf-8").readline().strip()
        assert header == "Rank,Apps,Sex,Gambling,Financial,Service,AuxiliaryTool"

    def test_empty_header_only(self, tmp_path):
        from apktriage.assoc.stats import group_table
        csv_path, json_path = emit_report(str(tmp_path / "empty"), *group_table([]))
        lines = open(csv_path, encoding="utf-8").read().splitlines()
        assert len(lines) == 1

    def test_rfc4180_quoting(self, tmp_path):
        report = corpus_report(["Sex"])
        csv_path, _ = emit_report(str(tmp_path / "q"), *corpus_table(report))
        data = open(csv_path, "rb").read()
        assert b"\r\n" in data

    def test_non_json_value_is_an_error(self, tmp_path):
        # a value JSON cannot hold is refused, not written as its str()
        with pytest.raises(TypeError):
            emit_report(str(tmp_path / "d"), ["Amount"], [["1.50"]],
                        {"amount": Decimal("1.50")})


class TestLabelIo:
    def test_read_labels_jsonl(self, tmp_path):
        f = tmp_path / "labels.jsonl"
        f.write_text(
            '{"sample_id":"x","top":"Gambling","sub":"Lotteries",'
            '"tactics":["P1","P3"],"behavior":{"U1":"Major"}}\n')
        (lbl,) = read_labels_jsonl(f)
        assert lbl.top == "Gambling"
        assert validate_label(lbl) == []


def test_every_sub_has_known_top():
    from apktriage.reportcli.taxonomy import TOP_CATEGORIES
    assert all(s.top in TOP_CATEGORIES for s in SUB_CATEGORIES)
    assert set(SUB_BY_NAME) == {s.name for s in SUB_CATEGORIES}


@pytest.mark.parametrize("lab,top", [
    (None, None),
    ("Gambling", "Gambling"),
    ({"top": "Gambling", "sub": "Lotteries"}, "Gambling"),
    ({"sub": "Lotteries"}, None),
    (label("Gambling", "Lotteries"), "Gambling"),
], ids=["none", "str", "dict", "dict-without-top", "object"])
def test_label_shapes_share_one_top_reader(lab, top):
    from apktriage.assoc.stats import group_stats
    from apktriage.reportcli.taxonomy import TOP_CATEGORIES
    g = build_graph([make_sample("s1"), make_sample("s2")])
    rows = group_stats(g, {"s1": lab, "s2": "Sex"}, corpus_size=2)
    assert [r.members for r in rows] == [("s1",), ("s2",)]
    # each group has one member, so a counted top reads 100%
    assert rows[0].category_pcts == {c: 100.0 * (c == top) for c in TOP_CATEGORIES}
    assert rows[1].category_pcts == {c: 100.0 * (c == "Sex") for c in TOP_CATEGORIES}
    # a label without a top counts in the corpus size only
    dist = corpus_report([lab, "Sex"]).category_distribution
    assert dist == {"Sex": (1, 50.0), **({top: (1, 50.0)} if top else {})}
