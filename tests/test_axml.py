"""Binary-XML parser tests against the independent serializer, including
golden fixtures, mutation rejection and determinism."""

import pytest

from apktriage.apkcore.axml import parse_axml
from apktriage.apkcore.errors import ManifestUndecodable
from apktriage.apkcore.manifest import parse_manifest

from axml_writer import ANDROID_NS, XmlNode, build_manifest, manifest_tree, serialize

GOLDEN = [
    dict(package="com.alpha.one",
         permissions=["android.permission.INTERNET"],
         main_activity=".Main", min_sdk=19, target_sdk=28, utf8=True),
    dict(package="com.beta.two",
         permissions=["android.permission.CAMERA",
                      "android.permission.READ_CONTACTS",
                      "android.permission.INTERNET"],
         main_activity="com.beta.two.Entry", min_sdk=21, target_sdk=30,
         utf8=False),
    dict(package="net.gamma.app",
         permissions=[], main_activity=".launch.Splash",
         min_sdk=23, target_sdk=31, utf8=True),
    dict(package="org.delta", permissions=["android.permission.SEND_SMS"],
         main_activity=None, min_sdk=None, target_sdk=None, utf8=True),
    dict(package="io.epsilon.五",  # non-ASCII package char exercises UTF-16
         permissions=["android.permission.RECORD_AUDIO"],
         main_activity=".M", min_sdk=24, target_sdk=33, utf8=False),
]


@pytest.mark.parametrize("spec", GOLDEN, ids=[g["package"] for g in GOLDEN])
def test_golden_fixture_field_exact(spec):
    data = build_manifest(**spec)
    m = parse_manifest(data)
    assert m.package_name == spec["package"]
    assert m.permissions == frozenset(spec["permissions"])
    if spec["main_activity"] is None:
        assert m.main_activity is None
    elif spec["main_activity"].startswith("."):
        assert m.main_activity == spec["package"] + spec["main_activity"]
    else:
        assert m.main_activity == spec["main_activity"]


def test_determinism_across_runs():
    data = build_manifest(**GOLDEN[0])
    results = [parse_manifest(data) for _ in range(3)]
    assert results[0] == results[1] == results[2]


def _mutate(data: bytes, what: str) -> bytes:
    b = bytearray(data)
    if what == "magic":
        b[0] = 0x99
    elif what == "truncate":
        b = b[: len(b) // 3]
    elif what == "tiny":
        b = b[:6]
    elif what == "chunk_size":
        # inflate the string pool chunk size past the end of file
        b[8 + 4:8 + 8] = (0x7FFFFFFF).to_bytes(4, "little")
    elif what == "unbalanced":
        # drop the final end-element chunk
        b = b[:-24]
    elif what == "pool_count":
        # a string count whose offset table runs past the pool chunk
        b[16:20] = (0x0FFFFFFF).to_bytes(4, "little")
    elif what == "res_map_header":
        # a resource-map header size larger than the whole chunk
        pos = int.from_bytes(b[2:4], "little")
        while int.from_bytes(b[pos:pos + 2], "little") != 0x0180:
            pos += int.from_bytes(b[pos + 4:pos + 8], "little")
        size = int.from_bytes(b[pos + 4:pos + 8], "little")
        b[pos + 2:pos + 4] = (size + 4).to_bytes(2, "little")
    return bytes(b)


@pytest.mark.parametrize("what", ["magic", "truncate", "tiny", "chunk_size",
                                  "unbalanced", "pool_count", "res_map_header"])
def test_mutations_rejected(what):
    data = build_manifest(**GOLDEN[1])
    with pytest.raises(ManifestUndecodable):
        parse_manifest(_mutate(data, what))


def test_attribute_types():
    node = XmlNode("manifest", [(None, "package", "x.y")], [
        XmlNode("uses-sdk", [(ANDROID_NS, "minSdkVersion", 21)]),
        XmlNode("flagged", [(ANDROID_NS, "enabled", True),
                            (ANDROID_NS, "disabled", False)]),
    ])
    # minSdkVersion is named in the string pool, not through the resource map
    root = parse_axml(serialize(node, resource_attrs=("name",)))
    flagged = next(root.find_all("flagged"))
    assert flagged.attr("enabled") is True
    assert flagged.attr("disabled") is False
    sdk = next(root.find_all("uses-sdk"))
    assert sdk.attr("minSdkVersion") == 21


def test_nested_tree_structure():
    tree = XmlNode("manifest", [(None, "package", "deep.pkg")], [
        XmlNode("application", [], [
            XmlNode("activity", [(ANDROID_NS, "name", ".A")], [
                XmlNode("intent-filter", [], [
                    XmlNode("action", [(ANDROID_NS, "name", "X")])])])])])
    root = parse_axml(serialize(tree))
    app = next(root.find_all("application"))
    act = next(app.find_all("activity"))
    inf = next(act.find_all("intent-filter"))
    assert next(inf.find_all("action")).attr("name") == "X"


def test_resource_map_recovers_blank_names():
    # "name" goes through the resource map with an empty pool string; the
    # parser must recover it from the resource id
    data = build_manifest("r.map", permissions=["android.permission.X"],
                          main_activity=".M")
    m = parse_manifest(data)
    assert "android.permission.X" in m.permissions
    assert m.main_activity == "r.map.M"


@pytest.mark.parametrize("tree", [
    manifest_tree("com.b", main_activity=5),
    manifest_tree(5, main_activity=".Main"),
    manifest_tree(0),  # falsy: the type is checked before the "" default
    manifest_tree("com.b", permissions=[7]),
], ids=["int_activity_name", "int_package", "zero_package", "int_permission"])
def test_non_string_attribute_rejected(tree):
    with pytest.raises(ManifestUndecodable):
        parse_manifest(serialize(tree))
