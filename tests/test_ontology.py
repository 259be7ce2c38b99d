"""Schema catalog content, hierarchy queries and invariants."""

import pytest

from archonto import ontology
from archonto.mdl import builtin_rules
from archonto.ontology import (
    SourceOntology,
    UnknownClassError,
    UnknownPropertyError,
    XSD_DATETIME,
    XSD_STRING,
    LITERAL_RANGES,
    builtin_schema,
)


@pytest.fixture(scope="module")
def schema():
    return builtin_schema()


def test_supplied_title_under_title(schema):
    cls = schema.class_def("ARE3")
    assert cls.label == "Supplied Title"
    assert cls.parent == "E35"
    assert cls.source is SourceOntology.ARCHONTO


def test_level_property_signature(schema):
    prop = schema.property_def("ARP12")
    assert prop.domain == "E31"
    assert prop.range == "ARE1"
    assert prop.parent == "P2"


def test_timestamp_property(schema):
    prop = schema.property_def("DOP8")
    assert prop.label == "timestamp"
    assert (prop.domain, prop.range) == ("DOE10", XSD_DATETIME)


@pytest.mark.parametrize(
    "child,ancestor,expected",
    [
        ("DOE17", "DOE8", True),
        ("E31", "E31", True),
        ("E35", "ARE2", False),
        ("ARE3", "E35", True),
        ("E42", "E41", True),
        ("E56", "E55", True),
        ("PC14", "PC0", True),
        ("DOE10", "E1", True),
    ],
)
def test_is_subclass(schema, child, ancestor, expected):
    assert schema.is_subclass(child, ancestor) is expected


def test_is_subclass_unknown_id(schema):
    with pytest.raises(UnknownClassError) as exc:
        schema.is_subclass("E999", "E1")
    assert "E999" in str(exc.value)


@pytest.mark.parametrize(
    "prop,domain,range_",
    [
        ("ARP8", "ARE1", "ARE1"),
        ("L2DO", "E1", "DOE1"),
        ("ISAD9", "E31", XSD_STRING),
        ("DOP6", "DOE11", XSD_DATETIME),
        ("P14.1", "PC14", "E55"),
        ("P01", "PC0", "E1"),
    ],
)
def test_property_signature(schema, prop, domain, range_):
    declared = schema.property_def(prop)
    assert (declared.domain, declared.range) == (domain, range_)


def test_property_signature_unknown(schema):
    with pytest.raises(UnknownPropertyError):
        schema.property_def("ARP99")


def test_subclass_edges_antisymmetric(schema):
    edges = [(c.identifier, c.parent) for c in schema.classes if c.parent]
    assert edges
    for child, parent in edges:
        assert schema.is_subclass(child, parent)
        assert not schema.is_subclass(parent, child)


REQUIRED_SUBCLASS_EDGES = [
    ("ARE2", "E35"),
    ("ARE3", "E35"),
    ("ARE12", "E39"),
    ("ARE4", "E54"),
    ("ARE1", "E55"),
    ("ARE5", "E55"),
    ("ARE6", "E55"),
    ("ARE7", "E55"),
    ("ARE8", "E55"),
    ("ARE9", "E55"),
    ("ARE11", "E55"),
    ("ARE13", "E55"),
    ("ARE14", "E55"),
    ("ARE15", "E55"),
    ("ARE16", "E55"),
    ("DOE2", "DOE1"),
    ("DOE3", "DOE1"),
    ("DOE4", "DOE1"),
    ("DOE5", "DOE1"),
    ("DOE6", "DOE1"),
    ("DOE7", "DOE1"),
    ("DOE8", "DOE1"),
    ("DOE9", "DOE4"),
    ("DOE10", "DOE4"),
    ("DOE11", "DOE4"),
    ("DOE12", "DOE6"),
    ("DOE13", "DOE6"),
    ("DOE14", "DOE6"),
    ("DOE15", "DOE8"),
    ("DOE16", "DOE8"),
    ("DOE17", "DOE15"),
    ("PC14", "PC0"),
]


@pytest.mark.parametrize("child,parent", REQUIRED_SUBCLASS_EDGES)
def test_required_subclass_edges(schema, child, parent):
    assert schema.class_def(child).parent == parent


def test_required_subproperty_edges(schema):
    assert schema.property_def("ARP12").parent == "P2"
    for number in range(1, 28):
        assert schema.property_def(f"ISAD{number}").parent == "P3"


def test_schema_closure(schema):
    class_ids = {c.identifier for c in schema.classes}
    for prop in schema.properties:
        assert prop.domain in class_ids
        assert prop.range in class_ids or prop.range in LITERAL_RANGES


def test_isad_properties_uniform(schema):
    for prop in schema.properties:
        if prop.source is SourceOntology.ISAD:
            assert prop.domain == "E31"
            assert prop.range == XSD_STRING


def test_are10_reserved_and_absent(schema):
    assert not schema.has_class("ARE10")
    assert schema.has_class("ARE9")
    assert schema.has_class("ARE11")


def test_inverse_pair_recorded(schema):
    assert ("ARP8", "ARP9") in schema.inverse_pairs


def test_builtin_rules_resolve_in_schema(schema):
    for rule in builtin_rules().rules:
        for path in rule.paths:
            for step in path:
                if step.ident is None:
                    continue
                assert schema.has_class(step.ident) or schema.has_property(step.ident), (
                    rule.rule_no,
                    step.ident,
                )


def test_dump_shape(schema):
    lines = schema.dump().splitlines()
    assert lines == sorted(lines)
    by_id = {line.split("\t")[1]: line for line in lines}
    assert by_id["ARE3"] == "class\tARE3\tSupplied Title\tE35"
    assert by_id["ARP8"] == "property\tARP8\tupper level\tARE1,ARE1"
    assert by_id["ISAD9"] == "property\tISAD9\thas scope\tE31,xsd:string"
    assert len(lines) == len(schema.classes) + len(schema.properties)


def test_prefix_source_consistency(schema):
    expected = {
        "E": SourceOntology.CIDOC,
        "ARE": SourceOntology.ARCHONTO,
        "DOE": SourceOntology.DATAOBJECT,
        "PC": SourceOntology.NARY,
    }
    for cls in schema.classes:
        for prefix in ("ARE", "DOE", "PC", "E"):
            if cls.identifier.startswith(prefix):
                assert cls.source is expected[prefix]
                break


def test_is_subclass_matches_ancestor_walk(schema):
    ids = [c.identifier for c in schema.classes]
    for child in ids:
        # The parent links themselves, not the lineage is_subclass reads.
        lineage = [child]
        while schema.class_def(lineage[-1]).parent is not None:
            lineage.append(schema.class_def(lineage[-1]).parent)
        for ancestor in ids:
            assert schema.is_subclass(child, ancestor) is (ancestor in lineage)


def test_is_subclass_unknown_ancestor(schema):
    for child in ("E31", "E999"):
        with pytest.raises(UnknownClassError) as exc:
            schema.is_subclass(child, "E998")
        assert "E998" in str(exc.value)


def test_is_subclass_unknown_child_below_known_ancestor(schema):
    with pytest.raises(UnknownClassError) as exc:
        schema.is_subclass("E999", "E31")
    assert "E999" in str(exc.value)


def test_unknown_class_and_property_errors_name_their_kind(schema):
    with pytest.raises(UnknownClassError) as unknown_class:
        schema.class_def("E999")
    with pytest.raises(UnknownPropertyError) as unknown_property:
        schema.property_def("P999")
    assert (str(unknown_class.value), unknown_class.value.identifier) == ("unknown class: E999", "E999")
    assert (str(unknown_property.value), unknown_property.value.identifier) == (
        "unknown property: P999",
        "P999",
    )
    assert isinstance(unknown_class.value, KeyError) and isinstance(unknown_property.value, KeyError)
    assert not isinstance(unknown_class.value, UnknownPropertyError)
    assert not isinstance(unknown_property.value, UnknownClassError)


@pytest.mark.parametrize(
    "table,row,message",
    [
        ("_NARY_CLASSES", ("E31", "Document", "E1"), "duplicate class E31"),
        ("_DATAOBJECT_PROPERTIES", ("P3", "has note", "E1", XSD_STRING, None), "duplicate property P3"),
    ],
)
def test_builtin_catalog_refuses_a_repeated_identifier(monkeypatch, table, row, message):
    monkeypatch.setattr(ontology, table, getattr(ontology, table) + (row,))
    with pytest.raises(ValueError) as exc:
        ontology._build_builtin()
    assert str(exc.value) == message
