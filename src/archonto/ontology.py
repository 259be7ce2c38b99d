"""ArchOnto schema: the class and property catalog with hierarchy queries.

The schema is a fixed, immutable dataset covering the CIDOC CRM subset used
by the archival model plus the ArchOnto, DataObject, N-ary, ISAD Ontology
and Link2DataObject extensions.  All lookups are read-only and safe for
concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

XSD_STRING = "xsd:string"
XSD_DATETIME = "xsd:dateTime"
LITERAL_RANGES = frozenset({XSD_STRING, XSD_DATETIME})


class SourceOntology(Enum):
    """Constituent ontology a class or property belongs to."""

    CIDOC = "CIDOC CRM"
    ARCHONTO = "ArchOnto"
    DATAOBJECT = "DataObject"
    NARY = "N-ary"
    ISAD = "ISAD Ontology"
    LINK2DO = "Link2DataObject"


class UnknownClassError(KeyError):
    def __init__(self, identifier: str) -> None:
        super().__init__(identifier)
        self.identifier = identifier

    def __str__(self) -> str:
        return f"unknown class: {self.identifier}"


class UnknownPropertyError(KeyError):
    def __init__(self, identifier: str) -> None:
        super().__init__(identifier)
        self.identifier = identifier

    def __str__(self) -> str:
        return f"unknown property: {self.identifier}"


@dataclass(frozen=True)
class ClassDef:
    """One ontology class: identifier, label, source and single parent."""

    identifier: str
    label: str
    source: SourceOntology
    parent: str | None = None


@dataclass(frozen=True)
class PropertyDef:
    """One ontology property with its declared domain and range.

    ``range`` is either a class identifier or a literal datatype tag
    (``xsd:string`` / ``xsd:dateTime``).
    """

    identifier: str
    label: str
    source: SourceOntology
    domain: str
    range: str
    parent: str | None = None

    @property
    def has_literal_range(self) -> bool:
        return self.range in LITERAL_RANGES


# Class identifier prefix determines the source ontology.
_CLASS_PREFIX_SOURCE = (
    ("ARE", SourceOntology.ARCHONTO),
    ("DOE", SourceOntology.DATAOBJECT),
    ("PC", SourceOntology.NARY),
    ("E", SourceOntology.CIDOC),
)

# (identifier, label, parent) -- CIDOC classes not under any listed parent
# hang directly off E1 CRM Entity, which acts as the universal root so that
# domain/range checks against E1 succeed for every node.
_CIDOC_CLASSES = (
    ("E1", "CRM Entity", None),
    ("E3", "Condition State", "E1"),
    ("E5", "Event", "E1"),
    ("E7", "Activity", "E5"),
    ("E9", "Move", "E7"),
    ("E10", "Transfer of Custody", "E7"),
    ("E12", "Production", "E7"),
    ("E21", "Person", "E39"),
    ("E22", "Human-Made Object", "E1"),
    ("E31", "Document", "E1"),
    ("E32", "Authority Document", "E31"),
    ("E33", "Linguistic Object", "E1"),
    ("E35", "Title", "E41"),
    ("E36", "Visual Item", "E1"),
    ("E39", "Actor", "E1"),
    ("E41", "Appellation", "E1"),
    ("E42", "Identifier", "E41"),
    ("E52", "Time-Span", "E1"),
    ("E53", "Place", "E1"),
    ("E54", "Dimension", "E1"),
    ("E55", "Type", "E1"),
    ("E56", "Language", "E55"),
    ("E57", "Material", "E55"),
    ("E58", "Measurement Unit", "E55"),
    ("E65", "Creation", "E7"),
    ("E66", "Formation", "E7"),
    ("E67", "Birth", "E5"),
    ("E68", "Dissolution", "E5"),
    ("E69", "Death", "E5"),
    ("E74", "Group", "E39"),
    ("E85", "Joining", "E7"),
    ("E86", "Leaving", "E7"),
    ("E96", "Purchase", "E7"),
    ("E98", "Currency", "E55"),
)

# ARE10 is intentionally absent: the identifier is reserved but undefined.
_ARCHONTO_CLASSES = (
    ("ARE1", "Level of Description", "E55"),
    ("ARE2", "Formal Title", "E35"),
    ("ARE3", "Supplied Title", "E35"),
    ("ARE4", "Extension", "E54"),
    ("ARE5", "Identifier Type", "E55"),
    ("ARE6", "Date Type", "E55"),
    ("ARE7", "Name Type", "E55"),
    ("ARE8", "Role Type", "E55"),
    ("ARE9", "Date Certainty", "E55"),
    ("ARE11", "Documentary Typology", "E55"),
    ("ARE12", "Organisation", "E39"),
    ("ARE13", "Subject Type", "E55"),
    ("ARE14", "Place Type", "E55"),
    ("ARE15", "Acquisition Type", "E55"),
    ("ARE16", "Event Type", "E55"),
)

_DATAOBJECT_CLASSES = (
    ("DOE1", "DataObject", "E1"),
    ("DOE2", "AuthorityFile", "DOE1"),
    ("DOE3", "Boolean", "DOE1"),
    ("DOE4", "Date", "DOE1"),
    ("DOE5", "Decimal", "DOE1"),
    ("DOE6", "GeospatialCoordinates", "DOE1"),
    ("DOE7", "Integer", "DOE1"),
    ("DOE8", "String", "DOE1"),
    ("DOE9", "Approximate", "DOE4"),
    ("DOE10", "Instant", "DOE4"),
    ("DOE11", "Interval", "DOE4"),
    ("DOE12", "Latitude", "DOE6"),
    ("DOE13", "Longitude", "DOE6"),
    ("DOE14", "Polygon", "DOE6"),
    ("DOE15", "AuthorityString", "DOE8"),
    ("DOE16", "RegexString", "DOE8"),
    ("DOE17", "PersonName", "DOE15"),
)

_NARY_CLASSES = (
    ("PC0", "CRM Property", "E1"),
    ("PC14", "Carried Out By", "PC0"),
)

# (identifier, label, domain, range, parent).  Domains/ranges outside the
# embedded class subset are projected to the nearest declared ancestor.
_CIDOC_PROPERTIES = (
    ("P1", "is identified by", "E1", "E41", None),
    ("P2", "has type", "E1", "E55", None),
    ("P3", "has note", "E1", XSD_STRING, None),
    ("P4", "has time-span", "E5", "E52", None),
    ("P5", "consists of", "E3", "E3", None),
    ("P7", "took place at", "E5", "E53", None),
    ("P11", "had participant", "E5", "E39", None),
    ("P12", "was present at", "E1", "E5", None),
    ("P14", "carried out by", "E7", "E39", None),
    ("P14.1", "in the role of", "PC14", "E55", None),
    ("P17", "was motivated by", "E7", "E1", None),
    ("P20", "had specific purpose", "E7", "E5", None),
    ("P24", "changed ownership through", "E22", "E96", None),
    ("P25", "moved by", "E22", "E9", None),
    ("P26", "moved to", "E9", "E53", None),
    ("P28", "custody surrendered by", "E10", "E39", None),
    ("P29", "custody received by", "E10", "E39", None),
    ("P30", "transferred custody of", "E10", "E22", None),
    ("P43", "has dimension", "E22", "E54", None),
    ("P44", "has condition", "E22", "E3", None),
    ("P45", "consists of", "E22", "E57", None),
    ("P46", "is composed of", "E22", "E22", None),
    ("P48", "has preferred identifier", "E1", "E42", None),
    ("P49", "has former or current keeper", "E22", "E39", None),
    ("P50", "has current keeper", "E22", "E39", None),
    ("P53", "has former or current location", "E22", "E53", None),
    ("P54", "has current permanent location", "E22", "E53", None),
    ("P67", "refers to", "E31", "E33", None),
    ("P70", "documents", "E31", "E1", None),
    ("P71", "is listed in", "E1", "E32", None),
    ("P72", "has language", "E33", "E56", None),
    ("P74", "has current or former residence", "E39", "E53", None),
    ("P89", "falls within", "E53", "E53", None),
    ("P90", "has value", "E54", XSD_STRING, None),
    ("P91", "has unit", "E54", "E58", None),
    ("P94", "was created by", "E33", "E65", None),
    ("P95", "was formed by", "E74", "E66", None),
    ("P96", "by mother", "E67", "E21", None),
    ("P97", "from father", "E67", "E21", None),
    ("P98", "brought into life", "E67", "E21", None),
    ("P99", "was dissolved by", "E74", "E68", None),
    ("P100", "was death of", "E69", "E21", None),
    ("P102", "has title", "E31", "E35", None),
    ("P106", "is composed of", "E1", "E1", None),
    ("P107", "has current or former member", "E74", "E39", None),
    ("P108", "was produced by", "E22", "E12", None),
    ("P121", "overlaps with", "E52", "E52", None),
    ("P122", "borders with", "E53", "E53", None),
    ("P128", "is carried by", "E31", "E22", None),
    ("P129", "is about", "E1", "E1", None),
    ("P130", "features are also found on", "E1", "E1", None),
    ("P134", "continued", "E7", "E7", None),
    ("P143", "joined", "E85", "E39", None),
    ("P144", "joined with", "E85", "E74", None),
    ("P145", "separated", "E86", "E39", None),
    ("P146", "separated from", "E86", "E74", None),
    ("P151", "was formed from", "E66", "E74", None),
    ("P165", "incorporates", "E31", "E31", None),
    ("P173", "ends with or after the start of", "E52", "E52", None),
    ("P183", "starts after the end of", "E52", "E52", None),
)

_ARCHONTO_PROPERTIES = (
    ("ARP8", "upper level", "ARE1", "ARE1", None),
    ("ARP9", "lower level", "ARE1", "ARE1", None),
    ("ARP12", "has level of description", "E31", "ARE1", "P2"),
)

_LINK2DO_PROPERTIES = (("L2DO", "hasValue", "E1", "DOE1", None),)

_NARY_PROPERTIES = (
    ("P01", "has domain", "PC0", "E1", None),
    ("P02", "has range", "PC0", "E1", None),
)

_DATAOBJECT_PROPERTIES = (
    ("DOP1", "approximateDateValue", "DOE9", XSD_DATETIME, None),
    ("DOP2", "endDateValue", "DOE11", XSD_DATETIME, None),
    ("DOP3", "fileLocation", "DOE2", XSD_STRING, None),
    ("DOP4", "hasRegex", "DOE16", XSD_STRING, None),
    ("DOP5", "name", "DOE17", XSD_STRING, None),
    ("DOP6", "startDateValue", "DOE11", XSD_DATETIME, None),
    ("DOP7", "stringValue", "DOE8", XSD_STRING, None),
    ("DOP8", "timestamp", "DOE10", XSD_DATETIME, None),
)

# All ISAD Ontology properties have domain E31 Document, range xsd:string
# and sit under P3 has note.  They keep legacy element text verbatim.
_ISAD_PROPERTY_LABELS = (
    ("ISAD1", "has title"),
    ("ISAD2", "has level of description"),
    ("ISAD3", "has reference code"),
    ("ISAD4", "has type of title"),
    ("ISAD5", "has date"),
    ("ISAD6", "has dimension and support"),
    ("ISAD7", "has administrative history"),
    ("ISAD8", "has archival history"),
    ("ISAD9", "has scope"),
    ("ISAD10", "has access condition"),
    ("ISAD11", "has current quota"),
    ("ISAD12", "has old quota"),
    ("ISAD13", "has original quota"),
    ("ISAD14", "has language"),
    ("ISAD15", "has related unit of description"),
    ("ISAD16", "has existence and location of copies"),
    ("ISAD17", "has publication notes"),
    ("ISAD18", "has notes"),
    ("ISAD19", "has system of arrangement"),
    ("ISAD20", "has physical characteristics"),
    ("ISAD21", "has description date"),
    ("ISAD22", "has last modification"),
    ("ISAD23", "has predominant date"),
    ("ISAD24", "has conditions governing reproduction"),
    ("ISAD25", "has conditions governing use"),
    ("ISAD26", "has immediate source of acquisition"),
    ("ISAD27", "has accruals"),
)

# ARP8/ARP9 relate a level of description to its admissible upper/lower
# levels and are declared inverses of each other.
INVERSE_PROPERTY_PAIRS = (("ARP8", "ARP9"),)


class OntologySchema:
    """Immutable catalog of classes and properties with hierarchy queries."""

    def __init__(
        self,
        classes: dict[str, ClassDef],
        properties: dict[str, PropertyDef],
        inverse_pairs: tuple[tuple[str, str], ...] = (),
    ) -> None:
        self._classes = dict(classes)
        self._properties = dict(properties)
        self.inverse_pairs = inverse_pairs
        self._check_consistency()
        # Each class with all its ancestors, so subclass tests are set lookups.
        self._lineage = {c: frozenset((c,) + self.ancestors(c)) for c in self._classes}

    # -- lookups ---------------------------------------------------------

    def has_class(self, identifier: str) -> bool:
        return identifier in self._classes

    def has_property(self, identifier: str) -> bool:
        return identifier in self._properties

    def class_def(self, identifier: str) -> ClassDef:
        try:
            return self._classes[identifier]
        except KeyError:
            raise UnknownClassError(identifier) from None

    def property_def(self, identifier: str) -> PropertyDef:
        try:
            return self._properties[identifier]
        except KeyError:
            raise UnknownPropertyError(identifier) from None

    @property
    def classes(self) -> tuple[ClassDef, ...]:
        return tuple(self._classes.values())

    @property
    def properties(self) -> tuple[PropertyDef, ...]:
        return tuple(self._properties.values())

    @property
    def subclass_edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            (c.identifier, c.parent) for c in self._classes.values() if c.parent
        )

    @property
    def subproperty_edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(
            (p.identifier, p.parent) for p in self._properties.values() if p.parent
        )

    # -- hierarchy -------------------------------------------------------

    def ancestors(self, identifier: str) -> tuple[str, ...]:
        """Ancestor class identifiers from parent upward (exclusive)."""
        chain = []
        current = self.class_def(identifier).parent
        while current is not None:
            chain.append(current)
            current = self.class_def(current).parent
        return tuple(chain)

    def is_subclass(self, child: str, ancestor: str) -> bool:
        """Reflexive-transitive subclass test over the class hierarchy."""
        self.class_def(ancestor)
        lineage = self._lineage.get(child)
        if lineage is None:
            raise UnknownClassError(child)
        return ancestor in lineage

    def property_signature(self, identifier: str) -> tuple[str, str]:
        """Declared (domain, range) of a property; range may be a datatype tag."""
        prop = self.property_def(identifier)
        return prop.domain, prop.range

    # -- dump ------------------------------------------------------------

    def dump(self) -> str:
        """Sorted line listing for diffing: kind, id, label, parent|domain,range."""
        lines = [
            f"class\t{c.identifier}\t{c.label}\t{c.parent or '-'}"
            for c in self._classes.values()
        ]
        lines += [
            f"property\t{p.identifier}\t{p.label}\t{p.domain},{p.range}"
            for p in self._properties.values()
        ]
        return "\n".join(sorted(lines)) + "\n"

    # -- construction checks ----------------------------------------------

    def _check_consistency(self) -> None:
        for cls in self._classes.values():
            for prefix, source in _CLASS_PREFIX_SOURCE:
                if cls.identifier.startswith(prefix):
                    if cls.source is not source:
                        raise ValueError(
                            f"class {cls.identifier}: prefix implies "
                            f"{source.value}, declared {cls.source.value}"
                        )
                    break
            else:
                raise ValueError(f"class {cls.identifier}: unrecognised prefix")
            if cls.parent is not None and cls.parent not in self._classes:
                raise ValueError(f"class {cls.identifier}: missing parent {cls.parent}")
        # Acyclicity of the parent chains.
        for cls in self._classes:
            seen = {cls}
            current = self._classes[cls].parent
            while current is not None:
                if current in seen:
                    raise ValueError(f"subclass cycle through {cls}")
                seen.add(current)
                current = self._classes[current].parent
        for prop in self._properties.values():
            if prop.domain not in self._classes:
                raise ValueError(
                    f"property {prop.identifier}: undeclared domain {prop.domain}"
                )
            if prop.range not in self._classes and prop.range not in LITERAL_RANGES:
                raise ValueError(
                    f"property {prop.identifier}: undeclared range {prop.range}"
                )
            if prop.parent is not None and prop.parent not in self._properties:
                raise ValueError(
                    f"property {prop.identifier}: missing parent {prop.parent}"
                )
            if prop.source is SourceOntology.ISAD and (
                prop.domain != "E31" or prop.range != XSD_STRING
            ):
                raise ValueError(
                    f"property {prop.identifier}: ISAD properties are E31 -> xsd:string"
                )
        for prop in self._properties:
            seen = {prop}
            current = self._properties[prop].parent
            while current is not None:
                if current in seen:
                    raise ValueError(f"subproperty cycle through {prop}")
                seen.add(current)
                current = self._properties[current].parent


def _build_builtin() -> OntologySchema:
    classes: dict[str, ClassDef] = {}
    for rows, source in (
        (_CIDOC_CLASSES, SourceOntology.CIDOC),
        (_ARCHONTO_CLASSES, SourceOntology.ARCHONTO),
        (_DATAOBJECT_CLASSES, SourceOntology.DATAOBJECT),
        (_NARY_CLASSES, SourceOntology.NARY),
    ):
        for identifier, label, parent in rows:
            if identifier in classes:
                raise ValueError(f"duplicate class {identifier}")
            classes[identifier] = ClassDef(identifier, label, source, parent)

    properties: dict[str, PropertyDef] = {}
    prop_rows: list[tuple[tuple[str, str, str, str, str | None], SourceOntology]] = []
    prop_rows += [(row, SourceOntology.CIDOC) for row in _CIDOC_PROPERTIES]
    prop_rows += [(row, SourceOntology.ARCHONTO) for row in _ARCHONTO_PROPERTIES]
    prop_rows += [(row, SourceOntology.LINK2DO) for row in _LINK2DO_PROPERTIES]
    prop_rows += [(row, SourceOntology.NARY) for row in _NARY_PROPERTIES]
    prop_rows += [(row, SourceOntology.DATAOBJECT) for row in _DATAOBJECT_PROPERTIES]
    prop_rows += [
        ((identifier, label, "E31", XSD_STRING, "P3"), SourceOntology.ISAD)
        for identifier, label in _ISAD_PROPERTY_LABELS
    ]
    for (identifier, label, domain, range_, parent), source in prop_rows:
        if identifier in properties:
            raise ValueError(f"duplicate property {identifier}")
        properties[identifier] = PropertyDef(
            identifier, label, source, domain, range_, parent
        )
    return OntologySchema(classes, properties, INVERSE_PROPERTY_PAIRS)


@lru_cache(maxsize=1)
def builtin_schema() -> OntologySchema:
    """The full built-in ArchOnto schema (cached, immutable)."""
    return _build_builtin()
