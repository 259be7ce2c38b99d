"""Mapping Description Language: migration rules as parseable path notation.

Concrete syntax::

    RULE <n>: <selector> =>
      <path> [; <path>]*

    selector := ['$'VAR '->'] NAME ['{' VAR (',' VAR)* '}']
    path     := (node | '$'VAR) ('->' (node | edge | '$'VAR | VAR))*
    node     := CLASS_ID [label words] [binding]
    edge     := PROPERTY_ID [label words]
    binding  := '{=' VAR '}' | "{='" text "'}"

Class nodes and property edges strictly alternate along a path; a trailing
bare variable emits that variable's value as a literal.  ``$V`` dereferences
the element bound to ``V``; ``{=V}`` assigns the value of ``V`` to the node
(a fresh anchor when ``V`` is unbound).  Literal assignment accepts
single-quoted text only.  Lines whose first non-blank character is ``#`` are
comments.

A selector anchor ``$V ->`` is checked like a dereference (``V`` must be a
capture of the rule or a cross-rule anchor) and round-trips through
``render_mdl``, but has no meaning for the engine, which picks a rule's input
by selector name alone.
"""

from __future__ import annotations

import codecs
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

from .ontology import OntologySchema, builtin_schema

# Variables Rule 1 binds for every record; later rules may dereference them
# without a local assignment.
CROSS_RULE_ANCHORS = ("D1", "HMO1", "LO1")

_CLASS_ID_RE = re.compile(r"^(?:E|ARE|DOE|PC)\d+$")
_PROPERTY_ID_RE = re.compile(r"^(?:P\d+(?:\.\d+)?|ARP\d+|DOP\d+|ISAD\d+|L2DO)$")
_VAR_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
_BINDING_RE = re.compile(r"\{\s*=\s*(?:'(?P<lit>[^']*)'|(?P<var>[A-Za-z][A-Za-z0-9_]*))\s*\}\s*$")
_RULE_HEADER_RE = re.compile(r"(?m)^[ \t]*RULE[ \t]+(\d+)[ \t]*:")


class MdlSyntaxError(ValueError):
    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset


class StepKind(Enum):
    NODE = "class-node"
    EDGE = "property-edge"


class BindMode(Enum):
    ASSIGN = "assign"
    ASSIGN_LITERAL = "assign-literal"
    DEREF = "deref"
    EMIT = "emit"


@dataclass(frozen=True)
class Binding:
    mode: BindMode
    value: str


@dataclass(frozen=True)
class PathStep:
    """One alternation step; ``ident`` is None for deref and emit steps."""

    kind: StepKind
    ident: str | None
    binding: Binding | None = None


Path = tuple[PathStep, ...]


@dataclass(frozen=True)
class Selector:
    """The ISAD(G) side of a rule: element name plus capture variables."""

    name: str
    captures: tuple[str, ...] = ()
    anchor: str | None = None


@dataclass(frozen=True)
class MdlRule:
    rule_no: int
    selector: Selector
    paths: tuple[Path, ...]


@dataclass(frozen=True)
class RuleSet:
    rules: tuple[MdlRule, ...]

    def __post_init__(self) -> None:
        numbers = [rule.rule_no for rule in self.rules]
        if len(numbers) != len(set(numbers)):
            raise ValueError("duplicate rule numbers in rule set")

    @cached_property
    def application_order(self) -> tuple[MdlRule, ...]:
        """The rules as the engine applies them: ISAD (document) rules first,
        then the rest, each group in declaration order."""
        return tuple(sorted(self.rules, key=lambda rule: rule.selector.name != "ISAD"))

    def rule(self, rule_no: int) -> MdlRule:
        for rule in self.rules:
            if rule.rule_no == rule_no:
                return rule
        raise KeyError(rule_no)

    def subset(self, *rule_nos: int) -> RuleSet:
        return RuleSet(tuple(rule for rule in self.rules if rule.rule_no in rule_nos))


def _strip_comments(text: str) -> str:
    # Comment lines are blanked (not removed) so offsets stay meaningful.
    lines = []
    for line in text.split("\n"):
        if line.lstrip().startswith("#"):
            lines.append(" " * len(line))
        else:
            lines.append(line)
    return "\n".join(lines)


def _split_quoted(text: str, offset: int, sep: str) -> list[tuple[str, int]]:
    """Split on ``sep`` outside single quotes, keeping chunk offsets."""
    chunks: list[tuple[str, int]] = []
    start = 0
    in_quote = False
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "'":
            in_quote = not in_quote
            i += 1
            continue
        if not in_quote and text.startswith(sep, i):
            chunks.append((text[start:i], offset + start))
            i += len(sep)
            start = i
            continue
        i += 1
    chunks.append((text[start:], offset + start))
    return chunks


def _lstrip_chunk(chunk: str, offset: int) -> tuple[str, int]:
    stripped = chunk.lstrip()
    return stripped.rstrip(), offset + (len(chunk) - len(stripped))


def _parse_head(head: str, offset: int, schema: OntologySchema) -> tuple[str, str]:
    """Split 'ID optional label words' and return (kind, ident)."""
    tokens = head.split()
    if not tokens:
        raise MdlSyntaxError("empty path segment", offset)
    ident = tokens[0]
    label = " ".join(tokens[1:])
    if _CLASS_ID_RE.match(ident):
        if not schema.has_class(ident):
            raise MdlSyntaxError(f"unknown class id {ident}", offset)
        if label and label != schema.class_def(ident).label:
            raise MdlSyntaxError(
                f"label {label!r} does not match schema label for {ident}", offset
            )
        return "class", ident
    if _PROPERTY_ID_RE.match(ident):
        if not schema.has_property(ident):
            raise MdlSyntaxError(f"unknown property id {ident}", offset)
        if label and label != schema.property_def(ident).label:
            raise MdlSyntaxError(
                f"label {label!r} does not match schema label for {ident}", offset
            )
        return "property", ident
    return "other", ident


def _parse_segment(
    segment: str,
    offset: int,
    schema: OntologySchema,
    expect_node: bool,
    at_start: bool,
) -> PathStep:
    text, offset = _lstrip_chunk(segment, offset)
    if not text:
        raise MdlSyntaxError("empty path segment", offset)
    if text.startswith("$"):
        var = text[1:].strip()
        if not _VAR_RE.match(var):
            raise MdlSyntaxError(f"bad variable reference {text!r}", offset)
        if not expect_node:
            raise MdlSyntaxError("dereference where a property edge was expected", offset)
        return PathStep(StepKind.NODE, None, Binding(BindMode.DEREF, var))
    binding: Binding | None = None
    match = _BINDING_RE.search(text)
    if match is not None:
        if match.group("lit") is not None:
            binding = Binding(BindMode.ASSIGN_LITERAL, match.group("lit"))
        else:
            binding = Binding(BindMode.ASSIGN, match.group("var"))
        text = text[: match.start()].rstrip()
        if not text:
            raise MdlSyntaxError("binding without a class node", offset)
    elif "{" in text or "}" in text:
        raise MdlSyntaxError(f"malformed binding in {segment.strip()!r}", offset)
    kind, ident = _parse_head(text, offset, schema)
    if kind == "class":
        if not expect_node:
            raise MdlSyntaxError(
                f"class node {ident} where a property edge was expected", offset
            )
        return PathStep(StepKind.NODE, ident, binding)
    if kind == "property":
        if expect_node:
            raise MdlSyntaxError(
                f"property edge {ident} where a class node was expected", offset
            )
        if binding is not None:
            raise MdlSyntaxError(f"property edge {ident} cannot carry a binding", offset)
        return PathStep(StepKind.EDGE, ident, binding)
    # Bare token: a variable emission, valid only after an edge.
    if binding is None and not at_start and expect_node and _VAR_RE.match(ident) and " " not in text:
        return PathStep(StepKind.NODE, None, Binding(BindMode.EMIT, ident))
    raise MdlSyntaxError(f"unrecognised path segment {segment.strip()!r}", offset)


def _parse_path(chunk: str, offset: int, schema: OntologySchema) -> Path:
    steps: list[PathStep] = []
    expect_node = True
    segments = _split_quoted(chunk, offset, "->")
    for index, (segment, seg_offset) in enumerate(segments):
        step = _parse_segment(segment, seg_offset, schema, expect_node, index == 0)
        if steps and steps[-1].binding is not None and steps[-1].binding.mode is BindMode.EMIT:
            raise MdlSyntaxError("variable emission must end the path", seg_offset)
        steps.append(step)
        expect_node = step.kind is StepKind.EDGE
    if steps[-1].kind is StepKind.EDGE:
        raise MdlSyntaxError("path may not end on a property edge", offset)
    return tuple(steps)


def _parse_selector(text: str, offset: int) -> Selector:
    body, offset = _lstrip_chunk(text, offset)
    anchor = None
    if body.startswith("$"):
        arrow = body.find("->")
        if arrow < 0:
            raise MdlSyntaxError("selector anchor without '->'", offset)
        anchor = body[1:arrow].strip()
        if not _VAR_RE.match(anchor):
            raise MdlSyntaxError(f"bad selector anchor {body[:arrow]!r}", offset)
        body = body[arrow + 2 :].strip()
    captures: tuple[str, ...] = ()
    if body.endswith("}"):
        brace = body.find("{")
        if brace < 0:
            raise MdlSyntaxError("unbalanced '}' in selector", offset)
        names = [name.strip() for name in body[brace + 1 : -1].split(",")]
        for name in names:
            if not _VAR_RE.match(name):
                raise MdlSyntaxError(f"bad capture variable {name!r}", offset)
        captures = tuple(names)
        body = body[:brace].strip()
    elif "{" in body:
        raise MdlSyntaxError("unbalanced '{' in selector", offset)
    if not body:
        raise MdlSyntaxError("selector has no element name", offset)
    return Selector(body, captures, anchor)


def _check_variable_hygiene(rule: MdlRule, offset: int) -> None:
    defined = set(rule.selector.captures) | set(CROSS_RULE_ANCHORS)
    anchor = rule.selector.anchor
    if anchor is not None and anchor not in defined:
        raise MdlSyntaxError(f"rule {rule.rule_no}: unbound variable {anchor}", offset)
    for path in rule.paths:
        for step in path:
            if step.binding is None:
                continue
            if step.binding.mode is BindMode.ASSIGN:
                defined.add(step.binding.value)
            elif step.binding.mode in (BindMode.DEREF, BindMode.EMIT):
                if step.binding.value not in defined:
                    raise MdlSyntaxError(
                        f"rule {rule.rule_no}: unbound variable {step.binding.value}",
                        offset,
                    )


def parse_mdl(text: str | bytes, schema: OntologySchema | None = None) -> RuleSet:
    """Parse MDL text into a rule set, checking ids against the schema.  Bytes
    are decoded whole, as a text file is: UTF-8 without a leading byte order
    mark, with CRLF and CR line ends as LF.  Unlike the line files, MDL is
    parsed by character offset, not by line."""
    schema = schema or builtin_schema()
    if isinstance(text, bytes):
        text = text.removeprefix(codecs.BOM_UTF8).replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            prefix = text[: exc.start].decode("utf-8")
            line = prefix.count("\n") + 1
            message = f"line {line}: invalid UTF-8 byte 0x{text[exc.start]:02X}"
            raise MdlSyntaxError(message, len(prefix)) from None
    clean = _strip_comments(text)
    headers = list(_RULE_HEADER_RE.finditer(clean))
    if not headers and clean.strip():
        raise MdlSyntaxError("no RULE header found", 0)
    if headers and clean[: headers[0].start()].strip():
        raise MdlSyntaxError("text before first RULE header", 0)
    rules = []
    for index, header in enumerate(headers):
        body_start = header.end()
        body_end = headers[index + 1].start() if index + 1 < len(headers) else len(clean)
        body = clean[body_start:body_end]
        arrow = body.find("=>")
        if arrow < 0:
            raise MdlSyntaxError("rule body missing '=>'", body_start)
        selector = _parse_selector(body[:arrow], body_start)
        paths = []
        for chunk, chunk_offset in _split_quoted(
            body[arrow + 2 :], body_start + arrow + 2, ";"
        ):
            if not chunk.strip():
                continue  # tolerate a trailing semicolon
            paths.append(_parse_path(chunk, chunk_offset, schema))
        if not paths:
            raise MdlSyntaxError("rule has no paths", body_start)
        rule = MdlRule(int(header.group(1)), selector, tuple(paths))
        _check_variable_hygiene(rule, header.start())
        rules.append(rule)
    return RuleSet(tuple(rules))


def _render_head(kind: StepKind, ident: str, schema: OntologySchema) -> str:
    if kind is StepKind.NODE:
        return f"{ident} {schema.class_def(ident).label}"
    return f"{ident} {schema.property_def(ident).label}"


def _render_step(step: PathStep, schema: OntologySchema) -> str:
    if step.binding is not None and step.binding.mode is BindMode.DEREF:
        return f"${step.binding.value}"
    if step.binding is not None and step.binding.mode is BindMode.EMIT:
        return step.binding.value
    text = _render_head(step.kind, step.ident, schema)
    if step.binding is not None:
        if step.binding.mode is BindMode.ASSIGN:
            text += f"{{={step.binding.value}}}"
        else:
            text += f"{{='{step.binding.value}'}}"
    return text


def render_mdl(ruleset: RuleSet, schema: OntologySchema | None = None) -> str:
    """Canonical MDL text; re-parsing yields a structurally equal rule set."""
    schema = schema or builtin_schema()
    blocks = []
    for rule in ruleset.rules:
        selector = rule.selector.name
        if rule.selector.captures:
            selector += "{" + ", ".join(rule.selector.captures) + "}"
        if rule.selector.anchor:
            selector = f"${rule.selector.anchor} -> {selector}"
        paths = [
            " -> ".join(_render_step(step, schema) for step in path)
            for path in rule.paths
        ]
        blocks.append(f"RULE {rule.rule_no}: {selector} =>\n  " + ";\n  ".join(paths))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


# Rules 1-17 follow the published mapping table path for path; Rule 18 covers
# creator/role statements with the n-ary association pattern (PC14 reifies the
# production event / person / role triple).
BUILTIN_MDL = """\
RULE 1: ISAD{D1} =>
  E31 Document{=D1};
  $D1 -> P128 is carried by -> E22 Human-Made Object{=HMO1};
  $D1 -> P67 refers to -> E33 Linguistic Object{=LO1}

RULE 2: $D1 -> Description Level{DL} =>
  $D1 -> ARP12 has level of description -> ARE1 Level of Description{=DL}

RULE 3: $D1 -> Reference Code{RC} =>
  $D1 -> P1 is identified by -> E42 Identifier{=RC} -> P2 has type -> ARE5 Identifier Type{='Reference Code'}

RULE 4: $D1 -> Title{T} =>
  $D1 -> P102 has title -> E35 Title -> DOP7 stringValue -> T

RULE 5: $D1 -> Formal Title{FT} =>
  $D1 -> P102 has title -> ARE2 Formal Title -> DOP7 stringValue -> FT

RULE 6: $D1 -> Supplied Title{ST} =>
  $D1 -> P102 has title -> ARE3 Supplied Title -> DOP7 stringValue -> ST

RULE 7: $D1 -> Production Date{SD, ED} =>
  $HMO1 -> P108 was produced by -> E12 Production -> P4 has time-span -> E52 Time-Span -> P1 is identified by -> E41 Appellation -> L2DO hasValue -> DOE11 Interval{=INT1};
  $INT1 -> DOP6 startDateValue -> SD;
  $INT1 -> DOP2 endDateValue -> ED

RULE 8: $D1 -> Production Date{PD} =>
  $HMO1 -> P108 was produced by -> E12 Production -> P4 has time-span -> E52 Time-Span -> P1 is identified by -> E41 Appellation -> L2DO hasValue -> DOE10 Instant -> DOP8 timestamp -> PD

RULE 9: $D1 -> Dimension{DIM} =>
  $HMO1 -> P43 has dimension -> E54 Dimension{=DIM1};
  $DIM1 -> P91 has unit -> E58 Measurement Unit;
  $DIM1 -> P90 has value -> DIM

RULE 10: $D1 -> Extension{EXT} =>
  $HMO1 -> P43 has dimension -> ARE4 Extension{=E1};
  $E1 -> P91 has unit -> E58 Measurement Unit;
  $E1 -> P90 has value -> EXT

RULE 11: $D1 -> Support{SP} =>
  $HMO1 -> P45 consists of -> E57 Material{=SP}

RULE 12: $D1 -> Language{LG} =>
  $LO1 -> P72 has language -> E56 Language{=LG}

RULE 13: $D1 -> Physical Location{PL} =>
  $D1 -> P1 is identified by -> E42 Identifier{=PL} -> P2 has type -> ARE5 Identifier Type{='Physical Location'}

RULE 14: $D1 -> Original Numbering{ON} =>
  $D1 -> P1 is identified by -> E42 Identifier{=ON} -> P2 has type -> ARE5 Identifier Type{='Original Numbering'}

RULE 15: $D1 -> Previous Location{PreL} =>
  $D1 -> P1 is identified by -> E42 Identifier{=PreL} -> P2 has type -> ARE5 Identifier Type{='Previous Location'}

RULE 16: $D1 -> Creation Date{CD} =>
  $LO1 -> P94 was created by -> E65 Creation -> P4 has time-span -> E52 Time-Span -> P1 is identified by -> E41 Appellation -> L2DO hasValue -> DOE10 Instant{=INST1};
  $INST1 -> DOP8 timestamp -> CD;
  $INST1 -> P2 has type -> ARE6 Date Type{='Creation Date'}

RULE 17: $D1 -> Parent Record{PR} =>
  $D1 -> P165 incorporates -> $PR

RULE 18: $D1 -> Creator{CN, CR} =>
  $HMO1 -> P108 was produced by -> E12 Production{=PROD1};
  PC14 Carried Out By{=AS1} -> P01 has domain -> $PROD1;
  $AS1 -> P02 has range -> E21 Person{=CN};
  $CN -> P1 is identified by -> E41 Appellation -> L2DO hasValue -> DOE17 PersonName -> DOP5 name -> CN;
  $AS1 -> P14.1 in the role of -> ARE8 Role Type{=CR}
"""


@lru_cache(maxsize=1)
def builtin_rules() -> RuleSet:
    """The built-in 18-rule migration set, parsed against the built-in schema."""
    return parse_mdl(BUILTIN_MDL, builtin_schema())
