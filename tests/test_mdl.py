"""MDL parsing, rendering and the built-in rule set."""

import pytest

from archonto.cli import main
from archonto.mdl import (
    BindMode,
    MdlSyntaxError,
    StepKind,
    builtin_rules,
    parse_mdl,
    render_mdl,
)
from archonto.ontology import builtin_schema


@pytest.fixture(scope="module")
def schema():
    return builtin_schema()


# The built-in rules by number.
BUILTIN = {rule.rule_no: rule for rule in builtin_rules().rules}


def test_parse_formal_title_path(schema):
    ruleset = parse_mdl(
        "RULE 5: $D1 -> Formal Title{FT} =>\n"
        "  $D1 -> P102 has title -> ARE2 Formal Title -> DOP7 stringValue -> FT\n",
        schema,
    )
    (rule,) = ruleset.rules
    (path,) = rule.paths
    kinds = [(s.kind, s.ident, s.binding.mode if s.binding else None) for s in path]
    assert kinds == [
        (StepKind.NODE, None, BindMode.DEREF),
        (StepKind.EDGE, "P102", None),
        (StepKind.NODE, "ARE2", None),
        (StepKind.EDGE, "DOP7", None),
        (StepKind.NODE, None, BindMode.EMIT),
    ]
    assert path[0].binding.value == "D1"
    assert path[-1].binding.value == "FT"


def test_parse_single_assignment_node(schema):
    ruleset = parse_mdl("RULE 1: ISAD{D1} =>\n  E31 Document{=D1}\n", schema)
    (path,) = ruleset.rules[0].paths
    (step,) = path
    assert step.ident == "E31"
    assert step.binding.mode is BindMode.ASSIGN
    assert step.binding.value == "D1"


def test_consecutive_edges_rejected(schema):
    with pytest.raises(MdlSyntaxError) as exc:
        parse_mdl("RULE 1: X{A} =>\n  $D1 -> P1 -> P2\n", schema)
    assert "class node" in str(exc.value)


def test_unknown_id_rejected(schema):
    with pytest.raises(MdlSyntaxError) as exc:
        parse_mdl("RULE 1: X =>\n  E999 Mystery\n", schema)
    assert "unknown class" in str(exc.value)


def test_label_mismatch_rejected(schema):
    with pytest.raises(MdlSyntaxError):
        parse_mdl("RULE 1: X =>\n  E31 Documents\n", schema)


def test_bare_ids_without_labels_accepted(schema):
    ruleset = parse_mdl("RULE 2: $D1 -> Level{DL} =>\n  $D1 -> ARP12 -> ARE1{=DL}\n", schema)
    (path,) = ruleset.rules[0].paths
    assert path[1].ident == "ARP12"
    assert path[2].ident == "ARE1"


def test_unbound_variable_rejected(schema):
    with pytest.raises(MdlSyntaxError) as exc:
        parse_mdl("RULE 2: Title{T} =>\n  $MYSTERY -> P102 has title -> E35 Title\n", schema)
    assert "unbound" in str(exc.value)


def test_unbound_selector_anchor_rejected(schema):
    with pytest.raises(MdlSyntaxError, match="rule 4: unbound variable MYSTERY"):
        parse_mdl("RULE 4: $MYSTERY -> Title{T} =>\n  $D1 -> P102 has title -> E35 Title\n", schema)
    ruleset = parse_mdl("RULE 4: $T -> Title{T} =>\n  $D1 -> P102 has title -> E35 Title\n", schema)
    assert ruleset.rules[0].selector.anchor == "T"


def test_cross_rule_anchors_allowed(schema):
    ruleset = parse_mdl(
        "RULE 11: $D1 -> Support{SP} =>\n  $HMO1 -> P45 consists of -> E57 Material{=SP}\n",
        schema,
    )
    assert ruleset.rules[0].selector.captures == ("SP",)


def test_emission_must_end_path(schema):
    with pytest.raises(MdlSyntaxError):
        parse_mdl(
            "RULE 4: Title{T} =>\n"
            "  $D1 -> P102 has title -> T -> P2 has type -> E55 Type\n",
            schema,
        )


@pytest.mark.parametrize(
    "paths,variable",
    [
        # Bound by {=X} in the same path: a node, not a capture's text.
        ("$D1 -> P102 has title -> E35 Title{=X} -> DOP7 stringValue -> X", "X"),
        # A cross-rule anchor is a node too.
        ("$HMO1 -> P3 has note -> D1", "D1"),
    ],
    ids=["assigned", "anchor"],
)
def test_emission_must_name_a_capture(schema, paths, variable):
    text = f"RULE 3: $D1 -> Reference Code{{T}} =>\n  {paths}\n"
    with pytest.raises(MdlSyntaxError, match=f"rule 3: emission {variable} is not a capture"):
        parse_mdl(text, schema)


def test_path_may_not_end_on_edge(schema):
    with pytest.raises(MdlSyntaxError):
        parse_mdl("RULE 4: Title{T} =>\n  $D1 -> P102 has title\n", schema)


def test_duplicate_rule_numbers_rejected(schema):
    with pytest.raises(ValueError):
        parse_mdl(
            "RULE 1: A =>\n  E31 Document{=D1}\nRULE 1: B =>\n  E31 Document{=D1}\n",
            schema,
        )


def test_comments_ignored(schema):
    ruleset = parse_mdl("# preamble\nRULE 1: ISAD{D1} =>\n  E31 Document{=D1}\n", schema)
    assert len(ruleset.rules) == 1


def test_render_empty_ruleset(schema):
    from archonto.mdl import RuleSet

    assert render_mdl(RuleSet(()), schema) == ""


def test_render_contains_literal(schema):
    text = render_mdl(builtin_rules().subset(3), schema)
    assert "{='Reference Code'}" in text


def test_builtin_round_trip(schema):
    rules = builtin_rules()
    text = render_mdl(rules, schema)
    assert parse_mdl(text, schema) == rules


def test_builtin_has_eighteen_rules():
    rules = builtin_rules()
    assert [rule.rule_no for rule in rules.rules] == list(range(1, 19))


def test_builtin_rule_11_shape():
    rule = BUILTIN[11]
    (path,) = rule.paths
    assert [s.ident for s in path] == [None, "P45", "E57"]
    assert path[0].binding.value == "HMO1"
    assert path[2].binding.mode is BindMode.ASSIGN
    assert path[2].binding.value == "SP"


def test_builtin_rule_17_shape():
    rule = BUILTIN[17]
    (path,) = rule.paths
    assert path[1].ident == "P165"
    assert path[2].binding.mode is BindMode.DEREF
    assert path[2].binding.value == "PR"


def test_builtin_rule_7_shape():
    rule = BUILTIN[7]
    assert rule.selector.captures == ("SD", "ED")
    assert any(
        step.ident == "DOE11"
        and step.binding is not None
        and step.binding.value == "INT1"
        for path in rule.paths
        for step in path
    )


def test_builtin_rule_16_literal():
    rule = BUILTIN[16]
    literals = [
        step.binding.value
        for path in rule.paths
        for step in path
        if step.binding is not None and step.binding.mode is BindMode.ASSIGN_LITERAL
    ]
    assert literals == ["Creation Date"]


def test_variable_hygiene_of_builtins():
    allowed_free = {"D1", "HMO1", "LO1"}
    for rule in builtin_rules().rules:
        defined = set(rule.selector.captures) | allowed_free
        for path in rule.paths:
            for step in path:
                if step.binding is None:
                    continue
                if step.binding.mode is BindMode.ASSIGN:
                    defined.add(step.binding.value)
                elif step.binding.mode is BindMode.DEREF:
                    assert step.binding.value in defined, (rule.rule_no, step)
                elif step.binding.mode is BindMode.EMIT:
                    assert step.binding.value in rule.selector.captures, (rule.rule_no, step)


def test_offset_reported(schema):
    with pytest.raises(MdlSyntaxError) as exc:
        parse_mdl("RULE 1: X =>\n  E31 Document -> -> E22\n", schema)
    assert exc.value.offset > 0


def test_anchor_without_captures_round_trips(schema):
    text = "RULE 1: $D1 -> Thing =>\n  $D1 -> P2 has type -> E55 Type\n"
    ruleset = parse_mdl(text, schema)
    assert ruleset.rules[0].selector.anchor == "D1"
    assert ruleset.rules[0].selector.captures == ()
    assert parse_mdl(render_mdl(ruleset, schema), schema) == ruleset


def test_trailing_semicolon_tolerated(schema):
    ruleset = parse_mdl("RULE 1: ISAD{D1} =>\n  E31 Document{=D1};\n", schema)
    assert len(ruleset.rules[0].paths) == 1


def test_literal_with_arrow_inside_quotes(schema):
    ruleset = parse_mdl(
        "RULE 1: X =>\n  E55 Type{='a -> b; c'}\n",
        schema,
    )
    (step,) = ruleset.rules[0].paths[0]
    assert step.binding.value == "a -> b; c"
    assert parse_mdl(render_mdl(ruleset, schema), schema) == ruleset


# Each refusal of a rule file: (text, offset, message).  The offset is where
# the segment, selector, path or rule at fault starts.
_REFUSALS = [
    ("RULE 1: X =>\n  E31 Document -> -> E22\n", 31, "empty path segment"),
    ("RULE 1: X =>\n  $1 -> P2 -> E55\n", 15, "bad variable reference '$1'"),
    ("RULE 1: X =>\n  E31 -> $D1\n", 22, "dereference where a property edge was expected"),
    ("RULE 1: X =>\n  {=D1}\n", 15, "binding without a class node"),
    ("RULE 1: X =>\n  E31 {D1}\n", 15, "malformed binding in 'E31 {D1}'"),
    ("RULE 1: X =>\n  Foo\n", 15, "unrecognised path segment 'Foo'"),
    ("RULE 1: X =>\n  E999\n", 15, "unknown class id E999"),
    ("RULE 1: X =>\n  E31 -> P999 -> E55\n", 22, "unknown property id P999"),
    ("RULE 1: X =>\n  E31 Wrong\n", 15, "label 'Wrong' does not match schema label for E31"),
    ("RULE 1: X =>\n  E31 -> E22\n", 22, "class node E22 where a property edge was expected"),
    ("RULE 1: X =>\n  P2 -> E55\n", 15, "property edge P2 where a class node was expected"),
    ("RULE 1: X =>\n  E31 -> P2{=T} -> E55\n", 22, "property edge P2 cannot carry a binding"),
    ("RULE 1: X{V} =>\n  E31 -> P3 -> V -> P2 -> E55\n", 35, "variable emission must end the path"),
    ("RULE 1: X =>\n  E31 -> P2\n", 12, "path may not end on a property edge"),
    ("RULE 1: $D1 X =>\n  E31\n", 8, "selector anchor without '->'"),
    ("RULE 1: $1 -> X =>\n  E31\n", 8, "bad selector anchor '$1 '"),
    ("RULE 1: X} =>\n  E31\n", 8, "unbalanced '}' in selector"),
    ("RULE 1: X{a, 1} =>\n  E31\n", 8, "bad capture variable '1'"),
    ("RULE 1: X{a =>\n  E31\n", 8, "unbalanced '{' in selector"),
    ("RULE 1: =>\n  E31\n", 8, "selector has no element name"),
    (b"RULE 1: X =>\n  E31\n\xff", 19, "line 3: invalid UTF-8 byte 0xFF"),
    ("hello\n", 0, "no RULE header found"),
    ("x\nRULE 1: X =>\n  E31\n", 0, "text before first RULE header"),
    ("RULE 1: X\n  E31\n", 7, "rule body missing '=>'"),
    ("RULE 1: X =>\n", 7, "rule has no paths"),
    ("RULE 1: X => ;\n", 7, "rule has no paths"),
    ("RULE 1: $V -> X =>\n  E31\n", 0, "rule 1: unbound variable V"),
    ("RULE 1: X =>\n  E31 -> P3 -> V\n", 0, "rule 1: emission V is not a capture of the selector"),
    ("RULE 1: X =>\n  $V -> P2 -> E55\n", 0, "rule 1: unbound variable V"),
]


@pytest.mark.parametrize("text,offset,message", _REFUSALS)
def test_each_refusal_names_its_offset_and_exits_2(schema, tmp_path, capsys, text, offset, message):
    with pytest.raises(MdlSyntaxError) as exc:
        parse_mdl(text, schema)
    assert (str(exc.value), exc.value.offset) == (f"offset {offset}: {message}", offset)
    path = tmp_path / "rules.mdl"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    assert main(["rules", "--check", str(path)]) == 2
    assert capsys.readouterr().err == f"error: offset {offset}: {message}\n"
