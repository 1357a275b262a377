import json
import random
import re
from dataclasses import replace

import pytest

from crsdiag import SlopeQ, TightLayerSpec
from crsdiag import dsl
from crsdiag.errors import CertificateError, DslSyntaxError, InvalidParameter, SemanticError
import reference_dsl
from conftest import (
    FIXTURES,
    MIXED_ROUND_TEXT,
    edit_lexemes,
    random_contact_text,
    random_front_file_text,
    random_front_text,
    random_pm1_diagram,
    random_round_text,
    run_optimized,
)


def parse(text):
    return dsl.parse_file(text)


def test_fixture_corpus_round_trips():
    for path in sorted(FIXTURES.glob("*.crs")):
        df = parse(path.read_text())
        printed = dsl.print_file(df)
        assert parse(printed) == df, path.name
        assert dsl.print_file(parse(printed)) == printed, path.name


def test_parse_canonicalizes_order():
    df = parse(
        """
        diagram d {
          component B { tb = -2; rot = 1; }
          component A { tb = -1; rot = 0; }
          contact_surgery B = -1;
          contact_surgery A = 1;
        }
        """
    )
    nd = df.get()
    assert [c.label for c in nd.diagram.components] == ["A", "B"]
    assert [d.label for d in nd.decls] == ["A", "B"]


def test_layer_spellings_identified():
    text = """
    round_diagram d {
      component A { tb = -1; rot = 0; }
      component B { tb = -1; rot = 0; }
      joint_pair (A, B) { r1 = 0, 0; r2 = -1; layer = %s; }
    }
    """
    invariant = parse(text % "invariant")
    explicit = parse(text % "nonrotative(0)")
    assert invariant == explicit
    assert invariant.get().diagram.round1[0].layer == TightLayerSpec.nonrotative(0)


def test_printed_pair_diagrams_parse_back_equal(rng):
    """The standard layer has one representation and every round diagram is
    stored in canonical order, so `pair_pm1_diagram`'s result prints and
    parses back equal, and `named` reorders nothing."""
    from crsdiag import kirby1_gadget, pair_pm1_diagram

    for m in (1, 2, 3):
        nd = dsl.named("x", pair_pm1_diagram(kirby1_gadget(m))[0])
        assert parse(dsl.print_diagram(nd)).get() == nd
    for _ in range(40):
        rd = pair_pm1_diagram(random_pm1_diagram(rng))[0]
        nd = dsl.named("x", rd)
        assert nd.diagram is rd
        assert parse(dsl.print_diagram(nd)).get() == nd


def test_named_round_diagram_keeps_its_statements(rng):
    """named() keeps every round statement, and each joint pair joint."""
    from crsdiag import pair_pm1_diagram

    def statements(rd):
        return sorted((r1.pair, r1.coeff_a, r1.coeff_b, str(r1.r2)) for r1 in rd.round1)

    for _ in range(20):
        rd = pair_pm1_diagram(random_pm1_diagram(rng))[0]
        assert statements(dsl.named("x", rd).diagram) == statements(rd)


def test_printer_refuses_layer_twisting():
    """The format has no twisting syntax, so a twisted layer is not printed as
    one that would parse back with twisting 0."""
    nd = parse(FIXTURES.joinpath("hopf_round1_invariant.crs").read_text()).get()
    rd = nd.diagram
    layer = TightLayerSpec.nonrotative(0, 2)
    twisted = replace(nd, diagram=replace(rd, round1=(replace(rd.round1[0], layer=layer),)))
    with pytest.raises(InvalidParameter):
        dsl.print_diagram(twisted)


def test_front_derived_invariants():
    df = parse(FIXTURES.joinpath("front_pair.crs").read_text())
    diagram = df.get().diagram
    assert diagram.component("A").tb == -1
    assert diagram.component("B").tb == -2
    assert diagram.component("B").rot in (-1, 1)


def test_front_mismatch_is_semantic_error():
    with pytest.raises(SemanticError):
        parse(
            """
            diagram d {
              component A { front = "U1 C1"; orient = forward; tb = -2; }
              contact_surgery A = 1;
            }
            """
        )


def test_front_must_be_single_component():
    with pytest.raises(SemanticError):
        parse(
            """
            diagram d {
              component A { front = "U1 U1 X2 X2 C1 C1"; orient = forward; }
              contact_surgery A = 1;
            }
            """
        )


def test_self_linking_rejected():
    with pytest.raises(SemanticError):
        parse(
            """
            diagram d {
              component A { tb = -1; rot = 0; }
              lk(A, A) = 1;
              contact_surgery A = 1;
            }
            """
        )


def test_unknown_label_rejected():
    with pytest.raises(SemanticError):
        parse(
            """
            diagram d {
              component A { tb = -1; rot = 0; }
              contact_surgery A = 1;
              contact_surgery B = 1;
            }
            """
        )


def test_missing_coefficient_rejected():
    with pytest.raises(SemanticError):
        parse(
            """
            diagram d {
              component A { tb = -1; rot = 0; }
            }
            """
        )


def test_duplicate_coefficient_rejected():
    with pytest.raises(SemanticError):
        parse(
            """
            diagram d {
              component A { tb = -1; rot = 0; }
              contact_surgery A = 1;
              contact_surgery A = -1;
            }
            """
        )


def test_orient_without_front_rejected():
    with pytest.raises(SemanticError):
        parse(
            """
            diagram d {
              component A { tb = -1; rot = 0; orient = forward; }
              contact_surgery A = 1;
            }
            """
        )


def test_one_over_zero_is_infinity():
    df = parse(
        """
        diagram d {
          component A { tb = -1; rot = 0; }
          contact_surgery A = 1/0;
        }
        """
    )
    assert df.get().diagram.coefficients["A"] == SlopeQ.infinity()


_POSITIONED_ERRORS = [
    ("diagram d {\n  component A { tb = x; }\n}", DslSyntaxError, 2, 22,
     "expected an integer, found 'x'"),
    # at the end of the file a trailing comment keeps the column of its '#'
    ("diagram d { # comment", DslSyntaxError, 1, 13, "expected 'an identifier', found ''"),
    # a '#' inside a string is no comment
    ('diagram d { component A { front = "#";', DslSyntaxError, 1, 39,
     "expected 'an identifier', found ''"),
    ('diagram d { component A { front = "#"; # note', DslSyntaxError, 1, 40,
     "expected 'an identifier', found ''"),
    ("diagram d { component A { tb = -1; } contact_surgery A = 1; }\r\ndiagram d { }",
     SemanticError, 2, 1, "diagram name 'd' repeats"),
    ("diagram d {\n  component A {tb = -1; tb = -2; }\n}", SemanticError, 2, 25,
     "field 'tb' repeats"),
    ("round_diagram r {\n  component A { tb = -1; }\n  round2 A { r2 = 1; r2 = 2; }\n}",
     SemanticError, 3, 22, "field 'r2' repeats"),
    ('diagram d {\n\tcomponent A { front = "U1 C1"; }\n  lk(A, A) = 1;\n}', SemanticError, 3, 3,
     "self-linking lk(A, A) is not allowed"),
    ("diagram d {\n  component A { tb = -1; } contact_surgery A = 1;\n   contact_surgery A = -1;\n}",
     SemanticError, 3, 4, "component 'A' has two coefficients"),
    ('diagram dd { component A { front = "U1 C1"; orient = sideways; } }', DslSyntaxError, 1, 54,
     "orient is 'forward' or 'reverse'"),
    ("diagram d { component A { tb = -1; } contact_surgery A = 0/0; }", DslSyntaxError, 1, 58,
     "0/0 is not a coefficient"),
    ('diagram d { component A { tb = "5"; } }', DslSyntaxError, 1, 32,
     "expected an integer, found '5'"),
    # a missing required field is reported after the block, r1 before r2
    ("round_diagram r {\n  joint_pair (A, B) { layer = invariant; }\n}", DslSyntaxError, 3, 1,
     "block needs an 'r1' field"),
    ("round_diagram r { round2 K { } }", DslSyntaxError, 1, 32, "block needs an 'r2' field"),
    # a block key is checked before its '='
    ("round_diagram r {\n  round1 (A, B) { r2 r1 = 0, 0; }\n}", DslSyntaxError, 2, 19,
     "unknown field 'r2' here"),
]


def test_syntax_error_carries_position():
    for text, error, line, col, message in _POSITIONED_ERRORS:
        with pytest.raises(error) as info:
            parse(text)
        assert (info.value.line, info.value.col) == (line, col), text
        assert str(info.value) == (f"{line}:{col}: {message}" if error is DslSyntaxError else message)


def test_joint_pair_wires_joint_with():
    nd = parse(FIXTURES.joinpath("fillable_two_pairs.crs").read_text()).get()
    assert nd.diagram.round2 == ()
    assert [(r1.pair, r1.r2) for r1 in nd.diagram.round1] == [
        (("A", "B"), SlopeQ.of(-1)), (("C", "D"), SlopeQ.of(-1))]
    assert [(r2["knot"], r2["joint_with"]) for r2 in dsl.diagram_json(nd)["round2"]] == [
        ("B", 0), ("D", 1)]


def test_mixed_round_file_json_numbers_the_joint_pairs_first():
    nd = parse(MIXED_ROUND_TEXT).get()
    assert [(r1.pair, r1.r2) for r1 in nd.diagram.round1] == [
        (("A", "B"), SlopeQ.of(-1)), (("C", "D"), SlopeQ.of(1)), (("E", "F"), None)]
    assert dsl.diagram_json(nd)["round2"] == [
        {"knot": "B", "coefficient": "-1", "joint_with": 0},
        {"knot": "D", "coefficient": "1", "joint_with": 1},
        {"knot": "G", "coefficient": "5/2", "joint_with": None},
        {"knot": "H", "coefficient": "3", "joint_with": None},
    ]


def test_unknown_labels_in_round_statements():
    # a joint pair's round 2-surgery sits on its pair, so an unknown second
    # component is reported once, by the round 1 part
    with pytest.raises(SemanticError) as info:
        parse("round_diagram bad {\n  component A { tb = -1; rot = 0; }\n"
              "  joint_pair (A, Z) { r1 = 0, 0; r2 = -1; layer = invariant; }\n}\n")
    assert str(info.value) == "round1[0] references unknown component 'Z'"
    # a standalone round 2-surgery is numbered after the joint pairs
    with pytest.raises(SemanticError) as info:
        parse(MIXED_ROUND_TEXT.replace("round2 H", "round2 Z"))
    assert str(info.value) == "round2[3] references unknown component 'Z'"


def test_get_by_name_and_default():
    text = FIXTURES.joinpath("nice_hopf_pair.crs").read_text()
    df = parse(text)
    assert df.get("nice_pair").name == "nice_pair"
    with pytest.raises(SemanticError):
        df.get("missing")
    two = parse(text + "\n" + text.replace("nice_pair", "other"))
    with pytest.raises(SemanticError):
        two.get()


# --- the scanner against its character-by-character reference ------------------

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT = re.compile(r"[0-9]+")


def _reference_tokenize(text):
    """The scanner as a loop over characters: (kind, value, line, col) tuples."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            j = text.find('"', i + 1)
            if j < 0 or "\n" in text[i + 1:j]:
                raise DslSyntaxError("unterminated string literal", line, col)
            tokens.append(("string", text[i + 1:j], line, col))
            col += j - i + 1
            i = j + 1
            continue
        m = _IDENT.match(text, i)
        if m:
            tokens.append(("ident", m.group(0), line, col))
            col += len(m.group(0))
            i = m.end()
            continue
        m = _INT.match(text, i)
        if m:
            tokens.append(("int", m.group(0), line, col))
            col += len(m.group(0))
            i = m.end()
            continue
        if ch in "{}()=,;/-":
            tokens.append(("punct", ch, line, col))
            i += 1
            col += 1
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


def _scan(tokenize, text):
    try:
        return [tuple(tok) for tok in tokenize(text)]
    except DslSyntaxError as exc:
        return exc.message, exc.line, exc.col


def _kind(lexeme):
    if not lexeme:
        return "eof"
    if lexeme[0] == '"':
        return "string"
    if lexeme.isidentifier():
        return "ident"
    return "int" if lexeme.isdigit() else "punct"


def _located_lexemes(text):
    """dsl's lexemes in the reference's shape, each placed by `dsl._position`."""
    return [(_kind(lexeme), lexeme.strip('"'), *dsl._position(text, k))
            for k, lexeme in enumerate(dsl._lexemes(text))]


def _scanner_inputs():
    rng = random.Random(4)
    texts = [path.read_text() for path in sorted(FIXTURES.glob("*.crs"))]
    for i in range(12):
        named = dsl.named(f"d{i}", random_pm1_diagram(rng))
        front = random_front_text(rng)
        texts.append(f'# generated\r\ndiagram f{i} {{\tcomponent F {{ front = "{front}"; }} }}\n'
                     + dsl.print_file(dsl.DiagramFile((named,))))
    mutated = []
    for text in texts:
        for _ in range(60):
            at = rng.randrange(len(text) + 1)
            ch = rng.choice(['"', "#", "\n", "\t", "\r", "\x0b", "\u00e9"])
            drop = rng.randrange(2)  # replace the character at `at`, or insert before it
            mutated.append(text[:at] + ch + text[at + drop:])
        for _ in range(10):
            mutated.append(text[:rng.randrange(len(text) + 1)])
    return texts + mutated


def test_scanner_matches_reference():
    errors = 0
    for text in _scanner_inputs():
        expected = _scan(_reference_tokenize, text)
        assert _scan(_located_lexemes, text) == expected, repr(text)
        errors += isinstance(expected, tuple)
    assert errors > 300  # the mutations reach the error paths too


# --- the statement reader against the parser it replaced ------------------------

def _outcome(parse_file, text):
    try:
        return dsl.print_file(parse_file(text))
    except Exception as exc:  # the comparison covers every error, typed or not
        return type(exc).__name__, str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


def _key_checked_before_equals(text, old, new):
    """The one allowed difference: a key inside a joint_pair, round1 or round2
    block that is unknown or repeated and not followed by '='.  The reference
    fails at the lexeme after the key with "expected '='"; the reader fails at
    the key itself."""
    lexemes = dsl._lexemes(text)
    k = next(i for i in range(len(lexemes)) if dsl._position(text, i) == old[2:])
    key = lexemes[k - 1]
    brace = max(i for i in range(k) if lexemes[i] == "{")
    in_round_block = (lexemes[brace - 6:brace - 4] in (["joint_pair", "("], ["round1", "("])
                      or lexemes[brace - 2] == "round2")
    return (old[:2] == ("DslSyntaxError", f"{old[2]}:{old[3]}: expected '=', found {lexemes[k]!r}")
            and in_round_block
            and new[2:] == dsl._position(text, k - 1)
            and new[:2] in (("DslSyntaxError", f"{new[2]}:{new[3]}: unknown field {key!r} here"),
                            ("SemanticError", f"field {key!r} repeats")))


def _edited_texts():
    rng = random.Random(10)
    texts = [path.read_text() for path in sorted(FIXTURES.glob("*.crs"))]
    for i in range(40):
        texts.append(random_contact_text(rng, f"c{i}"))
        texts.append(random_round_text(rng, f"r{i}"))
        texts.append(random_front_file_text(rng, f"f{i}"))
    texts.append("\n".join(texts[8:20]))  # a file of several diagrams
    edited = []
    for text in texts:
        for _ in range(42):
            edited.append(edit_lexemes(rng, text, rng.randint(1, 3)))
    return texts + edited


def test_reader_matches_reference_parser():
    """Every edit ends the same way in both parsers, except the key-before-'='
    case, which is checked exactly."""
    texts = _edited_texts()
    assert len(texts) >= 5000
    parsed = errors = key_first = 0
    for text in texts:
        old, new = _outcome(reference_dsl.parse_file, text), _outcome(dsl.parse_file, text)
        if old != new:
            assert _key_checked_before_equals(text, old, new), (text, old, new)
            key_first += 1
        parsed += isinstance(new, str)
        errors += isinstance(new, tuple)
    # the 129 unedited texts parse, and so do some edited ones
    assert parsed > 150 and errors > 2000 and key_first > 5, (parsed, errors, key_first)


# --- printed statements, misplaced and edited ----------------------------------

# Every shape `print_diagram` writes: components with a front, with a front and
# the tb and rot it derives, or with tb and rot; contact surgeries with integer,
# fractional and infinite coefficients; every layer spelling.
_PRINTED_BASE = """\
diagram fronts {
  component A { front = "U1 C1"; orient = forward; }
  component B { front = "U1 U1 C2 C1"; orient = reverse; tb = -2; rot = -1; }
  component C { front = "U1 U1 C2 C1"; orient = forward; rot = 1; }
  component D { tb = -3; rot = 2; }
  component E { tb = -1; }
  lk(A, B) = 1;
  lk(C, D) = -2;
  contact_surgery A = -1;
  contact_surgery B = inf;
  contact_surgery C = 5/2;
  contact_surgery D = -3/7;
  contact_surgery E = 0;
}

round_diagram rounds {
  component A { tb = -1; rot = 0; }
  component B { front = "U1 U1 C2 C1"; orient = forward; }
  component C { tb = -1; rot = 0; }
  component D { tb = -2; rot = 1; }
  component E { tb = -1; rot = 0; }
  component F { tb = -1; rot = 0; }
  component G { tb = -4; rot = -1; }
  lk(A, C) = 1;
  joint_pair (A, B) { r1 = 0, 0; r2 = -1; layer = invariant; }
  joint_pair (C, D) { r1 = -1, 2; r2 = 5/2; layer = nonrotative(-2); }
  round1 (E, F) { r1 = 1, 1; layer = rotative_plus(3); }
  round2 G { r2 = -7/3; }
}
"""


def printed_texts():
    """Printed files that hold every statement shape: the base above, the
    fixtures and generated round and front diagrams, each printed."""
    texts = [_PRINTED_BASE] + [path.read_text() for path in sorted(FIXTURES.glob("*.crs"))]
    rng = random.Random(24)
    for _ in range(6):
        texts += [random_round_text(rng), random_front_file_text(rng)]
    return [dsl.print_file(parse(text)) for text in texts]


def printed_statement_texts():
    """The printed files, and edits of them inside their statement lines."""
    rng = random.Random(24)
    texts = printed_texts()
    return texts + [edit_lexemes(rng, text, rng.randint(1, 2), in_statements=True)
                    for text in texts for _ in range(40)]


_LK_BASE = """\
diagram d {
  component A { tb = -1; rot = 0; }
  component B { tb = -2; rot = 1; }
  lk(A, B) = 2;
  contact_surgery A = 1;
  contact_surgery B = -1;
}
"""


def misplaced_lk_texts():
    """Texts with an lk statement where no statement goes, and edge lk lines."""
    line = "lk(A, B) = 1;"
    edits = [
        ("{ tb = -1;", "{ " + line + " tb = -1;"),             # inside a component block
        ("rot = 0; }", "rot = 0; " + line + " }"),
        ("component B {", "component " + line + " {"),        # as a component label
        ("diagram d {", "diagram " + line + " {"),             # as a diagram name
        ("diagram d {", line + "\ndiagram d {"),               # outside any diagram
        ("B = -1;\n}\n", "B = -1;\n}\n" + line + "\n"),
        ("= 1;\n  contact_surgery B", "= " + line + "\n  contact_surgery B"),
        ("lk(A, B) = 2;", "lk(A, A) = 1;"),
        ("lk(A, B) = 2;", "lk(B, B) = -3; lk(A, B) = 2;"),
        ("lk(A, B) = 2;", "lk(A, B) = 2; lk(A, B) = 3;"),
        ("lk(A, B) = 2;", "lk(A, C) = 2;"),
        ("lk(A, B) = 2;", "lk(A, B) = 1234567890123456789;"),  # 19 digits
        ("lk(A, B) = 2;", "lk(A, B) = -123456789012345678;"),  # 18 digits
        ("lk(A, B) = 2;", "lk(A, B) = " + "9" * 5000 + ";"),
        ("lk(A, B) = 2;", "lk(A, B) = -0;"),
        ("lk(A, B) = 2;", "lk(A, B) = -0; lk(A, B) = 0;"),
        ("lk(A, B) = 2;", "lk(A,B) = 2; # spaced apart\n  lk( A, B ) = 2;"),
        ("lk(A, B) = 2;", "lk(A, B) = 2"),
        ("lk(A, B) = 2;\n  contact_surgery A = 1;\n  contact_surgery B = -1;\n}\n", line),
    ]
    texts = []
    for old, new in edits:
        assert old in _LK_BASE
        texts.append(_LK_BASE.replace(old, new, 1))
    round_edits = [
        ("{ r1 = 1, 1;", "{ " + line + " r1 = 1, 1;"),         # inside a joint_pair block
        ("layer = invariant; }", "layer = invariant; " + line + " }"),
        ("{ r2 = 5/2; }", "{ r2 = " + line + " }"),
        ("{ r2 = 3; }", "{ r2 = 3; } " + line),
        ("round1 (E, F)", "round1 " + line),
    ]
    for old, new in round_edits:
        assert old in MIXED_ROUND_TEXT
        texts.append(MIXED_ROUND_TEXT.replace(old, new, 1))
    return texts


def _json_outcome(parse_file, text):
    outcome = _outcome(parse_file, text)
    return outcome if isinstance(outcome, str) else list(outcome)


def _assert_read_as_reference(texts, outcomes):
    """Each outcome is the reference's, except where the reference checks a
    round-block key only after its '='."""
    for text, outcome in zip(texts, outcomes, strict=True):
        old = _outcome(reference_dsl.parse_file, text)
        new = outcome if isinstance(outcome, str) else tuple(outcome)
        assert old == new or _key_checked_before_equals(text, old, new), text


def misplaced_lk_outcomes():
    return [_json_outcome(dsl.parse_file, text) for text in misplaced_lk_texts()]


def test_misplaced_lk_statements_fail_as_todays_lexemes_do():
    """Each outcome is the reference's, except where the reference checks a
    round-block key only after its '='."""
    outcomes = misplaced_lk_outcomes()
    texts = misplaced_lk_texts()
    _assert_read_as_reference(texts, outcomes)
    errors = [outcome for outcome in outcomes if isinstance(outcome, list)]
    # 18 and 19 digits, the two -0 texts, the spaced lines and the lk after a
    # round2 block parse; 16 of the errors have a position
    assert len(errors) == len(texts) - 6
    assert sum(1 for error in errors if error[2] is not None) == 16


def test_misplaced_lk_statements_under_optimize():
    result = run_optimized(
        "import json, sys\n"
        "from test_dsl import misplaced_lk_outcomes\n"
        "print(json.dumps([sys.flags.optimize, misplaced_lk_outcomes()]))\n")
    assert result.returncode == 0, result.stderr
    optimize, outcomes = json.loads(result.stdout)
    assert optimize == 1
    assert outcomes == misplaced_lk_outcomes()


def misplaced_statement_texts():
    """Texts with a printed statement where it does not go, or one that its
    reader refuses, and near-printed spellings."""
    lines = ["component X { tb = -1; rot = 0; }", 'component X { front = "U1 C1"; orient = forward; }',
             "contact_surgery A = 1;", "joint_pair (A, B) { r1 = 0, 0; r2 = -1; layer = invariant; }",
             "round1 (A, B) { r1 = 0, 0; layer = invariant; }", "round2 A { r2 = 1; }"]
    places = [
        ("{ tb = -3;", "{ {} tb = -3;"),                         # inside a component block
        ("{ r1 = 0, 0;", "{ {} r1 = 0, 0;"),                     # inside a joint_pair block
        ("component E {", "component {} {"),                     # as a component label
        ("diagram fronts {", "diagram {} {"),                    # as a diagram name
        ("diagram fronts {", "{}\ndiagram fronts {"),            # outside any diagram
        ("}\n\nround_diagram", "}\n{}\n\nround_diagram"),
        ("contact_surgery E = 0;", "contact_surgery E = {}"),    # as a value
        ("  lk(A, B) = 1;", "  {}\n  lk(A, B) = 1;"),            # in a contact diagram
        ("  lk(A, C) = 1;", "  {}\n  lk(A, C) = 1;"),            # in a round diagram
    ]
    edits = [(old, new.replace("{}", line)) for old, new in places for line in lines]
    edits += [
        ("contact_surgery A = -1;", "contact_surgery A = -1; contact_surgery A = 1;"),
        ("contact_surgery E = 0;", "contact_surgery E = 0/0;"),
        ("contact_surgery E = 0;", "contact_surgery E = -0/0;"),
        ("contact_surgery E = 0;", "contact_surgery E = 2/0;"),
        ("contact_surgery E = 0;", "contact_surgery E = -0;"),
        ("contact_surgery E = 0;", "contact_surgery E = 1/-2;"),
        ("contact_surgery E = 0;", "contact_surgery E = -123456789012345678/3;"),  # 18 digits
        ("contact_surgery E = 0;", "contact_surgery E = 1234567890123456789/3;"),  # 19 digits
        ("contact_surgery E = 0;", "contact_surgery F = 0;"),
        ("component D { tb = -3; rot = 2; }", "component D { tb = -3; rot = " + "9" * 5000 + "; }"),
        ("component D { tb = -3; rot = 2; }", "component D { rot = 2; tb = -3; }"),
        ("component D { tb = -3; rot = 2; }", "component D { tb = -3; rot = 2; tb = -3; }"),
        ("component D { tb = -3; rot = 2; }", "component D { }"),
        ("component D { tb = -3; rot = 2; }", "component D { rot = 2; }"),
        ("component D { tb = -3; rot = 2; }", "component A { tb = -3; rot = 2; }"),
        ("orient = reverse; tb = -2;", "orient = reverse; tb = -3;"),
        ("orient = reverse; tb = -2;", "orient = backward; tb = -2;"),
        ('front = "U1 C1"; orient = forward;', 'front = "U1 C2"; orient = forward;'),
        ('front = "U1 C1"; orient = forward;', 'front = "U1 U1 C1 C1"; orient = forward;'),
        ('front = "U1 C1"; orient = forward;', 'front = ""; orient = forward;'),
        ("component E { tb = -1; }", "component E { orient = forward; tb = -1; }"),
        ("layer = nonrotative(-2);", "layer = nonrotative(-123456789012345678);"),
        ("layer = nonrotative(-2);", "layer = rotative_minus(0);"),
        ("layer = nonrotative(-2);", "layer = rotative_minus(-1);"),
        ("layer = nonrotative(-2);", "layer = twisted(1);"),
        ("layer = rotative_plus(3);", "layer = rotative_plus(1234567890123456789);"),
        ("r2 = -1; layer", "r2 = 0/0; layer"),
        ("r2 = -1; layer", "r2 = inf; layer"),
        ("joint_pair (A, B)", "joint_pair (A, A)"),
        ("joint_pair (A, B)", "joint_pair (A, X)"),
        ("r1 = -1, 2;", "r1 = -1, 1234567890123456789;"),
        ("round1 (E, F) { r1 = 1, 1;", "round1 (E, F) { r1 = 1, 1; r2 = -1;"),
        ("round2 G { r2 = -7/3; }", "round2 G { r2 = 0/0; }"),
        ("round2 G { r2 = -7/3; }", "round2 G { r2 = -7/3; }\n  round2 G { r2 = 1; }"),
        ("round2 G { r2 = -7/3; }", "round2 B { r2 = 1; }"),
        ("round2 G { r2 = -7/3; }", "round2 X { r2 = 1; }"),
    ]
    texts = []
    for old, new in edits:
        assert old in _PRINTED_BASE, old
        texts.append(_PRINTED_BASE.replace(old, new, 1))
    return texts


def printed_statement_outcomes():
    return [_json_outcome(dsl.parse_file, text)
            for text in misplaced_statement_texts() + printed_statement_texts()]


def test_printed_statements_read_as_todays_lexemes_do():
    """Misplaced, refused and edited printed statements end as the reference
    ends them."""
    misplaced, printed = misplaced_statement_texts(), printed_statement_texts()
    outcomes = printed_statement_outcomes()
    _assert_read_as_reference(misplaced + printed, outcomes)
    errors = [outcome for outcome in outcomes[:len(misplaced)] if isinstance(outcome, list)]
    # 12 of the 90 misplaced texts parse; 59 of the errors have a position
    assert (len(misplaced), len(errors)) == (90, 78)
    assert sum(1 for error in errors if error[2] is not None) == 59
    parsed = [isinstance(outcome, str) for outcome in outcomes[len(misplaced):]]
    # the 22 printed files parse, and nearly every edit of them fails
    assert all(parsed[:22]) and sum(parsed) < 40


def test_printed_statements_under_optimize():
    result = run_optimized(
        "import json, sys\n"
        "from test_dsl import printed_statement_outcomes\n"
        "print(json.dumps([sys.flags.optimize, printed_statement_outcomes()]))\n")
    assert result.returncode == 0, result.stderr
    optimize, outcomes = json.loads(result.stdout)
    assert optimize == 1
    assert outcomes == printed_statement_outcomes()


# --- word ends and every spelling ---------------------------------------------------

_GLUED = [  # an identifier that starts with a keyword is one identifier
    ("component E {", "componentE {"),
    ("round2 G { r2 = -7/3; }", "round2K { r2 = 1; }"),
    ("lk(A, B) = 1;", "lkx(A, B) = 1;"),
    ("diagram fronts {", "diagramX {"),
    ("contact_surgery A = -1;", "contact_surgeryA = 1;"),
    ("r2 = -1; layer", "r2 = infx; layer"),
    ("layer = invariant;", "layer = invariantx;"),
    ("orient = forward;", "orient = forwardx;"),
]


def test_keywords_end_at_word_boundaries():
    for old, new in _GLUED:
        assert old in _PRINTED_BASE, old
        text = _PRINTED_BASE.replace(old, new, 1)
        outcome = _outcome(dsl.parse_file, text)
        assert isinstance(outcome, tuple) and outcome == _outcome(reference_dsl.parse_file, text), text


def test_walker_that_finds_no_fault_raises_certificate_error(monkeypatch):
    """A diagram the patterns refuse and the lexeme walker accepts is an internal fault."""
    monkeypatch.setattr(dsl, "_read", lambda text: ([], (0, set())))  # refuse the first diagram
    with pytest.raises(CertificateError, match="'mixed', which the walker accepts"):
        parse(MIXED_ROUND_TEXT)


# separators: tabs, CRLF, extra blanks and comments that hold grammar characters
_GAPS = (" ", "\t", "  \t ", "\r\n", "\n\t ", " # ; } { lk(A, B) = 1;\n", '\t#"x\r\n  # round2 K {\n', "#\n")


def respaced(rng, text):
    """The text with its lexemes kept and each separator spelled anew; where
    two lexemes meet without one, a seeded half get one."""
    pieces = [rng.choice(_GAPS)]
    for m in dsl._LEXEME.finditer(text, dsl._SPACES.match(text).end()):
        pieces += [m.group(1), rng.choice(_GAPS) if m.end(1) < m.end() or rng.random() < 0.5 else ""]
    return "".join(pieces)


def every_spelling_problems():
    """The respaced printed and edited texts that do not end as the reference
    ends them, or whose print differs from the print of the text they respace;
    and the count of respaced texts that parse."""
    rng = random.Random(26)
    problems, parsed = [], 0
    for text in printed_texts() + _edited_texts():
        spaced = respaced(rng, text)
        old, new = _outcome(reference_dsl.parse_file, spaced), _outcome(dsl.parse_file, spaced)
        plain = _outcome(dsl.parse_file, text)
        if old != new and not _key_checked_before_equals(spaced, old, new):
            problems.append([spaced, list(old), list(new)])
        if (isinstance(plain, str) or isinstance(new, str)) and new != plain:
            problems.append([spaced, plain, new])
        parsed += isinstance(new, str)
    return problems, parsed


def test_every_spelling_reads_as_the_reference():
    problems, parsed = every_spelling_problems()
    assert problems == []
    assert parsed > 150  # the printed and unedited texts parse, and some edited ones


def test_every_spelling_under_optimize():
    result = run_optimized(
        "import json, sys\n"
        "from test_dsl import every_spelling_problems\n"
        "print(json.dumps([sys.flags.optimize, every_spelling_problems()]))\n")
    assert result.returncode == 0, result.stderr
    optimize, (problems, parsed) = json.loads(result.stdout)
    assert optimize == 1
    assert problems == [] and parsed > 150
