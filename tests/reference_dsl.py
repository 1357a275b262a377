"""The `.crs` parser that the one statement reader of `crsdiag.dsl` replaced.

It reads component blocks and surgery blocks with two separate loops and
checks each lexeme through a predicate; it checks a surgery-block key only
after its '='.  The tests compare `crsdiag.dsl`
against it as an oracle; it shares the lexer and the semantic checks of
`crsdiag.dsl`, and the diagram types of `crsdiag.core`, whose constructors
run the validity check.
Shares with `src`: old code kept as an oracle, on dsl's lexer, `_resolve_components` and checks.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from crsdiag.core import (
    ContactSurgeryDiagram,
    LinkingData,
    Round1Spec,
    Round2Spec,
    RoundSurgeryDiagram,
    SlopeQ,
    TightLayerSpec,
)
from crsdiag.dsl import (
    ComponentDecl,
    DiagramFile,
    NamedDiagram,
    _lexemes,
    _position,
    _resolve_components,
)
from crsdiag.errors import DslSyntaxError, InvalidParameter, SemanticError


class _Parser:
    """Recursive descent over the lexeme list; `pos` indexes the next lexeme."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _lexemes(text)
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, at: Optional[int] = None, error=DslSyntaxError):
        """Raise `error` at lexeme `at`, by default the next one."""
        raise error(message, *_position(self.text, self.pos if at is None else at))

    def expect(self, ok, want: str) -> str:
        """Take the next lexeme; unless ok(lexeme) holds, fail naming `want`."""
        at = self.pos
        tok = self.next()
        if not ok(tok):
            found = tok[1:-1] if tok[:1] == '"' else tok  # a string shows without quotes
            self.fail(f"expected {want}, found {found!r}", at)
        return tok

    def expect_punct(self, ch: str) -> None:
        self.expect(ch.__eq__, repr(ch))

    def expect_ident(self) -> str:
        return self.expect(str.isidentifier, "'an identifier'")

    def parse_sint(self) -> int:
        negative = self.peek() == "-"
        self.pos += negative
        at = self.pos
        digits = self.expect(str.isdigit, "an integer")
        try:
            value = int(digits)
        except ValueError:  # more digits than the interpreter converts
            self.fail(f"integer literal of {len(digits)} digits is too long", at)
        return -value if negative else value

    def parse_slope(self) -> SlopeQ:
        at = self.pos
        if self.peek() == "inf":
            self.next()
            return SlopeQ.infinity()
        p = self.parse_sint()
        if self.peek() != "/":
            return SlopeQ.of(p, 1)
        self.next()
        q = self.parse_sint()
        if p == 0 and q == 0:
            self.fail("0/0 is not a coefficient", at)
        return SlopeQ.of(p, q)

    def parse_layer(self) -> TightLayerSpec:
        at = self.pos
        kind = self.expect_ident()
        if kind == "invariant":
            return TightLayerSpec.invariant()
        if kind not in ("nonrotative", "rotative_plus", "rotative_minus"):
            self.fail(f"unknown layer {kind!r}", at)
        self.expect_punct("(")
        value = self.parse_sint()
        self.expect_punct(")")
        try:
            return getattr(TightLayerSpec, kind)(value)
        except InvalidParameter:
            self.fail(f"bad layer parameter {value}", at)

    def parse_file(self) -> DiagramFile:
        diagrams = []
        names = set()
        while self.peek():  # "" ends the text
            at = self.pos
            keyword = self.expect_ident()
            if keyword not in ("diagram", "round_diagram"):
                self.fail(f"expected 'diagram' or 'round_diagram', found {keyword!r}", at)
            name = self.expect_ident()
            if name in names:
                self.fail(f"diagram name {name!r} repeats", at, SemanticError)
            names.add(name)
            if keyword == "diagram":
                diagrams.append(self._parse_contact(name))
            else:
                diagrams.append(self._parse_round(name))
        return DiagramFile(tuple(diagrams))

    # --- block parsers ----------------------------------------------------

    def _parse_component(self) -> ComponentDecl:
        label = self.expect_ident()
        self.expect_punct("{")
        fields = {}
        while self.peek() != "}":
            at = self.pos
            key = self.expect_ident()
            if key not in ("tb", "rot", "front", "orient"):
                self.fail(f"unknown component field {key!r}", at)
            if key in fields:
                self.fail(f"field {key!r} repeats", at, SemanticError)
            self.expect_punct("=")
            at = self.pos
            if key in ("tb", "rot"):
                fields[key] = self.parse_sint()
            elif key == "front":
                word = self.next()
                if word[:1] != '"':
                    self.fail("front takes a quoted word", at)
                fields["front"] = word[1:-1]
            else:
                orient = self.expect_ident()
                if orient not in ("forward", "reverse"):
                    self.fail("orient is 'forward' or 'reverse'", at)
                fields["orient"] = orient
            self.expect_punct(";")
        self.expect_punct("}")
        return ComponentDecl(label, fields.get("tb"), fields.get("rot"),
                             fields.get("front"), fields.get("orient"))

    def _parse_pair(self) -> Tuple[str, str]:
        self.expect_punct("(")
        a = self.expect_ident()
        self.expect_punct(",")
        b = self.expect_ident()
        self.expect_punct(")")
        return a, b

    def _parse_surgery_block(self, want_r1: bool, want_r2: bool):
        self.expect_punct("{")
        r1 = r2 = layer = None
        while self.peek() != "}":
            at = self.pos
            key = self.expect_ident()
            self.expect_punct("=")
            if key == "r1" and want_r1:
                if r1 is not None:
                    self.fail("field 'r1' repeats", at, SemanticError)
                first = self.parse_sint()
                self.expect_punct(",")
                second = self.parse_sint()
                r1 = (first, second)
            elif key == "r2" and want_r2:
                if r2 is not None:
                    self.fail("field 'r2' repeats", at, SemanticError)
                r2 = self.parse_slope()
            elif key == "layer" and want_r1:
                if layer is not None:
                    self.fail("field 'layer' repeats", at, SemanticError)
                layer = self.parse_layer()
            else:
                self.fail(f"unknown field {key!r} here", at)
            self.expect_punct(";")
        self.expect_punct("}")
        if want_r1 and r1 is None:
            self.fail("block needs an 'r1' field")
        if want_r2 and r2 is None:
            self.fail("block needs an 'r2' field")
        return r1, r2, layer if layer is not None else TightLayerSpec.invariant()

    def _parse_body(self, statements):
        """Parse a diagram body `{ ... }`.

        component and lk statements are common to both diagram kinds;
        statements maps every other keyword to a handler that parses the rest
        of its statement.  Returns the declarations sorted by label, the
        resolved components and the linking data.
        """
        self.expect_punct("{")
        decls: List[ComponentDecl] = []
        linking: List[Tuple[str, str, int]] = []
        while self.peek() != "}":
            at = self.pos
            keyword = self.expect_ident()
            if keyword == "component":
                decls.append(self._parse_component())
            elif keyword == "lk":
                a, b = self._parse_pair()
                self.expect_punct("=")
                value = self.parse_sint()
                self.expect_punct(";")
                if a == b:
                    self.fail(f"self-linking lk({a}, {a}) is not allowed", at, SemanticError)
                linking.append((a, b, value))
            elif keyword in statements:
                statements[keyword](at)
            else:
                self.fail(f"unknown statement {keyword!r}", at)
        self.expect_punct("}")
        decls, components = _resolve_components(decls)
        return decls, components, LinkingData(linking)

    def _parse_contact(self, name: str) -> NamedDiagram:
        surgeries = {}

        def contact_surgery(at):
            label = self.expect_ident()
            self.expect_punct("=")
            slope = self.parse_slope()
            self.expect_punct(";")
            if label in surgeries:
                self.fail(f"component {label!r} has two coefficients", at, SemanticError)
            surgeries[label] = slope

        decls, components, linking = self._parse_body({"contact_surgery": contact_surgery})
        diagram = ContactSurgeryDiagram(components, linking, surgeries)
        return NamedDiagram(name, decls, diagram)

    def _parse_round(self, name: str) -> NamedDiagram:
        joints = []       # (pair, r1, layer, r2)
        standalone1 = []  # (pair, r1, layer)
        standalone2 = []  # (knot, r2)

        def joint_pair(_at):
            pair = self._parse_pair()
            r1, r2, layer = self._parse_surgery_block(want_r1=True, want_r2=True)
            joints.append((pair, r1, layer, r2))

        def round1(_at):
            pair = self._parse_pair()
            r1, _r2, layer = self._parse_surgery_block(want_r1=True, want_r2=False)
            standalone1.append((pair, r1, layer))

        def round2(_at):
            knot = self.expect_ident()
            _r1, r2, _layer = self._parse_surgery_block(want_r1=False, want_r2=True)
            standalone2.append((knot, r2))

        decls, components, linking = self._parse_body(
            {"joint_pair": joint_pair, "round1": round1, "round2": round2})
        joints.sort(key=lambda item: item[0])
        standalone1.sort(key=lambda item: item[0])
        standalone2.sort(key=lambda item: item[0])
        round1_specs = []
        round2_specs = []
        for pair, r1, layer, r2 in joints:
            round1_specs.append(Round1Spec(pair, r1[0], r1[1], layer, r2))
        for pair, r1, layer in standalone1:
            round1_specs.append(Round1Spec(pair, r1[0], r1[1], layer))
        for knot, r2 in standalone2:
            round2_specs.append(Round2Spec(knot, r2))
        diagram = RoundSurgeryDiagram(components, linking, tuple(round1_specs), tuple(round2_specs))
        return NamedDiagram(name, decls, diagram)


def parse_file(text: str) -> DiagramFile:
    return _Parser(text).parse_file()
