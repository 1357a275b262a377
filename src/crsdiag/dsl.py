"""Text format for surgery diagrams: parser, semantic checks, canonical printer.

A file holds named blocks::

    diagram hopf {
      component A { tb = -1; rot = 0; }
      component B { front = "U1 C1"; orient = forward; }
      lk(A, B) = 1;
      contact_surgery A = -1;
      contact_surgery B = -1;
    }

    round_diagram pair {
      component A { tb = -1; rot = 0; }
      component B { tb = -1; rot = 0; }
      lk(A, B) = 1;
      joint_pair (A, B) { r1 = 0, 0; r2 = -1; layer = invariant; }
      round1 (C, D) { r1 = 1, 1; layer = nonrotative(2); }
      round2 E { r2 = 5/2; }
    }

Identifiers are ASCII letters, digits and underscores, not starting with a
digit.  Space, tab and carriage return separate tokens.  Strings are
double-quoted on one line, without escapes.  `#` starts a comment that runs
to the end of the line.  Error positions are 1-based line:col, worked out
from the text only when an error is raised.
Rationals are written p/q with an optional sign, plain integers abbreviate
n/1, and inf is the infinite coefficient.
Front-derived tb/rot win over declared values; a disagreement is a semantic
error.  Parsing canonicalizes (components and statements sorted), so
parse -> print -> parse is the identity and printing is idempotent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from itertools import islice
from typing import List, Optional, Tuple

from .core import (
    ContactSurgeryDiagram,
    LegendrianComponent,
    LinkingData,
    Round1Spec,
    Round2Spec,
    RoundSurgeryDiagram,
    SlopeQ,
    TightLayerSpec,
    validate_diagram,
)
from .errors import DslSyntaxError, InvalidParameter, SemanticError
from .front import OrientedFront, classical_invariants, parse_front_word, trace_components

# Blanks and comments separate lexemes.  A lexeme is a string (quotes kept),
# an identifier, an integer or a punctuation mark.
_SPACE = r"[ \t\r\n]+|#[^\n]*"
_WORD = r'"[^"\n]*"|[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[{}()=,;/-]'
_SPACES = re.compile(rf"(?:{_SPACE})*")
# One lexeme and the blanks after it.  `.` takes a character outside the
# grammar, and the empty match at the end of the text is the end lexeme "".
_LEXEME = re.compile(rf"({_WORD}|.|\Z)(?:{_SPACE})*")
# The one-character lexemes of the grammar; any other one-character lexeme is
# a character outside it or the quote of an unterminated string.
_CHARS = frozenset(c for c in map(chr, range(128)) if re.fullmatch(_WORD, c))


def _lexemes(text: str) -> List[str]:
    lexemes = _LEXEME.findall(text, _SPACES.match(text).end())
    bad = [x for x in set(lexemes).difference(_CHARS) if len(x) == 1]
    if bad:
        k = min(map(lexemes.index, bad))
        ch = lexemes[k]
        message = "unterminated string literal" if ch == '"' else f"unexpected character {ch!r}"
        raise DslSyntaxError(message, *_position(text, k))
    return lexemes


def _position(text: str, k: int) -> Tuple[int, int]:
    """1-based line:col of lexeme k, found by scanning the text again.

    At the end of the text, a trailing comment keeps the column of its '#'.
    """
    matches = list(islice(_LEXEME.finditer(text, _SPACES.match(text).end()), k + 1))
    start = matches[k].start()
    line_start = text.rfind("\n", 0, start) + 1
    if start == len(text):
        comment = text.find("#", max(matches[k - 1].end(1) if k else 0, line_start))
        if comment >= 0:
            start = comment
    return text.count("\n", 0, start) + 1, start - line_start + 1


@dataclass(frozen=True)
class ComponentDecl:
    """Source-level component declaration (kept for faithful reprinting)."""

    label: str
    tb: Optional[int] = None
    rot: Optional[int] = None
    front: Optional[str] = None
    orient: Optional[str] = None


@dataclass(frozen=True)
class NamedDiagram:
    name: str
    kind: str  # "contact" | "round"
    decls: tuple
    diagram: object  # ContactSurgeryDiagram | RoundSurgeryDiagram


@dataclass(frozen=True)
class DiagramFile:
    diagrams: tuple

    def get(self, name: Optional[str] = None) -> NamedDiagram:
        if name is None:
            if len(self.diagrams) != 1:
                raise SemanticError(
                    f"file holds {len(self.diagrams)} diagrams; select one by name"
                )
            return self.diagrams[0]
        for nd in self.diagrams:
            if nd.name == name:
                return nd
        raise SemanticError(f"no diagram named {name!r}")


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
        components = tuple(_resolve_components(decls))
        return tuple(sorted(decls, key=lambda d: d.label)), components, _build_linking(linking)

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
        return _validated(NamedDiagram(name, "contact", decls, diagram))

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
            idx = len(round1_specs)
            round1_specs.append(Round1Spec(pair, r1[0], r1[1], layer))
            round2_specs.append(Round2Spec(pair[1], r2, joint_with=idx))
        for pair, r1, layer in standalone1:
            round1_specs.append(Round1Spec(pair, r1[0], r1[1], layer))
        for knot, r2 in standalone2:
            round2_specs.append(Round2Spec(knot, r2, joint_with=None))
        diagram = RoundSurgeryDiagram(components, linking, tuple(round1_specs), tuple(round2_specs))
        return _validated(NamedDiagram(name, "round", decls, diagram))


def _build_linking(entries) -> LinkingData:
    try:
        return LinkingData(entries)
    except ValueError as exc:
        raise SemanticError(str(exc)) from None


def _validated(nd: NamedDiagram) -> NamedDiagram:
    problems = validate_diagram(nd.diagram)
    if problems:
        raise SemanticError("; ".join(v.message for v in problems))
    return nd


def _resolve_components(decls: List[ComponentDecl]) -> List[LegendrianComponent]:
    seen = set()
    for decl in decls:
        if decl.label in seen:
            raise SemanticError(f"component label {decl.label!r} repeats")
        seen.add(decl.label)
    out = []
    for decl in sorted(decls, key=lambda d: d.label):
        if decl.orient is not None and decl.front is None:
            raise SemanticError(f"component {decl.label!r} has an orient but no front")
        if decl.front is not None:
            word = parse_front_word(decl.front)
            if trace_components(word).component_count != 1:
                raise SemanticError(
                    f"front word of component {decl.label!r} must trace one component"
                )
            orient = decl.orient if decl.orient is not None else "forward"
            invariants = classical_invariants(OrientedFront(word, {0: orient})).components[0]
            if decl.tb is not None and decl.tb != invariants.tb:
                raise SemanticError(
                    f"component {decl.label!r}: declared tb {decl.tb} disagrees with "
                    f"front-derived {invariants.tb}"
                )
            if decl.rot is not None and decl.rot != invariants.rot:
                raise SemanticError(
                    f"component {decl.label!r}: declared rot {decl.rot} disagrees with "
                    f"front-derived {invariants.rot}"
                )
            out.append(LegendrianComponent(decl.label, invariants.tb, invariants.rot))
        else:
            if decl.tb is None:
                raise SemanticError(f"component {decl.label!r} needs tb (or a front)")
            out.append(LegendrianComponent(decl.label, decl.tb, decl.rot if decl.rot is not None else 0))
    return out


def parse_file(text: str) -> DiagramFile:
    return _Parser(text).parse_file()


# --- canonical printer --------------------------------------------------------

def _layer_text(layer: TightLayerSpec) -> str:
    if layer.is_zero_layer():
        return "invariant"
    return f"{layer.kind}({layer.param})"


def _component_text(decl: ComponentDecl) -> str:
    fields = []
    if decl.front is not None:
        fields.append(f'front = "{decl.front}";')
        fields.append(f"orient = {decl.orient if decl.orient is not None else 'forward'};")
    if decl.tb is not None:
        fields.append(f"tb = {decl.tb};")
    if decl.rot is not None:
        fields.append(f"rot = {decl.rot};")
    return f"  component {decl.label} {{ {' '.join(fields)} }}"


def print_diagram(nd: NamedDiagram) -> str:
    lines = []
    keyword = "diagram" if nd.kind == "contact" else "round_diagram"
    lines.append(f"{keyword} {nd.name} {{")
    for decl in nd.decls:
        lines.append(_component_text(decl))
    for a, b, value in nd.diagram.linking.pairs():
        lines.append(f"  lk({a}, {b}) = {value};")
    if nd.kind == "contact":
        for label in sorted(nd.diagram.coefficients):
            lines.append(f"  contact_surgery {label} = {nd.diagram.coefficients[label]};")
    else:
        rd = nd.diagram
        joint_indices = {r2.joint_with for r2 in rd.round2 if r2.joint_with is not None}
        for idx, r1 in enumerate(rd.round1):
            a, b = r1.pair
            body = f"r1 = {r1.coeff_a}, {r1.coeff_b};"
            if idx in joint_indices:
                partner = rd.joint_partner(idx)
                lines.append(
                    f"  joint_pair ({a}, {b}) {{ {body} r2 = {partner.coeff}; "
                    f"layer = {_layer_text(r1.layer)}; }}"
                )
            else:
                lines.append(f"  round1 ({a}, {b}) {{ {body} layer = {_layer_text(r1.layer)}; }}")
        for r2 in rd.round2:
            if r2.joint_with is None:
                lines.append(f"  round2 {r2.knot} {{ r2 = {r2.coeff}; }}")
    lines.append("}")
    return "\n".join(lines)


def print_file(df: DiagramFile) -> str:
    return "\n\n".join(print_diagram(nd) for nd in df.diagrams) + "\n"


def named(name: str, diagram) -> NamedDiagram:
    """A computed contact or round diagram, named for printing.

    Components are sorted by label and declared by their tb and rot.
    """
    components = tuple(sorted(diagram.components, key=lambda c: c.label))
    decls = tuple(ComponentDecl(c.label, c.tb, c.rot) for c in components)
    kind = "contact" if isinstance(diagram, ContactSurgeryDiagram) else "round"
    return NamedDiagram(name, kind, decls, replace(diagram, components=components))


# --- JSON form -----------------------------------------------------------------

def _layer_json(layer: TightLayerSpec) -> dict:
    return {"kind": layer.kind, "param": layer.param, "twisting": layer.twisting}


def diagram_json(nd: NamedDiagram) -> dict:
    comps = []
    for decl in nd.decls:
        semantic = nd.diagram.component(decl.label)
        entry = {"label": decl.label, "tb": semantic.tb, "rot": semantic.rot}
        if decl.front is not None:
            entry["front"] = decl.front
            entry["orient"] = decl.orient if decl.orient is not None else "forward"
        comps.append(entry)
    data = {
        "name": nd.name,
        "kind": nd.kind,
        "components": comps,
        "linking": [[a, b, v] for a, b, v in nd.diagram.linking.pairs()],
    }
    if nd.kind == "contact":
        data["surgeries"] = [
            {"component": label, "coefficient": str(nd.diagram.coefficients[label])}
            for label in sorted(nd.diagram.coefficients)
        ]
    else:
        rd = nd.diagram
        data["round1"] = [
            {
                "pair": list(r1.pair),
                "coefficients": [r1.coeff_a, r1.coeff_b],
                "layer": _layer_json(r1.layer),
            }
            for r1 in rd.round1
        ]
        data["round2"] = [
            {"knot": r2.knot, "coefficient": str(r2.coeff), "joint_with": r2.joint_with}
            for r2 in rd.round2
        ]
    return data
