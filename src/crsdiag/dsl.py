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
Every statement written on one line as `print_diagram` writes it is one
lexeme: `lk(A, B) = v;`, `component L { tb = t; rot = r; }` (or with
`front = "w"; orient = o;` first, and tb or rot optional),
`contact_surgery L = c;`, `joint_pair (A, B) { r1 = i, j; r2 = c; layer = l; }`,
`round1 (A, B) { r1 = i, j; layer = l; }` and `round2 K { r2 = c; }`, with
single spaces and integers of an optional `-` and at most 18 digits.  The
statement loop reads such a lexeme in one step, cutting it at the
separators the printer writes, into the values that the lexeme-by-lexeme
reading builds.  Any other spelling is read lexeme by lexeme.  When a read
fails on such a lexeme (a statement where none goes or that the diagram
keyword does not allow, a self-linking lk, a second coefficient on a
component, 0/0 or a bad layer parameter), the text is read again lexeme by
lexeme, so both readings give the same diagrams, and the same errors at the
same line:col.
Rationals are written p/q with an optional sign, plain integers abbreviate
n/1, and inf is the infinite coefficient.
Front-derived tb/rot win over declared values; a disagreement is a semantic
error.  A block key is checked (unknown or repeated) before its `=`.
Parsing and `named` both put statements in canonical order: components and
contact surgeries by label; joint pairs by pair, then standalone round1 by
pair, then standalone round2 by knot.  So parse -> print -> parse is the
identity and printing is idempotent, also for computed diagrams.
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
from .front import parse_front_word, trace_components

# Blanks and comments separate lexemes.  A lexeme is a string (quotes kept),
# an identifier, an integer or a punctuation mark.
_SPACE = r"[ \t\r\n]+|#[^\n]*"
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_NOT_IDENT = r'"[^"\n]*"|[0-9]+|[{}()=,;/-]'  # the lexemes that start with no letter
_WORD = rf"{_NOT_IDENT}|{_IDENT}"
_SPACES = re.compile(rf"(?:{_SPACE})*")
# One lexeme and the blanks after it.  `.` takes a character outside the
# grammar, and the empty match at the end of the text is the end lexeme "".
_LEXEME = re.compile(rf"({_WORD}|.|\Z)(?:{_SPACE})*")
# Every statement that `print_diagram` writes, on one line as it writes it:
# single spaces, and integers of an optional `-` and at most 18 digits, so
# that `int` reads any of them.  The statements with one first letter form
# one group, whose shared prefix `re` then tests once.
_INT = r"-?[0-9]{1,18}"
_SLOPE = rf"(?:inf|{_INT}(?:/[0-9]{{1,18}})?)"
_LAYER = rf"(?:invariant|(?:nonrotative|rotative_plus|rotative_minus)\({_INT}\))"
_PAIR = rf"\({_IDENT}, {_IDENT}\)"
_STATEMENT = (
    rf'(?:component {_IDENT} \{{(?: front = "[^"\n]*"; orient = (?:forward|reverse);)?'
    rf"(?: tb = {_INT};)?(?: rot = {_INT};)? \}}|contact_surgery {_IDENT} = {_SLOPE};)"
    rf"|joint_pair {_PAIR} \{{ r1 = {_INT}, {_INT}; r2 = {_SLOPE}; layer = {_LAYER}; \}}"
    rf"|lk{_PAIR} = {_INT};"
    rf"|(?:round1 {_PAIR} \{{ r1 = {_INT}, {_INT}; layer = {_LAYER}; \}}|round2 {_IDENT} \{{ r2 = {_SLOPE}; \}})"
)
# The parser's lexer also takes every printed statement as one lexeme.  Split
# by `_LEXEME`, such a lexeme gives the lexemes it stands for, so the two
# lexers agree on where every lexeme they share starts.  A statement starts
# with a letter, so the statements are tried after the lexemes that do not.
_MERGED = re.compile(rf"({_NOT_IDENT}|{_STATEMENT}|{_IDENT}|.|\Z)(?:{_SPACE})*")
# The one-character lexemes of the grammar; any other one-character lexeme is
# a character outside it or the quote of an unterminated string.
_CHARS = frozenset(c for c in map(chr, range(128)) if re.fullmatch(_WORD, c))


def _lexemes(text: str, lexeme: re.Pattern = _LEXEME) -> List[str]:
    lexemes = lexeme.findall(text, _SPACES.match(text).end())
    bad = [x for x in set(lexemes).difference(_CHARS) if len(x) == 1]
    if bad:
        k = min(map(lexemes.index, bad))
        ch = lexemes[k]
        message = "unterminated string literal" if ch == '"' else f"unexpected character {ch!r}"
        raise DslSyntaxError(message, *_position(text, k, lexeme))
    return lexemes


def _position(text: str, k: int, lexeme: re.Pattern = _LEXEME) -> Tuple[int, int]:
    """1-based line:col of lexeme k of `lexeme`, found by scanning the text again.

    At the end of the text, a trailing comment keeps the column of its '#'.
    """
    matches = list(islice(lexeme.finditer(text, _SPACES.match(text).end()), k + 1))
    start = matches[k].start()
    line_start = text.rfind("\n", 0, start) + 1
    if start == len(text):
        comment = text.find("#", max(matches[k - 1].end(1) if k else 0, line_start))
        if comment >= 0:
            start = comment
    return text.count("\n", 0, start) + 1, start - line_start + 1


class _Misread(Exception):
    """A read failed on a whole-statement lexeme: the text is read again
    with `_LEXEME`, so that the error is the one the plain lexemes give."""


def _merged(lexeme: str) -> bool:
    """Whether a lexeme of `_MERGED` is a whole statement: only those and
    strings hold a space."""
    return " " in lexeme and lexeme[0] != '"'


def _printed_fields(block: str) -> dict:
    """The fields of a printed block `key = value; ... }` (its '{ ' cut off),
    as texts by key."""
    return dict(field.split(" = ") for field in block.split("; ")[:-1])


def _printed_slope(text: str) -> SlopeQ:
    """The slope of a `_SLOPE` text, as `_Parser.slope` reads it."""
    if text == "inf":
        return SlopeQ.infinity()
    p, _, q = text.partition("/")
    p, q = int(p), int(q or 1)
    if p == q == 0:
        raise _Misread
    return SlopeQ.of(p, q)


def _printed_layer(text: str) -> TightLayerSpec:
    """The layer of a `_LAYER` text, as `_Parser.layer` reads it."""
    if text == "invariant":
        return TightLayerSpec.invariant()
    kind, _, value = text[:-1].partition("(")
    try:
        return getattr(TightLayerSpec, kind)(int(value))
    except InvalidParameter:
        raise _Misread from None


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
    """Recursive descent over the lexeme list; `pos` indexes the next lexeme.

    The last lexeme is "", which no reader takes, so `pos` stays in range.
    """

    def __init__(self, text: str, lexeme: re.Pattern = _MERGED):
        self.text = text
        self.lexeme = lexeme
        self.tokens = _lexemes(text, lexeme)
        self.pos = 0

    def fail(self, message: str, at: Optional[int] = None, error=DslSyntaxError):
        """Raise `error` at lexeme `at`, by default the next one; at a whole
        statement, raise _Misread instead."""
        at = self.pos if at is None else at
        if _merged(self.tokens[at]):
            raise _Misread
        raise error(message, *_position(self.text, at, self.lexeme))

    def expected(self, want: str):
        """Fail at the next lexeme, naming `want` and the lexeme found."""
        tok = self.tokens[self.pos]
        found = tok[1:-1] if tok[:1] == '"' else tok  # a string shows without quotes
        self.fail(f"expected {want}, found {found!r}")

    def punct(self, ch: str) -> None:
        if self.tokens[self.pos] != ch:
            self.expected(repr(ch))
        self.pos += 1

    def ident(self) -> str:
        tok = self.tokens[self.pos]
        if not tok.isidentifier():
            self.expected("'an identifier'")
        self.pos += 1
        return tok

    def sint(self) -> int:
        negative = self.tokens[self.pos] == "-"
        self.pos += negative
        digits = self.tokens[self.pos]
        if not digits.isdigit():
            self.expected("an integer")
        try:
            value = int(digits)
        except ValueError:  # more digits than the interpreter converts
            self.fail(f"integer literal of {len(digits)} digits is too long")
        self.pos += 1
        return -value if negative else value

    def slope(self) -> SlopeQ:
        at = self.pos
        if self.tokens[at] == "inf":
            self.pos += 1
            return SlopeQ.infinity()
        p = self.sint()
        if self.tokens[self.pos] != "/":
            return SlopeQ.of(p, 1)
        self.pos += 1
        q = self.sint()
        if p == 0 and q == 0:
            self.fail("0/0 is not a coefficient", at)
        return SlopeQ.of(p, q)

    def layer(self) -> TightLayerSpec:
        at = self.pos
        kind = self.ident()
        if kind == "invariant":
            return TightLayerSpec.invariant()
        if kind not in ("nonrotative", "rotative_plus", "rotative_minus"):
            self.fail(f"unknown layer {kind!r}", at)
        self.punct("(")
        value = self.sint()
        self.punct(")")
        try:
            return getattr(TightLayerSpec, kind)(value)
        except InvalidParameter:
            self.fail(f"bad layer parameter {value}", at)

    def front(self) -> str:
        word = self.tokens[self.pos]
        if word[:1] != '"':
            self.fail("front takes a quoted word")
        self.pos += 1
        return word[1:-1]

    def orient(self) -> str:
        at = self.pos
        orient = self.ident()
        if orient not in ("forward", "reverse"):
            self.fail("orient is 'forward' or 'reverse'", at)
        return orient

    def coefficients(self) -> Tuple[int, int]:
        first = self.sint()
        self.punct(",")
        return first, self.sint()

    def pair(self) -> Tuple[str, str]:
        self.punct("(")
        a = self.ident()
        self.punct(",")
        b = self.ident()
        self.punct(")")
        return a, b

    def fields(self, readers, required=(), unknown="unknown field {!r} here") -> dict:
        """Read a field block `{ key = value; ... }` into a dict.

        readers maps each allowed key to the reader of its value.  A key is
        checked for unknown (`unknown` formats the message) or repeated
        before its '='.  A missing required key fails after the block.
        """
        self.punct("{")
        tokens = self.tokens
        values = {}
        while tokens[self.pos] != "}":
            at = self.pos
            key = self.ident()
            if key not in readers:
                self.fail(unknown.format(key), at)
            if key in values:
                self.fail(f"field {key!r} repeats", at, SemanticError)
            self.punct("=")
            values[key] = readers[key](self)
            self.punct(";")
        self.pos += 1
        for key in required:
            if key not in values:
                self.fail(f"block needs an {key!r} field")
        return values

    _COMPONENT = {"tb": sint, "rot": sint, "front": front, "orient": orient}
    # the field readers and the required keys of each round statement's block
    _ROUND_BLOCKS = {"joint_pair": ({"r1": coefficients, "r2": slope, "layer": layer}, ("r1", "r2")),
                     "round1": ({"r1": coefficients, "layer": layer}, ("r1",)),
                     "round2": ({"r2": slope}, ("r2",))}
    # the surgery statements each diagram keyword allows
    _SURGERIES = {"diagram": ("contact_surgery",), "round_diagram": ("joint_pair", "round1", "round2")}

    def parse_file(self) -> DiagramFile:
        diagrams = []
        names = set()
        while self.tokens[self.pos]:  # "" ends the text
            at = self.pos
            keyword = self.ident()
            if keyword not in self._SURGERIES:
                self.fail(f"expected 'diagram' or 'round_diagram', found {keyword!r}", at)
            name = self.ident()
            if name in names:
                self.fail(f"diagram name {name!r} repeats", at, SemanticError)
            names.add(name)
            diagrams.append(_validated(self.diagram(name, keyword)))
        return DiagramFile(tuple(diagrams))

    def diagram(self, name: str, keyword: str) -> NamedDiagram:
        """Parse the body `{ ... }` of a `diagram` or `round_diagram`: component
        and lk statements, and the surgery statements its keyword allows."""
        statements = self._SURGERIES[keyword]
        self.punct("{")
        tokens = self.tokens
        decls: List[ComponentDecl] = []
        linking: List[Tuple[str, str, int]] = []
        surgeries = {}
        round1, round2 = [], []
        while tokens[self.pos] != "}":
            statement = tokens[self.pos]
            if " " in statement and statement[0] != '"':  # a whole printed statement (`_merged`)
                self.pos += 1
                if statement[:3] == "lk(":
                    pair, _, value = statement[3:-1].partition(") = ")
                    a, _, b = pair.partition(", ")
                    if a == b:
                        raise _Misread  # the lexeme-by-lexeme reading reports it
                    linking.append((a, b, int(value)))
                    continue
                head, _, block = statement.partition(" { ")
                word, _, tail = head.partition(" ")
                if word == "component":
                    front = None
                    if block[:9] == 'front = "':
                        front, _, block = block[9:].partition('"; ')  # a string holds no '"'
                    fields = _printed_fields(block)
                    tb, rot = fields.get("tb"), fields.get("rot")
                    decls.append(ComponentDecl(tail, None if tb is None else int(tb),
                                               None if rot is None else int(rot), front, fields.get("orient")))
                elif word not in statements:
                    raise _Misread
                elif word == "contact_surgery":
                    label, _, value = tail[:-1].partition(" = ")
                    if label in surgeries:
                        raise _Misread
                    surgeries[label] = _printed_slope(value)
                elif word == "round2":
                    round2.append(Round2Spec(tail, _printed_slope(_printed_fields(block)["r2"])))
                else:
                    a, _, b = tail[1:-1].partition(", ")
                    fields = _printed_fields(block)
                    i, _, j = fields["r1"].partition(", ")
                    r2 = fields.get("r2")
                    round1.append(Round1Spec((a, b), int(i), int(j), _printed_layer(fields["layer"]),
                                             None if r2 is None else _printed_slope(r2)))
                continue
            at = self.pos
            statement = self.ident()
            if statement == "component":
                label = self.ident()
                fields = self.fields(self._COMPONENT, unknown="unknown component field {!r}")
                decls.append(ComponentDecl(label, **fields))
            elif statement == "lk":
                a, b = self.pair()
                self.punct("=")
                value = self.sint()
                self.punct(";")
                if a == b:
                    self.fail(f"self-linking lk({a}, {a}) is not allowed", at, SemanticError)
                linking.append((a, b, value))
            elif statement not in statements:
                self.fail(f"unknown statement {statement!r}", at)
            elif statement == "contact_surgery":
                label = self.ident()
                self.punct("=")
                slope = self.slope()
                self.punct(";")
                if label in surgeries:
                    self.fail(f"component {label!r} has two coefficients", at, SemanticError)
                surgeries[label] = slope
            elif statement == "round2":
                knot = self.ident()
                round2.append(Round2Spec(knot, self.fields(*self._ROUND_BLOCKS[statement])["r2"]))
            else:
                pair = self.pair()
                block = self.fields(*self._ROUND_BLOCKS[statement])
                round1.append(Round1Spec(pair, *block["r1"], block.get("layer", TightLayerSpec.invariant()),
                                         block.get("r2")))
        self.pos += 1
        decls, components = _resolve_components(decls)
        linking = _build_linking(linking)
        if keyword == "diagram":
            return NamedDiagram(name, "contact", decls, ContactSurgeryDiagram(components, linking, surgeries))
        return NamedDiagram(name, "round", decls, _round_diagram(components, linking, round1, round2))


def _round_diagram(components, linking, round1, round2) -> RoundSurgeryDiagram:
    """The round diagram with joint pairs (round 1-specs with an r2) by pair,
    then standalone round 1 by pair, then standalone round 2 by knot."""
    return RoundSurgeryDiagram(components, linking,
                               sorted(round1, key=lambda r1: (r1.r2 is None, r1.pair)),
                               sorted(round2, key=lambda r2: r2.knot))


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


def _resolve_components(decls: List[ComponentDecl]) -> Tuple[tuple, tuple]:
    """The declarations sorted by label, and the components they declare.

    A repeated label is reported in source order.
    """
    seen = set()
    for decl in decls:
        if decl.label in seen:
            raise SemanticError(f"component label {decl.label!r} repeats")
        seen.add(decl.label)
    decls = tuple(sorted(decls, key=lambda d: d.label))
    out = []
    for decl in decls:
        if decl.orient is not None and decl.front is None:
            raise SemanticError(f"component {decl.label!r} has an orient but no front")
        if decl.front is not None:
            threading = trace_components(parse_front_word(decl.front))
            if threading.component_count != 1:
                raise SemanticError(
                    f"front word of component {decl.label!r} must trace one component"
                )
            # the knot's tb and rot, read from its forward crossing signs and
            # cusp counts (see front.Threading)
            cusps = threading.cusps[0]
            tb, rot = sum(threading.signs) - cusps, cusps - threading.ups[0]
            if decl.orient == "reverse":
                rot = -rot
            for key, declared, derived in (("tb", decl.tb, tb), ("rot", decl.rot, rot)):
                if declared is not None and declared != derived:
                    raise SemanticError(f"component {decl.label!r}: declared {key} {declared} "
                                        f"disagrees with front-derived {derived}")
            out.append(LegendrianComponent(decl.label, tb, rot))
        else:
            if decl.tb is None:
                raise SemanticError(f"component {decl.label!r} needs tb (or a front)")
            out.append(LegendrianComponent(decl.label, decl.tb, decl.rot if decl.rot is not None else 0))
    return decls, tuple(out)


def parse_file(text: str) -> DiagramFile:
    try:
        return _Parser(text).parse_file()
    except _Misread:
        return _Parser(text, _LEXEME).parse_file()


# --- canonical printer --------------------------------------------------------

def _layer_text(layer: TightLayerSpec) -> str:
    if layer.twisting:
        raise InvalidParameter(f"the .crs format has no syntax for layer twisting {layer.twisting}")
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
    keyword = "diagram" if nd.kind == "contact" else "round_diagram"
    lines = [f"{keyword} {nd.name} {{"] + [_component_text(decl) for decl in nd.decls]
    for a, b, value in nd.diagram.linking.pairs():
        lines.append(f"  lk({a}, {b}) = {value};")
    if nd.kind == "contact":
        for label in sorted(nd.diagram.coefficients):
            lines.append(f"  contact_surgery {label} = {nd.diagram.coefficients[label]};")
    else:
        rd = nd.diagram
        for r1 in rd.round1:
            head, r2 = ("round1", "") if r1.r2 is None else ("joint_pair", f" r2 = {r1.r2};")
            lines.append(f"  {head} ({r1.pair[0]}, {r1.pair[1]}) {{ r1 = {r1.coeff_a}, {r1.coeff_b};{r2} "
                         f"layer = {_layer_text(r1.layer)}; }}")
        for r2 in rd.round2:
            lines.append(f"  round2 {r2.knot} {{ r2 = {r2.coeff}; }}")
    lines.append("}")
    return "\n".join(lines)


def print_file(df: DiagramFile) -> str:
    return "\n\n".join(print_diagram(nd) for nd in df.diagrams) + "\n"


def named(name: str, diagram) -> NamedDiagram:
    """A computed contact or round diagram, named for printing.

    Components are sorted by label and declared by their tb and rot; the
    round statements of a round diagram are put in canonical order.
    """
    components = tuple(sorted(diagram.components, key=lambda c: c.label))
    decls = tuple(ComponentDecl(c.label, c.tb, c.rot) for c in components)
    if isinstance(diagram, ContactSurgeryDiagram):
        return NamedDiagram(name, "contact", decls, replace(diagram, components=components))
    return NamedDiagram(name, "round", decls,
                        _round_diagram(components, diagram.linking, diagram.round1, diagram.round2))


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
        # each joint pair's round 2-surgery on its second component, then the
        # standalone ones
        data["round2"] = [
            {"knot": r1.pair[1], "coefficient": str(r1.r2), "joint_with": idx}
            for idx, r1 in enumerate(rd.round1) if r1.r2 is not None
        ] + [{"knot": r2.knot, "coefficient": str(r2.coeff), "joint_with": None} for r2 in rd.round2]
    return data
