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
digit.  Space, tab, carriage return, newline and comments (from `#` to the
end of the line) may stand between any two lexemes.  Strings are
double-quoted on one line, without escapes.  Error positions are 1-based
line:col, worked out from the text only when an error is raised.
One pattern per statement kind reads every spelling: its separators take
any blanks and comments, its fields are groups, and one converter reads
each value (integer, slope, layer, block fields).  Where the patterns
refuse a text (no pattern matches, `lk(A, A)`, a repeated key or
coefficient label, 0/0, a bad layer parameter, an integer too long to
convert), the lexeme walker reads the refused diagram again lexeme by
lexeme, only to name the fault and its line:col; if it finds none, that is
a CertificateError.  A bad character anywhere in the text is reported
first, then the errors of each diagram in text order.
Rationals are written p/q with an optional sign, plain integers abbreviate
n/1, and inf is the infinite coefficient.
Front-derived tb/rot win over declared values; a disagreement is a semantic
error.  A block key is checked (unknown or repeated) before its `=`.
The constructors of `core` store each diagram in canonical order (components
by label; joint pairs by pair, then standalone round1 by pair, then round2 by
knot), which the printer and the JSON form walk.  So parse -> print -> parse
is the identity and printing is idempotent, also for computed diagrams.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
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
)
from .errors import CertificateError, DslSyntaxError, InvalidParameter, SemanticError
from .front import parse_front_word, tb_rot, trace_components

# A separator: any blanks and comments.  A comment runs to the end of its
# line, so no backtracking reads part of one as code.
_SEP = r"[ \t\r\n]*(?:#(?:[^\n]*\n[ \t\r\n]*#)*[^\n]*(?![^\n])[ \t\r\n]*|)"
# Separators stand between lexemes.  A lexeme is a string (quotes kept), an
# identifier, an integer or a punctuation mark.
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_WORD = rf'"[^"\n]*"|[0-9]+|[{{}}()=,;/-]|{_IDENT}'
_SPACES = re.compile(_SEP)
# One lexeme and the separator after it.  `.` takes a character outside the
# grammar, and the empty match at the end of the text is the end lexeme "".
_LEXEME = re.compile(rf"({_WORD}|.|\Z){_SEP}")
# The one-character lexemes of the grammar; any other one-character lexeme is
# a character outside it or the quote of an unterminated string.
_CHARS = frozenset(c for c in map(chr, range(128)) if re.fullmatch(_WORD, c))

# The statement patterns, written with a space wherever a separator may
# stand.  `_ITEM` reads one item of a file and the separator after it: a
# statement, a diagram header or closing brace, or, where none matches, the
# rest of the text as a refusal.  A keyword that an identifier may follow
# ends at a word boundary (`round2K` is one identifier).
_INT = r"(?:- )?[0-9]+"  # not `-? `: two separators in a row backtrack in quadratic time
_COMPONENT_FIELD = rf'(?:tb|rot) = {_INT}|front = "[^"\n]*"|orient = (?:forward|reverse)'
_ROUND_FIELD = (rf"r1 = {_INT} , {_INT}|r2 = (?:inf|{_INT}(?: / {_INT})?)"
                rf"|layer = (?:invariant|(?:nonrotative|rotative_plus|rotative_minus) \( {_INT} \))")
_ITEM = (
    rf"(?:lk \( ({_IDENT}) , ({_IDENT}) \) = ({_INT}) ;"
    rf"|component\b ({_IDENT}) \{{((?: (?:{_COMPONENT_FIELD}) ;)*) \}}"
    rf"|contact_surgery\b ({_IDENT}) = (inf|{_INT})(?:(?<=[0-9]) / ({_INT}))? ;"  # only p takes a /q
    rf"|(?:(joint_pair|round1) \( ({_IDENT}) , ({_IDENT}) \)|round2\b ({_IDENT}))"
    rf" \{{((?: (?:{_ROUND_FIELD}) ;)*) \}}"
    rf"|(diagram|round_diagram)\b ({_IDENT}) \{{|(\}})|(.[\s\S]*)) ")
# One field of a body that a statement pattern accepted: its key, its value
# and the integer after the ',', '/' or '(' of an r1, a slope or a layer.
_FIELD = rf' ([a-z0-9]+) = ("[^"\n]*"|[a-z_]+|{_INT})(?: [,/(] ({_INT})(?: \))?)? ;'


@functools.cache
def _pattern(spelling: str) -> re.Pattern:
    """The spelling compiled, each space a separator.  It compiles on first
    use, so that importing the module compiles no statement pattern."""
    return re.compile(spelling.replace(" ", _SEP))


def _integer(text: str, _: str = "") -> int:
    """The value of an `_INT` text (`_` takes a field's unused second
    integer); too many digits raise ValueError."""
    try:
        return int(text)
    except ValueError:  # a separator after the '-' (the digits follow its last blank), or too many digits
        return -int(text.split()[-1])


def _slope(p: str, q: str) -> SlopeQ:
    """The slope `inf`, p or p/q (q is "" for none); 0/0 raises ValueError."""
    if p == "inf":
        return SlopeQ.infinity()
    return SlopeQ.of(_integer(p), _integer(q) if q else 1)


def _layer(kind: str, param: str) -> TightLayerSpec:
    """The layer `invariant` or kind(param); a bad parameter raises InvalidParameter."""
    if kind == "invariant":
        return _INVARIANT
    return getattr(TightLayerSpec, kind)(_integer(param))


_INVARIANT = TightLayerSpec.invariant()
# the converter of each field's value and second integer
_CONVERT = {"tb": _integer, "rot": _integer, "front": lambda text, _: text[1:-1],
            "orient": lambda text, _: text, "r1": lambda i, j: (_integer(i), _integer(j)),
            "r2": _slope, "layer": _layer}
# the keys each block allows, and those it needs
_KEYS = {"component": ({"tb", "rot", "front", "orient"}, set()),
         "joint_pair": ({"r1", "r2", "layer"}, {"r1", "r2"}),
         "round1": ({"r1", "layer"}, {"r1"}), "round2": ({"r2"}, {"r2"})}
# the surgery statements each diagram keyword allows
_SURGERIES = {"diagram": ("contact_surgery",), "round_diagram": ("joint_pair", "round1", "round2")}


def _fields(body: str) -> dict:
    """The values of an accepted block body by key; a repeated key raises ValueError."""
    found = _pattern(_FIELD).findall(body)
    fields = {key: _CONVERT[key](value, second) for key, value, second in found}
    if len(fields) < len(found):
        raise ValueError("a key repeats")
    return fields


def _lexemes(text: str, start: int = 0) -> List[str]:
    """The lexemes of the text from offset `start` on."""
    lexemes = _LEXEME.findall(text, _SPACES.match(text, start).end())
    bad = [x for x in set(lexemes).difference(_CHARS) if len(x) == 1]
    if bad:
        k = min(map(lexemes.index, bad))
        ch = lexemes[k]
        message = "unterminated string literal" if ch == '"' else f"unexpected character {ch!r}"
        raise DslSyntaxError(message, *_position(text, k, start))
    return lexemes


def _position(text: str, k: int, start: int = 0) -> Tuple[int, int]:
    """1-based line:col of lexeme k of `_lexemes(text, start)`, found by
    scanning the text again; at the end of the text, a trailing comment
    keeps the column of its '#'."""
    matches = list(islice(_LEXEME.finditer(text, _SPACES.match(text, start).end()), k + 1))
    at = matches[k].start()
    line_start = text.rfind("\n", 0, at) + 1
    if at == len(text):
        comment = text.find("#", max(matches[k - 1].end(1) if k else 0, line_start))
        if comment >= 0:
            at = comment
    return text.count("\n", 0, at) + 1, at - line_start + 1


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
    """A named diagram, with one declaration per component in component order."""

    name: str
    decls: tuple
    diagram: object  # ContactSurgeryDiagram | RoundSurgeryDiagram

    @property
    def kind(self) -> str:
        """The kind, "contact" or "round", read off the diagram's type."""
        return "contact" if isinstance(self.diagram, ContactSurgeryDiagram) else "round"


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


def _read(text: str):
    """Read the text with the statement patterns, in one pass.

    Returns the diagrams read, each as the arguments of `_diagram`, and None;
    or, at the first refusal, the diagrams before it and (the index of the
    item that starts the refused item's diagram, the names of the diagrams
    before it).  `findall` builds every item at once: that is faster than
    `finditer` by a few percent, and takes memory for the items.
    """
    read, names, diagram = [], set(), None
    items = _pattern(_ITEM).findall(text, _SPACES.match(text).end())
    try:
        for i, (a, b, value, label, body, surgery, p, q, kind, a1, b1, knot, block,
                header, name, close, _) in enumerate(items):
            if diagram is None:  # only a header starts an item
                first = i
                if not header or name in names:
                    raise ValueError("no diagram header")
                diagram = (name, header, [], [], {}, [], [])
                _, keyword, decls, linking, surgeries, round1, round2 = diagram
            elif a:
                if a == b:
                    raise ValueError("self-linking")
                linking.append((a, b, _integer(value)))
            elif label:
                decls.append(ComponentDecl(label, **_fields(body)))
            elif close:
                read.append(diagram)
                names.add(diagram[0])
                diagram = None
            elif surgery:
                if keyword != "diagram" or surgery in surgeries:
                    raise ValueError("a contact surgery here")
                surgeries[surgery] = _slope(p, q)
            elif kind or knot:
                fields = _fields(block)
                allowed, needed = _KEYS[kind or "round2"]
                if keyword != "round_diagram" or not allowed >= fields.keys() >= needed:
                    raise ValueError("a round statement here")
                if knot:
                    round2.append(Round2Spec(knot, fields["r2"]))
                else:
                    round1.append(Round1Spec((a1, b1), *fields["r1"], fields.get("layer", _INVARIANT),
                                             fields.get("r2")))
            else:  # a header, or a character that starts no statement
                raise ValueError("no statement")
    except (ValueError, InvalidParameter):
        return read, (first, names)
    return read, diagram and (first, names)


class _Parser:
    """The lexeme walker: recursive descent over the lexemes from a refused
    diagram on, only to name its fault.  `pos` indexes the next lexeme; the
    last lexeme is "", which no reader takes, so `pos` stays in range."""

    def __init__(self, text: str, first: int, names: set):
        """Lex the text from the diagram whose header is item `first` on;
        `names` are the names of the diagrams before it."""
        skip = _SPACES.match(text).end()
        self.start = next(islice(_pattern(_ITEM).finditer(text, skip), first, None)).start()
        self.text, self.names = text, names
        self.tokens = _lexemes(text, self.start)
        self.pos = 0

    def fail(self, message: str, at: Optional[int] = None, error=DslSyntaxError):
        """Raise `error` at lexeme `at`, by default the next one."""
        raise error(message, *_position(self.text, self.pos if at is None else at, self.start))

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

    def slope(self) -> None:
        at = self.pos
        if self.tokens[at] == "inf":
            self.pos += 1
            return
        p = self.sint()
        if self.tokens[self.pos] == "/":
            self.pos += 1
            if p == self.sint() == 0:
                self.fail("0/0 is not a coefficient", at)

    def layer(self) -> None:
        at = self.pos
        kind = self.ident()
        if kind == "invariant":
            return
        if kind not in ("nonrotative", "rotative_plus", "rotative_minus"):
            self.fail(f"unknown layer {kind!r}", at)
        self.punct("(")
        value = self.sint()
        self.punct(")")
        try:
            getattr(TightLayerSpec, kind)(value)
        except InvalidParameter:
            self.fail(f"bad layer parameter {value}", at)

    def front(self) -> None:
        if self.tokens[self.pos][:1] != '"':
            self.fail("front takes a quoted word")
        self.pos += 1

    def orient(self) -> None:
        at = self.pos
        if self.ident() not in ("forward", "reverse"):
            self.fail("orient is 'forward' or 'reverse'", at)

    def coefficients(self) -> None:
        self.sint()
        self.punct(",")
        self.sint()

    def pair(self) -> Tuple[str, str]:
        self.punct("(")
        a = self.ident()
        self.punct(",")
        b = self.ident()
        self.punct(")")
        return a, b

    _READERS = {"tb": sint, "rot": sint, "front": front, "orient": orient,
                "r1": coefficients, "r2": slope, "layer": layer}

    def fields(self, block: str, unknown="unknown field {!r} here") -> None:
        """Walk a field block `{ key = value; ... }` of a `_KEYS` block kind.

        A key is checked for unknown (`unknown` formats the message) or
        repeated before its '='.  A missing required key fails after the block.
        """
        allowed, needed = _KEYS[block]
        self.punct("{")
        keys = set()
        while self.tokens[self.pos] != "}":
            at = self.pos
            key = self.ident()
            if key not in allowed:
                self.fail(unknown.format(key), at)
            if key in keys:
                self.fail(f"field {key!r} repeats", at, SemanticError)
            keys.add(key)
            self.punct("=")
            self._READERS[key](self)
            self.punct(";")
        self.pos += 1
        for key in sorted(needed):  # r1 before r2
            if key not in keys:
                self.fail(f"block needs an {key!r} field")

    def walk(self) -> None:
        """Walk the diagram at the start and raise its fault: in the header,
        or in the body `{ ... }`, which holds component and lk statements and
        the surgery statements its keyword allows."""
        keyword = self.ident()
        if keyword not in _SURGERIES:
            self.fail(f"expected 'diagram' or 'round_diagram', found {keyword!r}", 0)
        name = self.ident()
        if name in self.names:
            self.fail(f"diagram name {name!r} repeats", 0, SemanticError)
        statements = _SURGERIES[keyword]
        self.punct("{")
        labels = set()
        while self.tokens[self.pos] != "}":
            at = self.pos
            statement = self.ident()
            if statement == "component":
                self.ident()
                self.fields("component", unknown="unknown component field {!r}")
            elif statement == "lk":
                a, b = self.pair()
                self.punct("=")
                self.sint()
                self.punct(";")
                if a == b:
                    self.fail(f"self-linking lk({a}, {a}) is not allowed", at, SemanticError)
            elif statement not in statements:
                self.fail(f"unknown statement {statement!r}", at)
            elif statement == "contact_surgery":
                label = self.ident()
                self.punct("=")
                self.slope()
                self.punct(";")
                if label in labels:
                    self.fail(f"component {label!r} has two coefficients", at, SemanticError)
                labels.add(label)
            else:
                self.ident() if statement == "round2" else self.pair()
                self.fields(statement)
        raise CertificateError(f"the statement patterns refused diagram {name!r}, which the walker accepts")


def _diagram(name, keyword, decls, linking, surgeries, round1, round2) -> NamedDiagram:
    """The diagram of the statements `_read` read; building it validates it."""
    decls, components = _resolve_components(decls)
    linking = LinkingData(linking)
    if keyword == "diagram":
        return NamedDiagram(name, decls, ContactSurgeryDiagram(components, linking, surgeries))
    return NamedDiagram(name, decls, RoundSurgeryDiagram(components, linking, round1, round2))


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
            [(tb, rot)] = tb_rot(threading, [decl.orient == "reverse"])
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
    read, refused = _read(text)
    walker = refused and _Parser(text, *refused)  # lexes the rest first: a bad character anywhere wins
    diagrams = DiagramFile(tuple(_diagram(*statements) for statements in read))
    if walker:
        walker.walk()  # raises
    return diagrams


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
        for c in nd.diagram.components:
            lines.append(f"  contact_surgery {c.label} = {nd.diagram.coefficients[c.label]};")
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
    """A computed contact or round diagram, named for printing, with each
    component declared by its tb and rot."""
    return NamedDiagram(name, tuple(ComponentDecl(c.label, c.tb, c.rot) for c in diagram.components),
                        diagram)


# --- JSON form -----------------------------------------------------------------

def _layer_json(layer: TightLayerSpec) -> dict:
    return {"kind": layer.kind, "param": layer.param, "twisting": layer.twisting}


def diagram_json(nd: NamedDiagram) -> dict:
    comps = []
    for decl, semantic in zip(nd.decls, nd.diagram.components):
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
            {"component": c.label, "coefficient": str(nd.diagram.coefficients[c.label])}
            for c in nd.diagram.components
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
