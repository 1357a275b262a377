import contextlib
import io
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from crsdiag import (
    ContactSurgeryDiagram,
    LegendrianComponent,
    LinkingData,
    SlopeQ,
    parse_front_word,
)

FIXTURES = Path(__file__).parent / "fixtures"


def random_front_text(rng: random.Random, max_cups: int = 4, cap: int = 36) -> str:
    """A random valid closed front word (at least one component)."""
    events = []
    strands = 0
    cups_left = rng.randint(1, max_cups)
    while cups_left or strands:
        if len(events) >= cap:
            kind = "U" if strands == 0 else "C"
        elif strands == 0:
            kind = "U"
        else:
            choices = []
            if cups_left:
                choices.append("U")
            if strands >= 2:
                choices.extend(["X", "X", "C", "C"])
                if not cups_left:
                    choices.extend(["C", "C"])
            kind = rng.choice(choices)
        if kind == "U":
            pos = rng.randint(1, strands + 1)
            strands += 2
            cups_left -= 1
        else:
            pos = rng.randint(1, strands - 1)
            if kind == "C":
                strands -= 2
        events.append(f"{kind}{pos}")
    return " ".join(events)


def random_front_word(rng: random.Random, **kwargs):
    return parse_front_word(random_front_text(rng, **kwargs))


def random_pm1_diagram(rng: random.Random, max_components: int = 6) -> ContactSurgeryDiagram:
    n = rng.randint(1, max_components)
    labels = [f"L{i}" for i in range(n)]
    components = tuple(
        LegendrianComponent(lab, tb=rng.randint(-5, -1), rot=0) for lab in labels
    )
    entries = []
    for i in range(n):
        for j in range(i + 1, n):
            value = rng.randint(-3, 3)
            if value:
                entries.append((labels[i], labels[j], value))
    coefficients = {lab: SlopeQ.of(rng.choice([1, -1])) for lab in labels}
    return ContactSurgeryDiagram(components, LinkingData(entries), coefficients)


def random_contact_text(rng: random.Random, name: str = "c") -> str:
    """A random (+-1)-diagram of up to four components as canonical .crs text."""
    from crsdiag import dsl

    nd = dsl.named(name, random_pm1_diagram(rng, max_components=4))
    return dsl.print_file(dsl.DiagramFile((nd,)))


def lk_heavy_pm1_text(rng: random.Random, n: int, density: float, bound: int = 3) -> str:
    """A (+-1)-diagram of n components, each pair linked with probability
    `density` by a nonzero value in [-bound, bound], as canonical .crs text."""
    from crsdiag import dsl

    labels = [f"K{i:02d}" for i in range(n)]
    components = tuple(LegendrianComponent(lab, tb=rng.randint(-5, -1), rot=0) for lab in labels)
    values = [v for v in range(-bound, bound + 1) if v]
    entries = [(a, b, rng.choice(values)) for i, a in enumerate(labels) for b in labels[i + 1:]
               if rng.random() < density]
    coefficients = {lab: SlopeQ.of(rng.choice([1, -1])) for lab in labels}
    diagram = ContactSurgeryDiagram(components, LinkingData(entries), coefficients)
    return dsl.print_file(dsl.DiagramFile((dsl.named(f"lk{n}", diagram),)))


def _block(rng: random.Random, fields) -> str:
    fields = list(fields)
    rng.shuffle(fields)
    return "{ " + " ".join(fields) + " }"


_LAYERS = ("invariant", "nonrotative(0)", "nonrotative(2)", "nonrotative(-1)",
           "rotative_plus(1)", "rotative_minus(3)")
_SLOPES = ("1", "-1", "5/2", "-3/7", "0", "inf", "2/-3")


# Two joint pairs, a standalone round 1-surgery and two standalone round
# 2-surgeries, out of canonical order.  Parsed, the joint pairs come first,
# so the JSON form numbers the standalone round 2-surgeries round2[2] and [3].
MIXED_ROUND_TEXT = """\
round_diagram mixed {
  component A { tb = -1; rot = 0; }
  component B { tb = -2; rot = 1; }
  component C { tb = -1; rot = 0; }
  component D { tb = -1; rot = 0; }
  component E { tb = -3; rot = 0; }
  component F { tb = -1; rot = 0; }
  component G { tb = -1; rot = 0; }
  component H { tb = -1; rot = 0; }
  lk(A, B) = 1;
  lk(C, E) = 2;
  round2 H { r2 = 3; }
  joint_pair (C, D) { r1 = 1, 1; r2 = 1; layer = invariant; }
  round1 (E, F) { r1 = 2, 2; layer = nonrotative(1); }
  round2 G { r2 = 5/2; }
  joint_pair (A, B) { r1 = 0, 0; r2 = -1; layer = invariant; }
}
"""


def random_round_text(rng: random.Random, name: str = "r") -> str:
    """A random round diagram as .crs text, its statements in random order:
    joint pairs, standalone round1 and standalone round2 on distinct labels."""
    labels = [f"K{i}" for i in range(rng.randint(1, 6))]
    rng.shuffle(labels)
    lines = [f"  component {lab} {_block(rng, [f'tb = {rng.randint(-4, -1)};', 'rot = 0;'])}"
             for lab in labels]
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            if rng.random() < 0.4:
                lines.append(f"  lk({a}, {b}) = {rng.randint(-3, 3)};")
    while labels:
        kind = rng.choice(("joint_pair", "round1", "round2") if len(labels) > 1 else ("round2",))
        if kind == "round2":
            lines.append(f"  round2 {labels.pop()} {{ r2 = {rng.choice(_SLOPES)}; }}")
            continue
        a, b = labels.pop(), labels.pop()
        fields = [f"r1 = {rng.randint(-2, 2)}, {rng.randint(-2, 2)};"]
        if kind == "joint_pair":
            fields.append(f"r2 = {rng.choice(_SLOPES[:4])};")
        if rng.random() < 0.8:
            fields.append(f"layer = {rng.choice(_LAYERS)};")
        lines.append(f"  {kind} ({a}, {b}) {_block(rng, fields)}")
    rng.shuffle(lines)
    return f"round_diagram {name} {{\n" + "\n".join(lines) + "\n}\n"


def random_front_file_text(rng: random.Random, name: str = "f") -> str:
    """A random contact diagram whose components are one-component front words."""
    lines = []
    for i in range(rng.randint(1, 3)):
        word = random_front_text(rng, max_cups=3)
        while parse_front_word(word).threading.component_count != 1:
            word = random_front_text(rng, max_cups=3)
        fields = [f'front = "{word}";']
        if rng.random() < 0.5:
            fields.append(f"orient = {rng.choice(('forward', 'reverse'))};")
        lines.append(f"  component F{i} {_block(rng, fields)}")
        lines.append(f"  contact_surgery F{i} = {rng.choice(_SLOPES)};")
    if len(lines) > 2:
        lines.append(f"  lk(F0, F1) = {rng.randint(-2, 2)};")
    rng.shuffle(lines)
    return f"# fronts\ndiagram {name} {{\n" + "\n".join(lines) + "\n}\n"


def random_crs_text(rng: random.Random) -> str:
    """A fixture or a generated contact, round or front file."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(sorted(FIXTURES.glob("*.crs"))).read_text()
    return (random_contact_text, random_round_text, random_front_file_text)[kind - 1](rng)


# lexemes that token-level edits insert or substitute
EDIT_LEXEMES = ("{", "}", "(", ")", "=", ",", ";", "/", "-", "0", "1", "12", "inf", "A", "K0", "L1",
                "F0", "tb", "rot", "front", "orient", "forward", "reverse", "r1", "r2", "layer",
                "invariant", "nonrotative", "rotative_plus", "component", "lk", "contact_surgery",
                "joint_pair", "round1", "round2", "diagram", "round_diagram", '"U1 C1"', '"U1 X1"', '""')


def edit_lexemes(rng: random.Random, text: str, edits: int, in_statements: bool = False) -> str:
    """Apply `edits` random token-level edits (replace, insert, delete or
    duplicate one lexeme), keeping the rest of the text as it is.

    With in_statements, each edit falls on a lexeme of a statement line, one
    that starts with two spaces as `print_diagram` writes it (none once no
    such line is left).
    """
    from crsdiag import dsl

    for _ in range(edits):
        spans = [m.span(1) for m in dsl._LEXEME.finditer(text, dsl._SPACES.match(text).end())]
        if in_statements:
            statements = [m.span() for m in re.finditer(r"^  [^\n]*", text, re.M)]
            spans = [(start, end) for start, end in spans
                     if any(a <= start and end <= b for a, b in statements)]
            if not spans:
                break
        start, end = spans[rng.randrange(len(spans))]  # the last span is the end of the text
        edit = rng.randrange(4)
        if edit == 0:
            text = text[:start] + rng.choice(EDIT_LEXEMES) + text[end:]
        elif edit == 1:
            text = text[:start] + rng.choice(EDIT_LEXEMES) + " " + text[start:]
        elif edit == 2:
            text = text[:start] + text[end:]
        else:
            text = text[:end] + " " + text[start:]
    return text


def run_cli(args):
    """Invoke the CLI in-process; returns (exit_code, stdout_text)."""
    from crsdiag.cli import main

    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = main(args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    return code, buffer.getvalue()


def optimized_env() -> dict:
    """The environment with the sources and tests importable."""
    here = Path(__file__).resolve().parent
    paths = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def run_optimized(script: str, stdin: str = None) -> subprocess.CompletedProcess:
    """Run a Python script under `python -O`, with the sources and tests importable."""
    return subprocess.run([sys.executable, "-O", "-c", script], input=stdin,
                          capture_output=True, text=True, env=optimized_env())


def corrupt_certificates(monkeypatch):
    """Make every Smith form log its first factor off by one.

    The first "sub" or "gcd" step of the log gets its f or x raised by one
    (a log with neither is left as it is), so the certificate check must
    catch the change.
    """
    import crsdiag.homology as homology

    real = homology.SmithForm

    def corrupt(diagonal, operations, shape):
        groups = [(side, list(steps)) for side, steps in operations]
        for _, steps in groups:
            for k, step in enumerate(steps):
                if step[0] in ("sub", "gcd"):
                    steps[k] = step[:3] + (step[3] + 1,) + step[4:]
                    return real(diagonal, tuple((side, tuple(s)) for side, s in groups), shape)
        return real(diagonal, operations, shape)

    monkeypatch.setattr(homology, "SmithForm", corrupt)


@pytest.fixture
def rng():
    return random.Random(20240811)
