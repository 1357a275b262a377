import contextlib
import io
import os
import random
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


def run_optimized(script: str, stdin: str = None) -> subprocess.CompletedProcess:
    """Run a Python script under `python -O`, with the sources and tests importable."""
    here = Path(__file__).resolve().parent
    paths = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run([sys.executable, "-O", "-c", script], input=stdin,
                          capture_output=True, text=True, env=env)


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
