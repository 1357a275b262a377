"""Fuzzed CLI inputs: front words, .crs files with edited front fields, and
token-edited fixtures and generated .crs files under every file subcommand.

Every run must end in exit code 0, 1 or 2 with one JSON object on stdout and
nothing on stderr, also for a file that is not UTF-8 text; an uncaught
exception (a traceback) fails the test.  The examples are derandomized and
few, so the tests stay fast and repeatable.

glue-annuli arc lists, valid and edited, must read as the replaced item by
item reader in reference_arcs.py reads them: the same ArcConfig, or the same
error and message.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest

from hypothesis import HealthCheck, example, given, settings, strategies as st

import crsdiag.cli as cli
from crsdiag.cli import main
from crsdiag.dividing import TraversingArc
from crsdiag.slopes import enumerate_configurations
from conftest import FIXTURES, edit_lexemes, random_crs_text, random_front_text
import reference_arcs

FUZZ = settings(derandomize=True, database=None, max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

TOKENS = st.one_of(
    st.from_regex(r"[UXC]0{0,2}[0-9]{1,2}", fullmatch=True),
    st.text(st.sampled_from('UXCux019-+ "#;{}\n\t²١é\x00'), max_size=5),
    st.sampled_from(["U" + "1" * 5000, "X" + "9" * 4400, "C" + "0" * 4999 + "1"]),
)


@st.composite
def front_words(draw):
    """A random closed front word with up to three token-level edits."""
    rng = draw(st.randoms(use_true_random=False))
    tokens = random_front_text(rng, max_cups=rng.randint(1, 5)).split()
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(("replace", "insert", "delete", "truncate")))
        if edit == "replace":
            tokens[k:k + 1] = [draw(TOKENS)]
        elif edit == "insert":
            tokens.insert(k, draw(TOKENS))
        elif edit == "delete":
            del tokens[k:k + 1]
        else:
            tokens = tokens[:k]
    return " ".join(tokens)


def run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def check_run(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code, out, err)
    assert err == ""
    assert out.endswith("\n") and (out.count("\n") == 1 or "--pretty" in argv), out
    payload = json.loads(out)  # one object: json.loads refuses trailing data
    assert isinstance(payload, dict)
    if code:
        assert payload["error"]["code"] == code
    return code, payload


@FUZZ
@given(front_words())
def test_invariants_word_fuzz(word):
    code, payload = check_run(["invariants", f"--word={word}"])
    if code == 0:
        assert payload["word"] == " ".join(t[0] + (t[1:].lstrip("0") or "0") for t in word.split())


FRONT_FIELD = re.compile(r'front = "([^"]*)"')


@FUZZ
@given(words=st.lists(front_words(), min_size=2, max_size=2),
       command=st.sampled_from(("parse", "invariants")))
def test_file_front_field_fuzz(words, command):
    text = FIXTURES.joinpath("front_pair.crs").read_text()
    edits = iter(words)
    text = FRONT_FIELD.sub(lambda m: f'front = "{next(edits)}"', text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.crs"
        path.write_text(text, encoding="utf-8")
        check_run([command, str(path)])


@st.composite
def crs_files(draw):
    """A fixture or a generated contact, round or front file with up to three
    token-level edits."""
    rng = draw(st.randoms(use_true_random=False))
    return edit_lexemes(rng, random_crs_text(rng), draw(st.integers(0, 3)))


# byte sequences that no UTF-8 text holds: a byte that starts no character,
# a two-byte sequence cut short, and an encoded surrogate
NOT_UTF8 = st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])


@st.composite
def crs_bytes(draw):
    """A crs_files text encoded as UTF-8; one in four has a byte sequence that
    is not UTF-8 spliced in."""
    data = draw(crs_files()).encode("utf-8")
    if draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, len(data)))
        data = data[:k] + draw(NOT_UTF8) + data[k:]
    return data


FILE_COMMANDS = ("parse", "homology", "check-nice", "fillable", "to-round", "to-pm1")


@FUZZ
@given(data=crs_bytes(), command=st.sampled_from(FILE_COMMANDS),
       k=st.integers(-2, 3), gadget_m=st.integers(-1, 3))
def test_file_commands_fuzz(data, command, k, gadget_m):
    options = ["--k", str(k), "--gadget-m", str(gadget_m)] if command == "to-round" else []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.crs"
        path.write_bytes(data)
        code, payload = check_run([command, *options, str(path)])
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        assert (code, payload["error"]["kind"]) == (1, "IOError")


# configurations of a small cell, rendered as literals below
ARC_SYSTEMS = enumerate_configurations(2, 3, 1)[::7]
SEPARATORS = st.text(st.sampled_from(" ;\t\n\xa0\u2003\x1c"), min_size=1, max_size=3)
# fields that int() refuses, or reads only up to 4,300 digits
BAD_FIELDS = st.sampled_from(["", " 1", "1__0", "_1", "1_", "0x1", "1.0", "--1", "1" * 5000,
                              "9" * 4300, "top", "(1", "1)"])
EDIT_CHARS = st.sampled_from(list("TP(),; _+-0123456789xyt\t\u0663\xa0") + ["top", "bottom"])


def spell(draw, value: int) -> str:
    """value spelled as int() reads it: signs, leading zeros, an underscore,
    or the digits of another script."""
    sign = "-" if value < 0 else draw(st.sampled_from(["", "", "+"]))
    digits = draw(st.sampled_from(["", "0", "00", "0_"])) + str(abs(value))
    zero = draw(st.sampled_from(["0", "0", "\u0660", "\uff10"]))
    return sign + "".join(chr(ord(zero) + int(d)) if d.isdigit() else d for d in digits)


def literal(arc, field) -> str:
    if isinstance(arc, TraversingArc):
        return f"T({field(arc.top)},{field(arc.bottom)},{field(arc.winding)})"
    return f"P({arc.side},{field(arc.start)},{field(arc.end)})"


@st.composite
def arc_lists(draw):
    """An enumerated arc system as literals, with random separators and
    respelled fields.  Every other list is edited: some fields replaced by
    bad ones, and up to three character-level edits."""
    cfg = draw(st.sampled_from(ARC_SYSTEMS))
    edited = draw(st.booleans())

    def field(value):
        if edited and draw(st.integers(0, 9)) == 0:
            return draw(BAD_FIELDS)
        return spell(draw, value)

    items = [literal(arc, field) for arc in cfg.arcs]
    text = draw(SEPARATORS).strip(" ") + "".join(item + draw(SEPARATORS) for item in items)
    for _ in range(draw(st.integers(0, 3)) if edited else 0):
        k = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("insert", "delete", "replace", "duplicate")))
        if edit == "insert":
            text = text[:k] + draw(EDIT_CHARS) + text[k:]
        elif edit == "delete":
            text = text[:k] + text[k + 1:]
        elif edit == "replace":
            text = text[:k] + draw(EDIT_CHARS) + text[k + 1:]
        else:
            j = draw(st.integers(k, len(text)))
            text = text[:j] + text[k:j] + text[j:]
    return cfg.top_marks, cfg.bottom_marks, text


def read(parse, text, top_marks, bottom_marks):
    try:
        return parse(text, top_marks, bottom_marks)
    except Exception as exc:  # the error is compared, not raised
        return type(exc), str(exc)


@FUZZ
@given(arc_lists())
def test_arc_reader_matches_reference(case):
    top_marks, bottom_marks, text = case
    assert read(cli._parse_arcs, text, top_marks, bottom_marks) == read(
        reference_arcs.parse_arcs, text, top_marks, bottom_marks)


# inputs that a reader which only counts regex matches, or checks less than
# the whole item, gets wrong
ARC_EDGE_CASES = [
    "xT(1,2,3) T(4,5,6)y", "T(0,0,0) T(1,1,0)y", "T(1,2,3)T(4,5,6)", "T(1,2,3),4)",
    "T(1,2,3))", "T((1,2,3)", "T(1,2,3", "T(+1,0,0) T(1,1,0)", "T(1_0,0,0)",
    "T(\u0663,0,0) T(1,1,0)", "T(0,0,0);T(1,1,0)", ";;T(0,0,0) ;\tT(1,1,0);",
    "T(0,0,0);;P(top,1,2)", "P(left,0,1) T(1,1,0)", "P(top,0,1)x",
    "T(" + "1" * 5000 + ",0,0) T(1,1,0)", "T(" + "9" * 4300 + ",0,0) T(1,1,0)", "", " ; ",
]


@pytest.mark.parametrize("arcs", ARC_EDGE_CASES, ids=lambda a: a[:24])
def test_arc_reader_edge_cases_match_reference(arcs):
    argv = ["glue-annuli", "--top-marks", "2", "--bottom-marks", "2",
            "--a", arcs, "--b", "T(0,0,0) T(1,1,0)"]
    expected = run(argv)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_parse_arcs", reference_arcs.parse_arcs)
        assert run(argv) == expected
    check_run(argv)


# --- argv of the subcommands that read no file --------------------------------

HUGE = ["9" * 4299, "1" + "0" * 5000, "-" + "9" * 4299, str(10**30), "4000"]
BIG = 10**4299 - 1  # int() reads at most 4,300 digits; two odd numbers 2 apart are coprime
INTS = st.sampled_from(["-1", "0", "1", "2", "3", "", "x", "2.5", "0x10", *HUGE])
SLOPES = st.sampled_from(["-5/2", "-2", "-1", "0", "inf", "1/0", "0/0", "3/-2", "-7/3",
                          "-1000000000001/1000000000000", "x", "-", "/", "-" + "9" * 4299,
                          f"-{BIG}/{BIG - 2}", f"{BIG - 4}/{BIG - 6}", f"-1/{BIG}"])
ARCS = st.sampled_from(["T(0,0,0) T(1,1,0)", "P(top,0,1) P(bottom,0,1)", "T(0,1,0) T(1,0,0)",
                        "T(x,0,0)", "", "T(" + "9" * 5000 + ",0,0)", "P(top,0,0)"])
# --limit raises the enumeration bound at the caller's request, up to
# cli.ENUM_MAX_LIMIT; a huge one is refused before anything is enumerated
LIMITS = st.sampled_from(["-1", "0", "10", "100000", str(10**30), "x"])
# option -> values; None is a flag without a value
OPTIONS = {
    "cf": {None: SLOPES},
    "count-tight": {"--slope0": SLOPES, "--slope1": SLOPES, "--twisting": INTS, "--ndiv": INTS},
    "normalize-slopes": {"--slope0": SLOPES, "--slope1": SLOPES},
    "enum-configs": {"--n0": INTS, "--n1": INTS, "--max-winding": INTS,
                     "--count-only": None, "--limit": LIMITS},
    "glue-annuli": {"--top-marks": INTS, "--bottom-marks": INTS, "--a": ARCS, "--b": ARCS,
                    "--offset-top": INTS, "--offset-bottom": INTS},
    "gadget": {"--m": INTS},
    "invariants": {"--word": st.one_of(front_words(), TOKENS)},
}
STRAY = st.sampled_from(["--bogus", "-z", "--n0=", "extra", "--pretty", "--", "-5", "=", "--m"])


@st.composite
def argvs(draw):
    """A subcommand with each of its options present or not, values drawn
    from small, huge and non-numeric ones, and up to two stray words."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    words = []
    for option, values in OPTIONS[command].items():
        if draw(st.integers(0, 4)) == 0:
            continue
        if option is None:  # a positional
            words.append([draw(values)])
        elif values is None:
            words.append([option])
        elif draw(st.integers(0, 3)) == 0:
            words.append([f"{option}={draw(values)}"])
        else:
            words.append([option, draw(values)])
    words += [[draw(STRAY)] for _ in range(draw(st.integers(0, 2)))]
    order = draw(st.permutations(range(len(words))))
    argv = ["--pretty"] * draw(st.booleans()) + [command]
    return argv + [word for i in order for word in words[i]]


ARGV_EXAMPLES = [
    ["gadget", "--m", "x"], ["frob"], ["enum-configs", "--n0", "1"], [],
    ["enum-configs", "--n0", "5000", "--n1", "5000", "--max-winding", "0"],
    ["enum-configs", "--n0", "3", "--n1", "3", "--max-winding", "9" * 4299],
    ["enum-configs", "--count-only", "--n0", "300000", "--n1", "300000", "--max-winding", "0"],
    ["cf", "-1000000000001/1000000000000"],
    ["normalize-slopes", f"--slope0=-{BIG}/{BIG - 2}", f"--slope1={BIG - 4}/{BIG - 6}"],
    ["count-tight", "--slope0", "-1", "--slope1", "-1000000000001/1000000000000"],
    ["glue-annuli", "--top-marks", str(10**12), "--bottom-marks", "2",
     "--a", "T(0,0,0) T(1,1,0)", "--b", "T(0,0,0) T(1,1,0)"],
]


def _with_examples(test):
    for argv in ARGV_EXAMPLES:
        test = example(argv)(test)
    return test


@FUZZ
@_with_examples
@given(argvs())
def test_argv_fuzz(argv):
    # -h/--help prints text by design, so argvs never draws it
    check_run(argv)
