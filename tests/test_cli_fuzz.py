"""Fuzzed CLI inputs: front words, .crs files with edited front fields, and
token-edited fixtures and generated .crs files under every file subcommand.

Every run must end in exit code 0, 1 or 2 with one JSON object on stdout and
nothing on stderr; an uncaught exception (a traceback) fails the test.  The
examples are derandomized and few, so the tests stay fast and repeatable.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from crsdiag.cli import main
from conftest import FIXTURES, edit_lexemes, random_crs_text, random_front_text

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
    assert out.endswith("\n") and out.count("\n") == 1, out
    payload = json.loads(out)
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


FILE_COMMANDS = ("parse", "homology", "check-nice", "fillable", "to-round", "to-pm1")


@FUZZ
@given(text=crs_files(), command=st.sampled_from(FILE_COMMANDS),
       k=st.integers(-2, 3), gadget_m=st.integers(-1, 3))
def test_file_commands_fuzz(text, command, k, gadget_m):
    options = ["--k", str(k), "--gadget-m", str(gadget_m)] if command == "to-round" else []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.crs"
        path.write_text(text, encoding="utf-8")
        check_run([command, *options, str(path)])
