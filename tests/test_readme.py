"""The README's examples: each python block run through doctest, each
`crsdiag` command of its sh blocks run through the CLI."""

import doctest
import json
import re
import shlex
from pathlib import Path

from conftest import FIXTURES, run_cli

README = Path(__file__).resolve().parent.parent / "README.md"
# the body of a ```python block, without its fences
_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.M | re.S)
_SH_BLOCK = re.compile(r"^```sh\n(.*?)^```$", re.M | re.S)
# a command and its trailing comment, if any
_COMMENTED = re.compile(r"(.*?)(?:\s+#\s*(.*))?")
# the placeholder file names the commands use, and the fixture each stands for
_FILES = {"file.crs": "four_unknots_pm1.crs", "round_file.crs": "fillable_two_pairs.crs",
          "mixed_file.crs": "mixed_round.crs"}


def test_readme_examples():
    text = README.read_text(encoding="utf-8")
    blocks = list(_BLOCK.finditer(text))
    assert blocks
    runner = doctest.DocTestRunner()
    report = []
    for block in blocks:
        line = text.count("\n", 0, block.start(1))
        test = doctest.DocTestParser().get_doctest(block.group(1), {}, f"README.md:{line + 1}",
                                                   str(README), line)
        runner.run(test, out=report.append)
    assert runner.failures == 0, "".join(report)
    assert runner.tries >= 5


def _commands(text):
    """Each `crsdiag ...` line of the sh blocks, a trailing backslash joining
    the next line, as (argv after `crsdiag`, trailing comment or None)."""
    for block in _SH_BLOCK.finditer(text):
        for line in block.group(1).replace("\\\n", " ").splitlines():
            command, comment = _COMMENTED.fullmatch(line).groups()
            words = shlex.split(command)
            if words[:1] == ["crsdiag"]:
                yield [str(FIXTURES / _FILES[w]) if w in _FILES else w for w in words[1:]], comment


def test_readme_commands():
    commands = list(_commands(README.read_text(encoding="utf-8")))
    assert len(commands) >= 15
    for argv, comment in commands:
        code, out = run_cli(argv)
        assert code == 0, (argv, out)
        try:
            json.loads(comment or "")
        except ValueError:
            continue  # a prose comment, or none
        assert out == comment + "\n", argv
