"""The README's python examples, each fenced block run through doctest."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
# the body of a ```python block, without its fences
_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.M | re.S)


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
