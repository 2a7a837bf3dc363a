"""The README's ```python examples, run as doctests."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    results = [
        runner.run(parser.get_doctest(block, {}, "README[%d]" % i,
                                      str(README), 0))
        for i, block in enumerate(blocks)]
    assert sum(r.attempted for r in results) > 0
    assert sum(r.failed for r in results) == 0
