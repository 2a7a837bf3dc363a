"""The README's ```python examples, run as doctests, and its module table."""

import doctest
import re
from pathlib import Path

import sgp

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


def test_module_table_names_every_export():
    # the backticked names of a module's row are the names sgp exports
    # from it
    text = README.read_text(encoding="utf-8")
    for module in ("core_semigroup", "records"):
        row = re.search(r"^\| `sgp\.%s` \| (.*) \|$" % module, text,
                        re.M).group(1)
        assert sorted(re.findall(r"`(\w+)`", row)) == sorted(
            sgp._EXPORTS[module].split()), module


def test_module_table_has_a_row_for_every_module():
    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^\| `sgp\.(\w+)` \|", text, re.M)
    assert sorted(rows) == sorted(sgp._MODULES)
