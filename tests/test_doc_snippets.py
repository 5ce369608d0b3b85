"""The code the documentation shows runs as written.

Covers the quick start in the ``repro`` package docstring, the README
quick start and the ``docs/USAGE.md`` recipes up to its private auction
(run in order in one namespace, since that recipe uses the world and the
bidders the first ones build).  A renamed argument or a removed keyword in
any of them fails here instead of in a reader's terminal.
"""

import re
import textwrap
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _python_blocks(path):
    return PYTHON_BLOCK.findall(path.read_text())


def _run(source, namespace, capsys):
    exec(compile(source, "<doc snippet>", "exec"), namespace)
    return capsys.readouterr().out


def test_package_quick_start_runs(capsys):
    docstring = repro.__doc__
    source = textwrap.dedent(docstring.split("Quick start::", 1)[1])
    assert "run_lppa_auction" in source
    assert _run(source, {}, capsys).strip().isdigit()


def test_readme_quick_start_runs(capsys):
    blocks = [b for b in _python_blocks(ROOT / "README.md") if "run_lppa_auction(" in b]
    assert blocks
    for block in blocks:
        assert _run(block, {}, capsys).strip()


def test_usage_cookbook_runs_in_order(capsys):
    blocks = _python_blocks(ROOT / "docs" / "USAGE.md")
    last = max(i for i, block in enumerate(blocks) if "run_lppa_auction(" in block)
    namespace = {}
    for block in blocks[: last + 1]:
        _run(block, namespace, capsys)
    assert namespace["result"].outcome.wins
