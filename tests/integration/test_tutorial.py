"""The tutorial's Python blocks must run, in order, as one session.

``docs/tutorial.md`` tells the reader to paste its snippets into one
Python session, so each block may use names an earlier block defined.
This test does exactly that, in a temporary directory (the tutorial
writes ``fusion.mdl``); a traceback names the block as
``tutorial block <n>``.
"""

import os
import re

TUTORIAL = os.path.join(
    os.path.dirname(__file__), "..", "..", "docs", "tutorial.md"
)

_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def _python_blocks():
    with open(TUTORIAL, encoding="utf-8") as handle:
        return _PYTHON_BLOCK.findall(handle.read())


def test_tutorial_blocks_run_in_order(tmp_path, monkeypatch, capsys):
    blocks = _python_blocks()
    assert len(blocks) >= 9
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "tutorial"}
    for index, source in enumerate(blocks, start=1):
        exec(compile(source, f"tutorial block {index}", "exec"), namespace)
    assert (tmp_path / "fusion.mdl").is_file()
    assert "FusionThreads" in capsys.readouterr().out
