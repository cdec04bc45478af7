"""README's Python example runs as printed."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _python_blocks() -> list[str]:
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```$", fh.read(), flags=re.M | re.S)


def test_the_library_example_runs(tmp_path, monkeypatch, capsys):
    blocks = _python_blocks()
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)  # the example saves model.json
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "__readme__"})
    # it prints the test accuracy of the stock scenario
    accuracy = float(capsys.readouterr().out)
    assert 0.5 < accuracy <= 1.0
    assert os.listdir(tmp_path) == ["model.json"]
