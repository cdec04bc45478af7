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


def test_the_library_list_names_exactly_the_package_exports():
    import edapt

    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    count = re.search(r"exports exactly these (\d+) names", section)
    assert count and int(count.group(1)) == len(edapt.__all__)
    # the bullet list that follows that sentence, up to the first blank line
    bullets = section.split("\n- ", 1)[1].split("\n\n", 1)[0]
    names = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", bullets))
    assert names == set(edapt.__all__)
