"""The README's Library example runs as written, from the repository root,
so a public name that moves or goes breaks a test, not only the reader."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_library_example_runs(monkeypatch, capsys):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    library = text[text.index("\n## Library\n"):]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    # the bundled verdict, then the right needle at theta = 1: Delta S is
    # -eps^2/2 and the first variation vanishes on the extremal
    assert out[0] == "FAILS_WEAK"
    # the batch of both needles at theta = 1 passes its cross-check
    assert [line.split()[0] for line in out[-4:-2]] == ["right", "left"]
    assert [line.split()[-1] for line in out[-4:-2]] == ["True", "True"]
    assert abs(float(out[-2]) + 0.03125) <= 1e-12
    assert abs(float(out[-1])) <= 1e-10


def test_readme_config_format_block_is_the_bundled_example():
    from needlecheck.config import load_config, parse_config

    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("\n## Config format\n"):]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    bundled = load_config(os.path.join(
        ROOT, "src", "needlecheck", "configs", "example_7_1.cfg"))
    assert parse_config(block, source="README.md") == bundled
