"""The reader reads and the builders build: each config expression is read
once per command, and every bad config is reported at the line of a key it
involves, whether the reader or a model constructor rejects it."""

import importlib.resources as res
import json

import pytest

from needlecheck import cli, exprs, trajectory

from test_analysis import _workloads

CFG = "example_7_1.cfg"
BUNDLED = (res.files("needlecheck") / "configs" / CFG).read_text(
    encoding="utf-8")
BUNDLED_L = '"(1 - x1)*dx1^2 - (1 + y1)*dy1^2 + dx1*dy1"'
HISTORY = 'history = (-1.0, 0.0, "0")'
SEGMENT = 'segment = (0.0, 3.0, "0")'


def _load_counting(monkeypatch, config: str):
    """The sources exprs._read reads and the number of t-derivatives taken
    while cli._load_all loads config."""
    reads, t_derivs = [], []
    read, diff = exprs._read, exprs.differentiate

    def counting_read(source, *args):
        reads.append(source)
        return read(source, *args)

    def counting_diff(expr, var):
        if var == "t":
            t_derivs.append(expr)
        return diff(expr, var)

    monkeypatch.setattr(exprs, "_read", counting_read)
    monkeypatch.setattr(exprs, "differentiate", counting_diff)
    monkeypatch.setattr(trajectory, "differentiate", counting_diff)
    cli._load_all(config)
    return reads, len(t_derivs)


def test_each_bundled_expression_is_read_once(monkeypatch):
    reads, t_derivs = _load_counting(monkeypatch, CFG)
    assert sorted(reads) == sorted([BUNDLED_L.strip('"'), "0", "0"])
    assert t_derivs == 2  # one per segment component


def test_each_convex5_expression_is_read_once(monkeypatch, tmp_path):
    path = tmp_path / "convex5.cfg"
    path.write_text(_workloads().convex5_config(0))
    reads, t_derivs = _load_counting(monkeypatch, str(path))
    assert len(reads) == 11 and reads.count("0") == 10
    assert t_derivs == 10


# (name, old text, new text, line, key): the reader's errors, with the key
# whose line it is (None for a header or a line that holds no key)
READ = [
    ("header", "[candidate]", "[candidate", 15, None),
    ("section", "[analysis]", "[misc]", 18, None),
    ("no-equals", "seed = 0", "seed 0", 20, None),
    ("missing-key", "h = 1.0\n", "", 6, None),  # at its section's header
    ("unknown-key", "seed = 0", "colour = 1", 20, "colour"),
    ("duplicate", "h = 1.0", "h = 1.0\nh = 2.0", 10, "h"),
    ("syntax", "t1 = 3.0", "t1 = oops", 8, "t1"),
    ("overflow", "t1 = 3.0", "t1 = 1e999", 8, "t1"),
    ("type", "h = 1.0", 'h = "one"', 9, "h"),
    ("dim", "dim = 1", "dim = 0", 10, "dim"),
    ("retired", "seed = 0", "seed = 0\neuler_grid = 0", 21, "euler_grid"),
    ("analysis-range", "scan_grid = 200", "scan_grid = 0", 19, "scan_grid"),
]
# the expression reader's and the model constructors' errors, raised at
# build time and prefixed with their key
BUILD = [
    ("lagrangian-syntax", BUNDLED_L, '"dx1 + *"', 11, "lagrangian"),
    ("lagrangian-index", BUNDLED_L, '"dx2^2"', 11, "lagrangian"),
    ("lagrangian-abs", BUNDLED_L, '"abs(dx1)"', 11, "lagrangian"),
    ("lagrangian-deep", BUNDLED_L, '"' + "-" * 1200 + 'dx1"', 11,
     "lagrangian"),
    ("h-positive", "h = 1.0", "h = -1.0", 9, "h"),
    ("h-fits", "h = 1.0", "h = 3.0", 9, "h"),
    ("x1-length", "x1 = (0.0)", "x1 = (0.0, 0.0)", 12, "x1"),
    ("history-order", HISTORY, 'history = (0.0, -1.0, "0")', 13, "history"),
    ("history-expr", HISTORY, 'history = (-1.0, 0.0, "x1")', 13, "history"),
    ("history-dim", HISTORY, 'history = (-1.0, 0.0, "0", "0")', 13,
     "history"),
    ("history-domain", HISTORY, 'history = (-2.0, 0.0, "0")', 13, "history"),
    ("history-kink", HISTORY,
     HISTORY.replace("-1.0, 0.0", "-1.0, -0.5") + "\n"
     + HISTORY.replace("-1.0, 0.0", "-0.5, 0.0"), 14, "history"),
    ("segment-order", SEGMENT, 'segment = (3.0, 0.0, "0")', 16, "segment"),
    ("segment-abs", SEGMENT, 'segment = (0.0, 3.0, "abs(t - 1)")', 16,
     "segment"),
    ("segment-dim", SEGMENT, 'segment = (0.0, 3.0, "0", "0")', 16,
     "segment"),
    ("segment-non-finite", SEGMENT,
     'segment = (0.0, 1.5, "0")\n'
     'segment = (1.5, 3.0, "log(t - 1.5)*(t - 1.5)*(3 - t)")', 17,
     "segment"),
    ("candidate-domain", SEGMENT, 'segment = (0.0, 2.5, "0")', 16,
     "segment"),
    ("candidate-start", SEGMENT, 'segment = (0.5, 3.0, "0")', 16, "segment"),
    ("candidate-gap", SEGMENT,
     'segment = (0.0, 1.5, "0")\nsegment = (1.6, 3.0, "0")', 17, "segment"),
    ("candidate-jump", SEGMENT,
     'segment = (0.0, 1.5, "0")\nsegment = (1.5, 3.0, "1")', 17, "segment"),
    ("candidate-leaves-history", SEGMENT, 'segment = (0.0, 3.0, "1 - t/3")',
     16, "segment"),
    ("candidate-terminal", SEGMENT, 'segment = (0.0, 3.0, "t")', 16,
     "segment"),
]


@pytest.mark.parametrize(
    "old, new, line, key, built",
    [c[1:] + (False,) for c in READ] + [c[1:] + (True,) for c in BUILD],
    ids=[c[0] for c in READ + BUILD])
def test_every_bad_config_names_its_line(tmp_path, capsys, old, new, line,
                                         key, built):
    assert BUNDLED.count(old) == 1
    text = BUNDLED.replace(old, new)
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(SystemExit) as exit_:
        cli.main(["validate", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert exit_.value.code == 1 and payload["status"] == "error"
    error = payload["result"]["error"]
    assert error.startswith(f"{path}:{line}:"), error
    if key:  # the line is one of the key's own
        assert text.splitlines()[line - 1].partition("=")[0].strip() == key
    if built:
        assert error.startswith(f"{path}:{line}: key '{key}': "), error
