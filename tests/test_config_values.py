"""Config values are Python literals: any value text either reads or fails
as a ConfigError at its own line and column, and a float's repr reads back
as the same float."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needlecheck.config import ConfigError, parse_config

from test_config import MINIMAL

# the characters str.splitlines breaks a line at; a value never holds one
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# any text, and text made of the characters a literal is spelled with
_VALUE_TEXT = st.one_of(
    st.text(st.characters(exclude_characters=_LINE_BREAKS)),
    st.text(st.sampled_from("0123456789.eE+-_x()[], \t\"'#\\\u00e9jTNo")))
_KEY_LINE = len(MINIMAL.splitlines()) + 3


def _with_analysis(*lines: str) -> str:
    return MINIMAL + "\n[analysis]\n" + "\n".join(lines) + "\n"


@settings(derandomize=True, deadline=None, max_examples=400)
@given(key=st.sampled_from(["tol_w", "radii"]), text=_VALUE_TEXT)
def test_any_value_text_reads_or_fails_at_its_line_and_column(key, text):
    line = f"{key} = {text}"
    try:
        parse_config(_with_analysis(line), source="fuzz.cfg")
    except ConfigError as exc:
        assert exc.line == _KEY_LINE
        if exc.column is None:
            # a value that reads but is not this key's: its type or range
            assert str(exc).startswith(f"fuzz.cfg:{_KEY_LINE}: key '{key}'")
        else:
            assert 1 <= exc.column <= len(line) + 1


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(derandomize=True, deadline=None)
@given(x=_POSITIVE, y=st.floats(allow_nan=False, allow_infinity=False))
def test_a_float_repr_reads_back_as_the_same_float(x, y):
    text = _with_analysis(f"tol_w = {x!r}", f"radii = (0.5, {x!r})")
    cfg = parse_config(text.replace("x1 = (0.0)", f"x1 = ({y!r})"))
    assert cfg.analysis.tol_w == x and cfg.analysis.radii == (0.5, x)
    # repr tells -0.0 from 0.0
    assert repr(cfg.problem.x1[0]) == repr(y)


def _error(line: str, key: str) -> ConfigError:
    lines = [line if l.startswith(key + " =") else l
             for l in MINIMAL.splitlines()]
    with pytest.raises(ConfigError) as ei:
        parse_config("\n".join(lines) + "\n", source="v.cfg")
    return ei.value


@pytest.mark.parametrize("line, key, message, column", [
    ("t1 =", "t1", "missing value", 5),
    ("t1 = oops", "t1", "expected a number, string or tuple, got 'oops'", 6),
    ("x1 = (0.0, None)", "x1",
     "expected a number, string or tuple, got 'None'", 12),
    ("lagrangian = 'dx1^2'", "lagrangian",
     "expected a number, string or tuple, got \"'dx1^2'\"", 14),
    ('segment = (0.0, 3.0, "é", oops)', "segment",
     "expected a number, string or tuple, got 'oops'", 27),
    ("t1 = 1" + "0" * 400, "t1", "is out of range", 6),
    ('segment = (0.0, 3.0, "0"', "segment", "'(' was never closed", 11),
    ('t1 = "3', "t1", "unterminated string literal", 6),
    ("t1 = 3.0 4.0", "t1", "invalid syntax", 10),
    ("t1 = " + "-" * 3000 + "3", "t1", "unreadable value", 6),
    ('segment = (0.0, 3.0, "\ud800")', "segment", "unreadable value", 11),
    ('lagrangian = "dx1\\d"', "lagrangian", "invalid escape sequence", 14),
], ids=["missing", "name", "none-in-tuple", "single-quoted", "after-utf8",
        "huge-int", "unclosed", "unterminated", "two-values",
        "sign-chain", "surrogate", "escape"])
def test_value_errors_name_their_column(line, key, message, column):
    exc = _error(line, key)
    assert message in str(exc)
    assert (exc.line, exc.column) == (
        next(k for k, l in enumerate(MINIMAL.splitlines(), 1)
             if l.startswith(key + " =")), column)


@pytest.mark.parametrize("line, t1", [
    ("t1 = 3_0", 30.0), ("t1 = 0x1F", 31.0), ("t1 = + 3.5", 3.5),
    ("t1 = (3.0)", 3.0), ("t1 = 3.", 3.0), ("t1 = .3e1", 3.0),
])
def test_python_number_spellings_read(line, t1):
    text = MINIMAL.replace("t1 = 3.0", line)
    assert parse_config(text).problem.t1 == t1
