"""The one-pass report writer against json.dumps of the plain-JSON payload."""

import json
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needlecheck import cli

from reference import _jsonable

CFG = "example_7_1.cfg"


def _reference(payload) -> str:
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True)


def _written(payload) -> str:
    out = []
    cli._write(payload, out, "\n")
    return "".join(out)


@pytest.mark.parametrize("argv", [
    ("validate", CFG),
    ("euler", CFG),
    ("weierstrass", CFG),
    ("excess", CFG, "--point", "1.0", "--side", "left", "--xi", "-0.5"),
    ("degeneracy", CFG),
    ("theorem5", CFG),
    ("theorem6", CFG, "--point", "1.0", "--side", "both", "--scales", "1",
     "--scales", "0.5"),
    ("increment", CFG, "--theta", "1.0", "--side", "right", "--eps", "0.25"),
    ("increment", CFG, "--theta", "2.5", "--side", "right", "--sweep"),
    ("verdict", CFG),
    # error payloads: a tool error and a usage error
    ("verdict", "no_such_file.cfg"),
    ("increment", CFG, "--side", "up"),
], ids=["validate", "euler", "weierstrass", "excess", "degeneracy",
        "theorem5", "theorem6", "increment-eps", "increment-sweep", "verdict",
        "tool-error", "usage-error"])
def test_report_bytes_equal_json_dumps_of_the_plain_payload(
        argv, monkeypatch, capsys):
    payloads = []
    write = cli._write

    def recording(obj, out, pad):
        if pad == "\n":
            payloads.append(obj)
        write(obj, out, pad)

    monkeypatch.setattr(cli, "_write", recording)
    with pytest.raises(SystemExit):
        cli.main(list(argv))
    (payload,) = payloads
    assert capsys.readouterr().out == _reference(payload) + "\n"


@dataclass(frozen=True)
class _Record:
    zeta: object
    alpha: object


_FLOATS = st.one_of(
    st.floats(),   # NaN and the infinities included
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-05,
                     1e22, 0.1, -1.5e-7]))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), _FLOATS,
    st.text(), st.sampled_from(["nan", "inf", "-inf", "é", "☃", ""]),
    _FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64))
_ARRAYS = st.one_of(
    st.lists(_FLOATS, max_size=4).map(lambda v: np.array(v, dtype=float)),
    st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=3).map(np.array),
    st.lists(st.lists(_FLOATS, min_size=2, max_size=2), max_size=3).map(
        lambda v: np.array(v, dtype=float).reshape(-1, 2)))
_PAYLOADS = st.recursive(
    st.one_of(_SCALARS, _ARRAYS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.integers()), inner,
                        max_size=4),
        st.builds(_Record, inner, inner)),
    max_leaves=20)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_PAYLOADS)
def test_writer_matches_json_dumps_on_nested_payloads(payload):
    assert _written({"result": payload}) == _reference({"result": payload})
    assert _written(payload) == _reference(payload)


def test_writer_rejects_what_json_rejects():
    for bad in (np.bool_(True), 1j, object()):
        with pytest.raises(TypeError):
            _reference(bad)
        with pytest.raises(TypeError, match="not JSON serializable"):
            _written([bad])
