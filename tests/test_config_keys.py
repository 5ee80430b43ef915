"""The config key table: one entry per key, converted where it is read."""

import dataclasses

import pytest

from needlecheck.analysis import AnalysisSettings
from needlecheck.config import _KEYS, ConfigError, parse_config

from test_config import MINIMAL


def test_analysis_keys_are_the_settings_fields():
    fields = {f.name for f in dataclasses.fields(AnalysisSettings)}
    assert set(_KEYS["analysis"]) == fields


def test_type_error_reported_at_its_line_before_a_missing_key():
    # line 4 holds the type error, and key 'dim' is missing
    text = MINIMAL.replace("h = 1.0", 'h = "one"').replace("dim = 1\n", "")
    with pytest.raises(ConfigError, match="key 'h' expects a number") as ei:
        parse_config(text, source="bad.cfg")
    assert ei.value.line == 4
    assert str(ei.value).startswith("bad.cfg:4: ")
