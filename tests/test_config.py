"""Config loading: defaults, overrides, and notices for unknown keys."""
from __future__ import annotations

import json

import pytest

from slsa_audit import iaclint
from slsa_audit.config import ConfigError, load_config


@pytest.mark.parametrize("doc, key", [
    ({"enabled_vectors": ["V3"], "typo_squat": {"max_distance": 2}}, "typo_squat"),
    ({"enabled_vectors": ["V3"], "iaclint": {"cors_substring": ["x"]}}, "iaclint.cors_substring"),
])
def test_unknown_key_gives_a_notice(tmp_path, doc, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    notices: list[str] = []
    config = load_config(path, notices)
    assert notices == [f"{path}: unknown config key {key!r} ignored"]
    assert [v.value for v in config.enabled_vectors] == ["V3"]
    assert config.cors_substrings == iaclint.CORS_KEY_SUBSTRINGS
    assert config.typosquat_max_distance == 1


def test_known_keys_give_no_notice(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "enabled_vectors": ["V1", "V4"],
        "vulnscan": {"fp_filter": True},
        "archive": {"recursion_depth": 2, "max_total_bytes": 1000},
        "dockerlint": {"min_value_length": 4},
        "iaclint": {"cors_substrings": ["x"]},
        "typosquat": {"max_distance": 2, "include_aws_sar": True},
        "report": {"cdf_thresholds": [0, 5]},
    }))
    notices: list[str] = []
    config = load_config(path, notices)
    assert notices == []
    assert config.cors_substrings == ("x",) and config.typosquat_max_distance == 2


@pytest.mark.parametrize("doc", [[1], {"dockerlint": ["x"]}, {"typosquat": "abc"}])
def test_non_object_config_is_a_config_error(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(path)


@pytest.mark.parametrize("section, key", [
    ("vulnscan", "source_extensions"),
    ("dockerlint", "sensitive_key_patterns"),
    ("dockerlint", "sensitive_keys_exact"),
    ("iaclint", "cors_substrings"),
    ("report", "cdf_thresholds"),
])
def test_string_for_a_list_is_a_config_error(tmp_path, section, key):
    # A string is iterable, so without a check it would load as its characters.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({section: {key: "0110"}}))
    with pytest.raises(ConfigError, match=f"{key}' must be a JSON list"):
        load_config(path)


@pytest.mark.parametrize("max_distance", [0, -1])
def test_max_distance_below_one_is_a_config_error(tmp_path, max_distance):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"typosquat": {"max_distance": max_distance}}))
    with pytest.raises(ConfigError, match="typosquat.max_distance must be >= 1"):
        load_config(path)


@pytest.mark.parametrize("key", ["max_expansion_ratio", "max_total_bytes"])
@pytest.mark.parametrize("value", [-1, 0, float("nan"), float("inf")], ids=["-1", "0", "NaN", "Infinity"])
def test_extraction_limit_that_disables_v2_is_a_config_error(tmp_path, key, value):
    # A cap <= 0 made every archive a V2-UNSAFE-ARCHIVE finding; NaN broke cap_for.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"archive": {key: value}}))
    with pytest.raises(ConfigError, match=f"bad config value: .*({key}|NaN|infinity)"):
        load_config(path)
