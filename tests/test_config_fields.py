"""Every config field is checked when its config is built, by type and by
range, and a bad value is rejected naming the field: built directly, the
error begins `<field>: `; loaded from a file, `<path>: <field>: `."""

import dataclasses
import json
import re
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hoimix.cli
from hoimix.config_fields import field_table
from hoimix.experiment import ExperimentConfig, load_config
from hoimix.optimizer import OptimizerConfig
from hoimix.synth_world import WorldConfig, WorldGenerationError

SECTIONS = {"world": WorldConfig, "optimizer": OptimizerConfig}

# JSON texts of the wrong type, per annotation; a number field also gets
# NaN and both infinities, which Python's json reads
INT_WRONG = ['"1"', "50.5", "1e9", "true", "null", "[1]"]
HUGE_INT = "1" + "0" * 400  # no float holds it
FLOAT_WRONG = ['"0.5"', "true", "null", "[0.5]", "NaN", "Infinity", "-Infinity", HUGE_INT]
WRONG_TYPES = {
    int: INT_WRONG,
    float: FLOAT_WRONG,
    bool: ['"no"', '"false"', "1", "0", "null"],
    tuple[int, int]: ["[1]", "[1, 2, 3]", '[1, "2"]', "[1.5, 2]", "[true, 2]", "3", "null"],
    "policy": ["1", "null", '["Shared"]'],
    "section": ["null", "[]", '"x"', "1"],
}

# field -> (section or None, annotation key, out-of-range JSON texts)
FIELDS = {
    "n_object_classes": ("world", int, ["0", "-1"]),
    "n_verb_classes": ("world", int, ["0"]),
    "n_hoi_classes": ("world", int, ["0", "25"]),
    "n_images": ("world", int, ["0"]),
    "humans_per_image": ("world", tuple[int, int], ["[0, 1]", "[2, 1]"]),
    "objects_per_image": ("world", tuple[int, int], ["[0, 2]", "[3, 1]"]),
    "feature_dim": ("world", int, ["3"]),
    "feature_noise_sigma": ("world", float, ["-0.01"]),
    "detection_jitter_sigma": ("world", float, ["-1e-9"]),
    "rare_class_fraction": ("world", float, ["-0.1", "1.5", "1.0"]),
    "seed": ("world", int, ["-1"]),
    "alpha_ws": ("optimizer", float, ["0", "-0.1"]),
    "alpha_fs": ("optimizer", float, ["0.0"]),
    "beta": ("optimizer", float, ["1.0", "-0.5"]),
    "policy": ("optimizer", "policy", ['"Bogus"', '"shared"']),
    "sequence_switch_iteration": ("optimizer", int, ["-1"]),
    "world": (None, "section", []),
    "optimizer": (None, "section", []),
    "ws_fraction": (None, float, ["-0.1", "1.5"]),
    "fs_fraction": (None, float, ["-1"]),
    "us_fraction": (None, float, ["2"]),
    "element_swap": (None, bool, []),
    "top_k": (None, int, ["0"]),
    "iterations": (None, int, ["0"]),
    "eval_every": (None, int, ["-1"]),
    "hidden_dim": (None, int, ["0"]),
    "train_seed": (None, int, ["-1"]),
    "n_test_images": (None, int, ["0"]),
    "pseudo_threshold": (None, float, ["0", "1", "1.5"]),
    "pseudo_cycles": (None, int, ["0"]),
}

CASES = [
    pytest.param(field, text, id=f"{field}={'10**400' if text == HUGE_INT else text}")
    for field, (_, kind, out_of_range) in FIELDS.items()
    for text in WRONG_TYPES[kind] + out_of_range
]


def _config_text(section, field, text: str) -> str:
    entry = f'"{field}": {text}'
    return "{" + (f'"{section}": {{{entry}}}' if section else entry) + "}"


def _direct_value(kind, value: Any) -> Any:
    """The value a caller would pass for the JSON value: a JSON list given
    for a pair arrives as a tuple."""
    return tuple(value) if kind == tuple[int, int] and isinstance(value, list) else value


@pytest.mark.parametrize("field, text", CASES)
def test_every_bad_field_value_is_rejected_naming_the_field(field, text, tmp_path):
    section, kind, _ = FIELDS[field]
    path = tmp_path / "config.json"
    path.write_text(_config_text(section, field, text))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {field}: "):
        load_config(path)

    cls = SECTIONS.get(section, ExperimentConfig)
    value = _direct_value(kind, json.loads(text))
    error = WorldGenerationError if cls is WorldConfig else ValueError
    with pytest.raises(error, match=f"^{field}: "):
        cls(**{field: value})


# configs that the hand-written checks accepted, or rejected without naming
# the field (one took "no" for true, another failed deep in training)
OLD_PROBES = {
    '{"element_swap": "no"}': "element_swap",
    '{"top_k": 1.5}': "top_k",
    '{"hidden_dim": 1e9}': "hidden_dim",
    '{"iterations": true}': "iterations",
    '{"iterations": 50.5}': "iterations",
    '{"world": {"seed": "x"}}': "seed",
    '{"train_seed": -1}': "train_seed",
    '{"ws_fraction": "0.7"}': "ws_fraction",
    '{"optimizer": {"alpha_ws": "0.1"}}': "alpha_ws",
    '{"world": null}': "world",
    '{"optimizer": []}': "optimizer",
    '{"world": {"seed": -1}}': "seed",
    '{"optimizer": {"policy": "Shared", "sequence_switch_iteration": -1}}': "sequence_switch_iteration",
    '{"world": {"bogus": 1}}': "bogus",
}


@pytest.mark.parametrize("text", sorted(OLD_PROBES))
def test_a_probe_config_is_rejected_naming_its_field(text, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {OLD_PROBES[text]}: "):
        load_config(path)


def test_class_counts_beyond_the_float_range_are_rejected_naming_the_field(tmp_path):
    big = 10**400  # 401 digits; the rare-class floor rounds a float of the count
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"world": {"n_object_classes": big, "n_hoi_classes": big}}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: n_hoi_classes: "):
        load_config(path)
    with pytest.raises(WorldGenerationError, match="^n_hoi_classes: "):
        WorldConfig(n_object_classes=big, n_hoi_classes=big)


def test_an_int_in_a_float_field_is_kept_as_given(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"ws_fraction": 1, "fs_fraction": 0, "optimizer": {"alpha_fs": 1}}')
    cfg = load_config(path)
    assert (cfg.ws_fraction, cfg.fs_fraction, cfg.optimizer.alpha_fs) == (1, 0, 1)
    assert json.dumps(cfg.to_dict()["ws_fraction"]) == "1"


def test_every_config_field_has_an_annotation_the_checker_knows():
    classes = (ExperimentConfig, WorldConfig, OptimizerConfig)
    names = [f.name for cls in classes for f in dataclasses.fields(cls)]
    for cls in classes:
        assert list(field_table(cls)) == [f.name for f in dataclasses.fields(cls)]
    # errors name a field without its section, so no name may repeat
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(FIELDS)


def test_a_field_of_an_unknown_kind_fails_when_its_table_is_built():
    @dataclasses.dataclass(frozen=True)
    class Unknown:
        ratios: list = dataclasses.field(default_factory=list)

    with pytest.raises(TypeError, match="ratios"):
        field_table(Unknown)


def test_cli_rejects_a_negative_seed_naming_the_field(tmp_path, capsys):
    assert hoimix.cli.main(["train", "--seed", "-1", "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: train_seed: ")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


def _section(cls):
    names = [f.name for f in dataclasses.fields(cls)] + ["bogus"]
    return JSON_VALUES | st.dictionaries(st.sampled_from(names), JSON_VALUES)


CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        **{f.name: JSON_VALUES for f in dataclasses.fields(ExperimentConfig)},
        **{name: _section(cls) for name, cls in SECTIONS.items()},
        "bogus": JSON_VALUES,
    },
)


@settings(max_examples=300, deadline=None)
@given(data=CONFIGS | JSON_VALUES)
def test_load_config_returns_a_config_or_a_value_error_naming_the_file(data, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "arbitrary_config.json"
    path.write_text(json.dumps(data))
    try:
        cfg = load_config(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
    else:
        assert isinstance(cfg, ExperimentConfig)
