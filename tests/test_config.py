from dataclasses import fields, make_dataclass

import pytest

from lrco.config import (
    FIELD_PARSERS, _section_parsers, apply_overrides, canonical_text, config_hash,
    default_run_config, dynamics_hash, load_config, parse_config_text,
)
from lrco.errors import ConfigError


def test_default_config_is_valid_and_stable():
    cfg = default_run_config()
    cfg.validate()
    assert cfg.data.n_classes == 5
    assert cfg.data.input_dim == 8
    assert cfg.train.method == "mixlrco"
    assert config_hash(cfg) == config_hash(default_run_config())
    assert len(config_hash(cfg)) == 12


def test_parse_empty_text_gives_defaults():
    assert config_hash(parse_config_text("")) == config_hash(default_run_config())


def test_parse_sets_values():
    cfg = parse_config_text(
        "\n".join([
            "# a comment",
            "",
            "train.method = lrco",
            "train.lambda_co = 0.25",
            "train.t_re = none",
            "data.n_classes = 3",
            "data.shift_translation = 0.5, -1.0, 0.0",
            "model.hidden_dims = 32, 16",
            "train.dynamic_tau = true",
            "output.run_id = exp42",
        ])
    )
    assert cfg.train.method == "lrco"
    assert cfg.train.lambda_co == 0.25
    assert cfg.train.t_re is None
    assert cfg.data.n_classes == 3
    assert cfg.data.shift_translation == (0.5, -1.0, 0.0)
    assert cfg.model.hidden_dims == (32, 16)
    assert cfg.train.dynamic_tau is True
    assert cfg.output.run_id == "exp42"


def test_parse_rejects_unknown_keys_with_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("train.method = lrco\ntrain.wat = 3\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_config_text("games.score = 3\n")
    with pytest.raises(ConfigError, match="line 1: expected key=value"):
        parse_config_text("not a config line\n")
    with pytest.raises(ConfigError, match="section.name"):
        parse_config_text("method = lrco\n")


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config_text("data.n_classes = many\n")
    with pytest.raises(ConfigError, match="expected a boolean"):
        parse_config_text("train.dynamic_tau = perhaps\n")
    with pytest.raises(ConfigError, match="exactly two"):
        parse_config_text("train.tau_band = 0.5\n")


def test_load_config_roundtrips_canonical_text(tmp_path):
    cfg = apply_overrides(default_run_config(),
                          ["train.seed=7", "train.method=strong"])
    path = tmp_path / "run.txt"
    path.write_text(canonical_text(cfg))
    loaded = load_config(path)
    assert canonical_text(loaded) == canonical_text(cfg)
    assert config_hash(loaded) == config_hash(cfg)


def test_canonical_text_sorted_and_complete():
    text = canonical_text(default_run_config())
    lines = text.strip().splitlines()
    assert lines == sorted(lines)
    keys = {ln.split("=")[0] for ln in lines}
    assert "train.lambda_co" in keys
    assert "data.seed" in keys
    assert "augment.mask_prob" in keys
    assert "model.feature_dim" in keys
    assert "output.run_id" in keys
    # optional None renders as the word none
    assert "train.t_re=none" in lines
    assert "train.dynamic_tau=false" in lines


def test_hash_changes_with_any_field():
    base = config_hash(default_run_config())
    for override in ("train.seed=1", "data.noise_sigma=0.4", "model.feature_dim=9",
                     "augment.sigma_weak=0.06", "output.run_id=zzz"):
        changed = apply_overrides(default_run_config(), [override])
        assert config_hash(changed) != base, override


def test_apply_overrides_validates_format():
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(default_run_config(), ["train.seed"])
    with pytest.raises(ConfigError, match="unknown config key"):
        apply_overrides(default_run_config(), ["train.nope=1"])


def test_dynamics_hash_ignores_run_length_only():
    base = default_run_config()
    for neutral in ("train.total_steps=900", "train.eval_interval=50",
                    "train.checkpoint_interval=10", "output.run_id=other"):
        changed = apply_overrides(base, [neutral])
        assert dynamics_hash(changed) == dynamics_hash(base), neutral
        assert config_hash(changed) != config_hash(base), neutral
    for meaningful in ("train.learning_rate=0.02", "train.seed=5",
                       "data.noise_sigma=0.5", "model.feature_dim=4"):
        changed = apply_overrides(base, [meaningful])
        assert dynamics_hash(changed) != dynamics_hash(base), meaningful


def test_invalid_section_values_surface_as_config_errors():
    bad = apply_overrides(default_run_config(), ["data.n_classes=1"])
    with pytest.raises(ConfigError, match="data:"):
        bad.validate()
    bad = apply_overrides(default_run_config(), ["augment.mask_prob=1.5"])
    with pytest.raises(ConfigError, match="augment:"):
        bad.validate()


def test_float_rendering_roundtrips_exactly():
    cfg = apply_overrides(default_run_config(), ["train.learning_rate=0.1"])
    text = canonical_text(cfg)
    reparsed = parse_config_text(text)
    assert reparsed.train.learning_rate == cfg.train.learning_rate
    assert "train.learning_rate=0.10000000000000001" in text


def test_field_parsers_follow_the_dataclass_fields():
    cfg = default_run_config()
    for section, parsers in FIELD_PARSERS.items():
        assert list(parsers) == [f.name for f in fields(getattr(cfg, section))]
    assert sum(len(p) for p in FIELD_PARSERS.values()) == 43
    with pytest.raises(TypeError, match="no config parser for Odd.when"):
        _section_parsers(make_dataclass("Odd", [("when", "datetime")]))
