import math
import re
import string
from dataclasses import fields, make_dataclass, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrco.cli import EXIT_INVALID_CONFIG, main
from lrco.config import (
    FIELD_PARSERS, MAX_ARRAY_ENTRIES, _render_value, _section_parsers, apply_overrides,
    canonical_text, config_hash, default_run_config, dynamics_hash, load_config,
    parse_config_text,
)
from lrco.errors import ConfigError, inside
from lrco.model import ModelConfig, init_model
from lrco.numerics import SeededRng


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
    with pytest.raises(ConfigError,
                       match=re.escape("data.n_classes must lie in [2, 2147483647], got 1")):
        bad.validate()
    bad = apply_overrides(default_run_config(), ["augment.mask_prob=1.5"])
    with pytest.raises(ConfigError,
                       match=re.escape("augment.mask_prob must lie in [0, 1), got 1.5")):
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
    for annotation in ("datetime", "tuple[datetime, ...]", "datetime | None"):
        with pytest.raises(TypeError, match="no config parser for Odd.when"):
            _section_parsers(make_dataclass("Odd", [("when", annotation)]))


# run_ids at the edges of what a config line gives back: line breaks
# (splitlines), whitespace and control characters (strip), and a value that
# looks like a comment, a key or an empty value.
RUN_ID_EDGES = ["a\nb", "a\r\nb", "a\rb", "a\tb", "a\x0bb", "a\x0cb", "a\x1cb", "a\x85b",
                "a\u2028b", "a\u2029b", "a\x00b", "a\u200bb", " a", "a ", "a\u3000", "",
                "#a", "a=b", "=", "none", "é", "a#b"]


def _any_inside(f):
    """A strategy for any value of field ``f`` inside its declared domain. It
    draws often the closed ends, the smallest positive float and 1e300."""
    if f.type == "bool":
        return st.booleans()
    if f.type == "str" and "domain" not in f.metadata:
        # any text: the round trip checks that validate refuses each value
        # that canonical_text could not give back
        return st.sampled_from(RUN_ID_EDGES) | st.text()
    domain = f.metadata["domain"]
    kind = f.type.removeprefix("tuple[").partition(",")[0].removesuffix(" | None")
    if isinstance(domain, tuple):
        entry = st.sampled_from(domain)
    else:
        low, high = (float(end) for end in domain[1:-1].split(","))
        special = [v for v in (low, high, 5e-324, 1e300) if inside(v, domain)]
        low, high = (None if math.isinf(end) else end for end in (low, high))
        if kind == "int":
            entry = st.sampled_from([int(v) for v in special if v.is_integer()]) | st.integers(
                None if low is None else int(low), None if high is None else int(high))
        else:
            entry = st.sampled_from(special) | st.floats(
                low, high, allow_nan=False, allow_infinity=False).filter(
                lambda v: inside(v, domain))
    if f.type.endswith(", ...]"):
        return st.lists(entry, max_size=3).map(tuple)
    if f.type.startswith("tuple["):
        return st.tuples(entry, entry)
    return st.none() | entry if f.type.endswith(" | None") else entry


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries({
    section: st.fixed_dictionaries({
        f.name: _any_inside(f) for f in fields(getattr(default_run_config(), section))})
    for section in FIELD_PARSERS
}))
def test_every_value_inside_the_domains_reads_back_from_canonical_text(values):
    cfg = default_run_config()
    for section, drawn in values.items():
        cfg = replace(cfg, **{section: replace(getattr(cfg, section), **drawn)})
    try:
        cfg.output.validate("output.")
    except ConfigError:  # a refused run_id need not read back; the rest must
        cfg = replace(cfg, output=default_run_config().output)
    read = parse_config_text(canonical_text(cfg))
    assert repr(read) == repr(cfg)  # repr tells -0.0 from 0.0 and 1 from 1.0
    assert config_hash(read) == config_hash(cfg)


def test_sizes_past_an_array_are_refused():
    # the size rule counts with Python ints, so it refuses sizes that no
    # machine could allocate, and allocates nothing itself
    def cfg_with(*pairs):
        return apply_overrides(default_run_config(), pairs)

    two_by_two = ("data.n_classes=2", "data.input_dim=2")
    cases = [  # (settings at the limit, one more, the array named)
        ((*two_by_two, f"data.n_per_class_source={MAX_ARRAY_ENTRIES // 4}"),
         f"data.n_per_class_source={MAX_ARRAY_ENTRIES // 4 + 1}", "the source split"),
        ((*two_by_two, f"data.n_per_class_target={MAX_ARRAY_ENTRIES // 4}"),
         f"data.n_per_class_target={MAX_ARRAY_ENTRIES // 4 + 1}", "the target split"),
        ((*two_by_two, f"data.n_labeled_target_per_class={MAX_ARRAY_ENTRIES // 4}"),
         f"data.n_labeled_target_per_class={MAX_ARRAY_ENTRIES // 4 + 1}",
         "the labeled target split"),
        # 8 -> h -> 8 with 5 classes holds 17 h + 48 parameters
        ((f"model.hidden_dims={(MAX_ARRAY_ENTRIES - 48) // 17}",),
         f"model.hidden_dims={(MAX_ARRAY_ENTRIES - 48) // 17 + 1}",
         "the model's parameter vector"),
        (("data.input_dim=46340",), "data.input_dim=46341",
         "the (data.input_dim, data.input_dim) class frame"),
    ]
    for at_limit, past, what in cases:
        cfg_with(*at_limit).validate()
        with pytest.raises(ConfigError, match=re.escape(what)) as info:
            cfg_with(*at_limit, past).validate()
        assert str(info.value).endswith(f"an array holds at most {MAX_ARRAY_ENTRIES}")
    # the rule counts the layout init_model builds
    cfg = default_run_config()
    model_cfg = ModelConfig(input_dim=cfg.data.input_dim, hidden_dims=cfg.model.hidden_dims,
                            feature_dim=cfg.model.feature_dim, n_classes=cfg.data.n_classes,
                            t_ce=1.0, t_re=1.0)
    assert (cfg._array_sizes()["the model's parameter vector"]
            == init_model(model_cfg, SeededRng(0)).params.size)


# Field domains ---------------------------------------------------------------------

KEYS = [f"{section}.{name}" for section, parsers in FIELD_PARSERS.items() for name in parsers]
# The keys with no declared domain: a switch, and a name with its own
# character rule (OutputSection.validate).
UNCONSTRAINED = {"train.dynamic_tau", "output.run_id"}
# Overrides that keep the cross-field rules satisfied while one key takes
# any value inside its domain.
PARTNERS = {
    "augment.sigma_weak": lambda text: [f"augment.sigma_strong={text}"],
    "augment.sigma_strong": lambda text: ["augment.sigma_weak=0"],
    "data.n_classes": lambda text: ["data.input_dim=2"],  # a circle holds any class count
    "data.input_dim": lambda text: ["data.n_classes=2"],
}


def _entry_cases(domain, annotation):
    """For one entry of a field: the values just inside its domain, the values
    just outside it, and strategies for any value inside and outside."""
    if isinstance(domain, tuple):
        unknown = st.text(string.ascii_lowercase + "_", min_size=1, max_size=12)
        return (list(domain), [domain[0] + "x", domain[0].upper()], st.sampled_from(domain),
                unknown.filter(lambda text: text not in domain))
    low, high = (float(end) for end in domain[1:-1].split(","))
    closed_low, closed_high = domain[0] == "[", domain[-1] == "]"
    if "int" in annotation:  # every int domain is [k, inf) or [k, m]
        assert closed_low and (closed_high or high == math.inf), domain
        if high == math.inf:
            return ([int(low)], [int(low) - 1], st.integers(min_value=int(low)),
                    st.integers(max_value=int(low) - 1))
        low, high = int(low), int(high)
        return ([low, high], [low - 1, high + 1], st.integers(low, high),
                st.integers(max_value=low - 1) | st.integers(min_value=high + 1))
    up, down = math.inf, -math.inf
    inside_low = low if closed_low else math.nextafter(low, up)
    inside_high = high if closed_high else math.nextafter(high, down)
    outside_low = math.nextafter(low, down) if closed_low else low
    outside_high = math.nextafter(high, up) if closed_high else high
    outside = [outside_low, outside_high, math.nan]
    return ([inside_low, inside_high], outside, st.floats(inside_low, inside_high),
            st.sampled_from(outside) | st.floats(max_value=outside_low)
            | st.floats(min_value=outside_high))


@pytest.mark.parametrize("key", [key for key in KEYS if key not in UNCONSTRAINED])
def test_every_field_takes_its_domain_and_refuses_the_rest(key, tmp_path, capsys):
    section, name = key.split(".")
    obj = getattr(default_run_config(), section)
    f = next(f for f in fields(obj) if f.name == name)
    default = getattr(obj, name)
    inside, outside, any_inside, any_outside = _entry_cases(f.metadata["domain"], f.type)
    out = tmp_path / "out"

    def accepts(value):
        # the section's rules; a size key's far end is refused by
        # RunConfig's size rule, which test_sizes_past_an_array_are_refused checks
        text = _render_value(value)
        partners = PARTNERS[key](text) if key in PARTNERS else []
        cfg = apply_overrides(default_run_config(), [f"{key}={text}", *partners])
        getattr(cfg, section).validate(f"{section}.")

    def refuses(value):
        code = main(["train", "--out", str(out), "--set", f"{key}={_render_value(value)}"])
        err = capsys.readouterr().err
        assert code == EXIT_INVALID_CONFIG, err
        assert err.startswith(f"error: invalid-config: {key} must ") and "Traceback" not in err
        assert not out.exists()

    if isinstance(default, tuple):
        base = default or (0.0,) * default_run_config().data.input_dim
        n = len(base)
        inside = [(v,) for v in inside] if n == 1 else [(inside[0], *base[1:-1], inside[-1])]
        outside = [(v, *base[1:]) for v in outside]
        # distinct sorted entries keep a pair increasing
        any_inside = st.lists(any_inside, min_size=n, max_size=n, unique=True).map(
            lambda entries: tuple(sorted(entries)))
        any_outside = st.tuples(any_outside, st.integers(0, n - 1)).map(
            lambda bad: base[:bad[1]] + (bad[0],) + base[bad[1] + 1:])
    elif "None" in f.type:
        inside = [*inside, None]

    for value in inside:
        accepts(value)
    for value in outside:
        refuses(value)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def anywhere(data):
        accepts(data.draw(any_inside, label="inside"))
        refuses(data.draw(any_outside, label="outside"))

    anywhere()


def _readme_cell(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(_readme_cell(v) for v in value)
    return str(value)


def _readme_domain(f) -> str:
    domain = f.metadata.get("domain")
    if domain is None:
        return "any"
    text = (", ".join(f"`{choice}`" for choice in domain) if isinstance(domain, tuple)
            else f"`{domain}`")
    if f.type.startswith("tuple"):
        text = f"each entry in {text}"
    return text + " or `none`" if "None" in f.type else text


def test_readme_config_table_follows_the_field_domains():
    cfg = default_run_config()
    rows = ["| key | default | domain |", "|---|---|---|"]
    for section in FIELD_PARSERS:
        for f in fields(getattr(cfg, section)):
            default = _readme_cell(getattr(getattr(cfg, section), f.name))
            rows.append(f"| `{section}.{f.name}` | {f'`{default}`' if default else 'empty'} "
                        f"| {_readme_domain(f)} |")
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert "\n".join(rows) + "\n" in readme, "\n".join(rows)
