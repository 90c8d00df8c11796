"""Run configuration: one plain-text file describes a full run.

Format: `section.key = value` lines, `#` comments, blank lines ignored.
Unknown keys are rejected. The canonical rendering (sorted keys, 17
significant digits) is hashed so every artifact can carry a short id of the
exact configuration that produced it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from typing import get_type_hints

from .data import AugmentSpec, BenchmarkSpec
from .errors import ConfigError, check_domains, within
from .trainer import TrainConfig


@dataclass(frozen=True)
class ModelSection:
    hidden_dims: tuple[int, ...] = within("[1, 2147483647]", (16,))
    feature_dim: int = within("[2, 2147483647]", 8)

    def validate(self, prefix: str = "") -> None:
        check_domains(self, prefix)
        if not self.hidden_dims:
            raise ConfigError("model.hidden_dims must be a nonempty tuple of sizes >= 1")


@dataclass(frozen=True)
class OutputSection:
    run_id: str = "run0"

    def validate(self, prefix: str = "") -> None:
        check_domains(self, prefix)
        if not self.run_id or any(c in self.run_id for c in " ,/\\"):
            raise ConfigError("output.run_id must be nonempty without spaces or slashes")


@dataclass(frozen=True)
class RunConfig:
    data: BenchmarkSpec
    model: ModelSection
    train: TrainConfig
    augment: AugmentSpec
    output: OutputSection

    def validate(self) -> None:
        for f in fields(self):
            getattr(self, f.name).validate(f"{f.name}.")


def default_run_config() -> RunConfig:
    """Defaults for the bundled benchmark: a 5-class clustered problem in 8
    dimensions with the covariate shift acting in the first two coordinates.
    Source is kept smaller than target so the unlabeled-target losses have
    something to add over plain supervised fitting.
    """
    return RunConfig(
        data=BenchmarkSpec(
            n_classes=5, input_dim=8, n_per_class_source=40,
            n_per_class_target=60, n_labeled_target_per_class=0,
            radius=1.0, noise_sigma=0.3, shift_angle_deg=50.0,
            shift_translation=(), seed=0,
        ),
        model=ModelSection(),
        train=TrainConfig(),
        augment=AugmentSpec(),
        output=OutputSection(),
    )


# Parsing ------------------------------------------------------------------------

def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {text!r}") from exc


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {text!r}") from exc


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_str(text: str) -> str:
    return text.strip()


def _parse_opt_float(text: str):
    lowered = text.strip().lower()
    if lowered in ("none", ""):
        return None
    return _parse_float(text)


def _parse_float_tuple(text: str) -> tuple[float, ...]:
    stripped = text.strip()
    if not stripped:
        return ()
    return tuple(_parse_float(p) for p in stripped.split(","))


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    stripped = text.strip()
    if not stripped:
        return ()
    return tuple(_parse_int(p) for p in stripped.split(","))


def _parse_float_pair(text: str) -> tuple[float, float]:
    values = _parse_float_tuple(text)
    if len(values) != 2:
        raise ConfigError(f"expected exactly two comma-separated numbers, got {text!r}")
    return (values[0], values[1])


# Parser per field annotation. Every section module postpones the evaluation
# of annotations, so dataclasses.fields reports them as these strings.
_PARSERS_BY_ANNOTATION = {
    "int": _parse_int,
    "float": _parse_float,
    "float | None": _parse_opt_float,
    "str": _parse_str,
    "bool": _parse_bool,
    "tuple[float, ...]": _parse_float_tuple,
    "tuple[int, ...]": _parse_int_tuple,
    "tuple[float, float]": _parse_float_pair,
}


def _section_parsers(section_type) -> dict[str, object]:
    parsers = {}
    for f in fields(section_type):
        if f.type not in _PARSERS_BY_ANNOTATION:
            raise TypeError(f"no config parser for {section_type.__name__}.{f.name}: "
                            f"{f.type!r}")
        parsers[f.name] = _PARSERS_BY_ANNOTATION[f.type]
    return parsers


FIELD_PARSERS: dict[str, dict[str, object]] = {
    section: _section_parsers(section_type)
    for section, section_type in get_type_hints(RunConfig).items()
}


def _set_key(cfg: RunConfig, key: str, raw_value: str) -> RunConfig:
    if "." not in key:
        raise ConfigError(f"config keys are section.name, got {key!r}")
    section, _, name = key.partition(".")
    parsers = FIELD_PARSERS.get(section)
    if parsers is None:
        raise ConfigError(f"unknown config section {section!r} in key {key!r}")
    parser = parsers.get(name)
    if parser is None:
        raise ConfigError(f"unknown config key {key!r}")
    value = parser(raw_value)
    return replace(cfg, **{section: replace(getattr(cfg, section), **{name: value})})


def parse_config_text(text: str) -> RunConfig:
    cfg = default_run_config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        try:
            cfg = _set_key(cfg, key.strip(), value.strip())
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    return cfg


def load_config(path) -> RunConfig:
    """Parse the config file at ``path``; a missing file raises
    FileNotFoundError, one that cannot be read as text ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path} is not a readable config file "
                          f"({type(exc).__name__}: {exc})") from exc
    return parse_config_text(text)


def apply_overrides(cfg: RunConfig, pairs) -> RunConfig:
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override must be key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        cfg = _set_key(cfg, key.strip(), value.strip())
    return cfg


# Canonical rendering and hashing ---------------------------------------------------

def _render_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return "{:.17g}".format(value)
    if isinstance(value, tuple):
        return ",".join(_render_value(v) for v in value)
    if isinstance(value, str):
        return value
    raise ConfigError(f"cannot render config value {value!r}")


def canonical_text(cfg: RunConfig) -> str:
    lines = []
    for section in sorted(FIELD_PARSERS):
        obj = getattr(cfg, section)
        for f in sorted(fields(obj), key=lambda f: f.name):
            lines.append(f"{section}.{f.name}={_render_value(getattr(obj, f.name))}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode("utf-8")).hexdigest()[:12]


# Keys that change how long a run goes or how it reports, but not the
# parameter trajectory as a function of the step number.  A checkpoint may be
# resumed under a config that differs only in these.
RESUME_NEUTRAL_KEYS = frozenset({
    "train.total_steps",
    "train.eval_interval",
    "train.checkpoint_interval",
    "output.run_id",
})


def dynamics_hash(cfg: RunConfig) -> str:
    """Hash of every field that affects the training dynamics; the resume
    guard compares this instead of the full config hash."""
    lines = [
        line for line in canonical_text(cfg).splitlines()
        if line.split("=")[0] not in RESUME_NEUTRAL_KEYS
    ]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:12]
