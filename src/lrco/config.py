"""Run configuration: one plain-text file describes a full run.

Format: `section.key = value` lines, `#` comments, blank lines ignored.
Unknown keys are rejected. The canonical rendering (sorted keys, 17
significant digits) is hashed so every artifact can carry a short id of the
exact configuration that produced it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace
from typing import get_type_hints

from .analysis import analysis_filename
from .data import AugmentSpec, BenchmarkSpec
from .errors import ConfigError, check_domains, within
from .model import ModelConfig
from .numerics import float_text
from .trainer import TrainConfig

# The most entries of one array a config may ask for (a signed 32-bit count).
MAX_ARRAY_ENTRIES = 2**31 - 1
# The most UTF-8 bytes of output.run_id: analyze's longest table name, the
# projection table's at a 19-digit step, must fit a 255-byte file name.
MAX_RUN_ID_BYTES = 255 - len(analysis_filename("projection", "", 2**63 - 1, "target"))


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
        # canonical_text writes the id on one line that parsing splits and
        # strips, so no line break, other whitespace or control character
        # could be read back
        if not self.run_id or any(c in ",/\\" or c.isspace() or not c.isprintable()
                                  for c in self.run_id):
            raise ConfigError(f"output.run_id must be nonempty, of printable characters "
                              f"without whitespace, commas or slashes, got {self.run_id!r}")
        n_bytes = len(self.run_id.encode("utf-8"))
        if n_bytes > MAX_RUN_ID_BYTES:
            raise ConfigError(f"output.run_id must be at most {MAX_RUN_ID_BYTES} bytes in "
                              f"UTF-8, to fit the file names of analyze's tables, "
                              f"got {n_bytes} bytes")


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
        for what, entries in self._array_sizes().items():
            if entries > MAX_ARRAY_ENTRIES:
                raise ConfigError(f"{what} would hold {entries} entries; an array holds "
                                  f"at most {MAX_ARRAY_ENTRIES}")

    def _array_sizes(self) -> dict[str, int]:
        """The entry count of each array whose size the config sets alone,
        as Python ints: nothing is allocated."""
        data, model = self.data, self.model
        layout = ModelConfig(input_dim=data.input_dim, hidden_dims=model.hidden_dims,
                             feature_dim=model.feature_dim, n_classes=data.n_classes,
                             t_ce=self.train.t_ce, t_re=self.train.resolved_t_re()).layout()
        sizes = {
            "the model's parameter vector": sum(map(math.prod, layout)),
            "the (data.input_dim, data.input_dim) class frame and shift rotation":
                data.input_dim ** 2,
        }
        for split, per_class in (("source", "n_per_class_source"),
                                 ("target", "n_per_class_target"),
                                 ("labeled target", "n_labeled_target_per_class")):
            rows = data.n_classes * getattr(data, per_class)
            sizes[f"the {split} split (data.n_classes * data.{per_class} rows of "
                  f"data.input_dim)"] = rows * data.input_dim
        return sizes


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

_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def parser_for(annotation: str):
    """Build the parser of a config value from its annotation string: one of
    the scalars int, float, str and bool, or, for a scalar X, ``X | None``
    (``none`` or an empty value reads as None), ``tuple[X, ...]`` (an empty
    value reads as ``()``) or ``tuple[X, X]``. Any other annotation gives None.
    """
    kind, shape = annotation, "scalar"
    if annotation.endswith(" | None"):
        kind, shape = annotation.removesuffix(" | None"), "optional"
    elif annotation.startswith("tuple[") and annotation.endswith("]"):
        kind, _, length = annotation[len("tuple["):-1].partition(", ")
        shape = {"...": "tuple", kind: "pair"}.get(length)
    if shape is None:
        return None
    if kind == "str":
        entry = str.strip
    elif kind == "bool":
        def entry(text):
            value = _BOOLEANS.get(text.strip().lower())
            if value is None:
                raise ConfigError(f"expected a boolean, got {text!r}")
            return value
    elif kind in ("int", "float"):
        cast, noun = (int, "an integer") if kind == "int" else (float, "a number")

        def entry(text):
            try:
                return cast(text)
            except ValueError as exc:
                raise ConfigError(f"expected {noun}, got {text!r}") from exc
    else:
        return None
    if shape == "scalar":
        return entry
    if shape == "optional":
        return lambda text: None if text.strip().lower() in ("none", "") else entry(text)

    def parse_tuple(text):
        values = tuple(entry(p) for p in text.split(",")) if text.strip() else ()
        if shape == "pair" and len(values) != 2:
            raise ConfigError(f"expected exactly two comma-separated numbers, got {text!r}")
        return values
    return parse_tuple


def _section_parsers(section_type) -> dict[str, object]:
    # Every section module postpones the evaluation of annotations, so
    # dataclasses.fields reports them as strings.
    parsers = {}
    for f in fields(section_type):
        parsers[f.name] = parser_for(f.type)
        if parsers[f.name] is None:
            raise TypeError(f"no config parser for {section_type.__name__}.{f.name}: "
                            f"{f.type!r}")
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
        return float_text(value)
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
