"""Run configuration: INI-style files whose sections are the library configs.

A config file looks like::

    [data]
    train_csv = train.csv
    imbalance_ratio = 0

    [ensemble]
    n_pos_models = 20
    n_neg_models = 20
    subset_fraction = 0.1
    state_counts = 3,4,5
    master_seed = 42

    [train]
    max_iters = 25
    tol = 1e-4
    floor = 1e-10

    [mlp]
    hidden_dims = 512,256,128
    dropout = 0.25
    learning_rate = 0.001
    batch_size = 64
    epochs = 16

Each section's keys, types and defaults are the fields of one dataclass
(see SECTIONS), minus the fields a run fills in itself. Unknown keys are
rejected so typos fail loudly; parse errors and non-finite floats name
the offending [section] key.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import math
import typing
from dataclasses import dataclass, field

from .ensemble import EnsembleConfig
from .errors import ConfigError
from .hmm import TrainConfig
from .mlp import MlpConfig


@dataclass(frozen=True)
class DataConfig:
    """Where the training corpus lives and how to reshape it."""

    train_csv: str | None = None  # columns ``sequence`` and ``label``
    imbalance_ratio: float = 0.0  # 0 disables imbalance construction
    imbalance_seed: int = 0


# Section -> (dataclass, fields left out of the file). Each training job
# sets its own n_states and seed; the MLP's input_dim is the feature width.
SECTIONS = {
    "data": (DataConfig, ()),
    "ensemble": (EnsembleConfig, ("train",)),
    "train": (TrainConfig, ("n_states", "seed")),
    "mlp": (MlpConfig, ("input_dim",)),
}


def _section_fields(section: str) -> dict[str, dataclasses.Field]:
    cls, excluded = SECTIONS[section]
    return {f.name: f for f in dataclasses.fields(cls) if f.name not in excluded}


def _defaults() -> dict[str, dict]:
    return {
        section: {name: f.default for name, f in _section_fields(section).items()}
        for section in SECTIONS
    }


@dataclass
class RunConfig:
    """The values of every section, keyed by section then field name."""

    sections: dict[str, dict] = field(default_factory=_defaults)

    @property
    def data(self) -> DataConfig:
        return DataConfig(**self.sections["data"])

    def ensemble_config(self) -> EnsembleConfig:
        # The train template's n_states is a placeholder that each job
        # replaces; the first state count keeps it valid.
        config = EnsembleConfig(**self.sections["ensemble"])
        train = TrainConfig(n_states=config.state_counts[0], **self.sections["train"])
        return dataclasses.replace(config, train=train)

    def mlp_config(self, input_dim: int) -> MlpConfig:
        return MlpConfig(input_dim=input_dim, **self.sections["mlp"])


def _parse(section: str, key: str, raw: str):
    cls = SECTIONS[section][0]
    kind = typing.get_type_hints(cls)[key]
    try:
        if kind == tuple[int, ...]:
            return tuple(int(v) for v in raw.split(",") if v.strip())
        value = kind(raw) if kind in (int, float) else raw
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: must be finite, got {raw!r}")
    return value


def load_run_config(path) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    cfg = RunConfig()
    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        known = _section_fields(section)
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"[{section}] {key}: unknown key")
            cfg.sections[section][key] = _parse(section, key, raw)
    return cfg


def resolved_config_text(cfg: RunConfig) -> str:
    """Canonical flat rendering of a config; hashed into every output file."""
    lines = []
    for section, values in cfg.sections.items():
        for key, value in sorted(values.items()):
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{section}.{key} = {value}")
    return "\n".join(lines) + "\n"


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
