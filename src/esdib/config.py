"""Run configuration: experiment presets, INI config files, and overrides.

A run is described by four sections (all keys optional once a preset or a
file supplies the required ones):

* ``[domain]`` -- ``kind`` (square | sphere), ``size`` (edge length or
  radius), ``resolution`` (grid divisions or subdivision level; defaults to
  a target edge length of about 0.2 for the resolved kind and size),
* ``[kinetics]`` -- ``B``, ``C``, ``rho``, ``kappa``, ``d``, ``amplitude``,
  ``seed``, ``shared_noise``,
* ``[solver]`` -- ``tau``, ``T``, ``cg_tol``, ``cg_maxiter``,
  ``min_triangle_area`` (number or ``auto``), ``min_angle_deg``,
* ``[output]`` -- ``directory``, ``sample_stride``, ``snapshot_stride``
  (0 disables periodic snapshots; otherwise a multiple of ``sample_stride``),
  ``write_obj``.

A configuration is resolved from four layers of text, each overriding the one
before: the package defaults, the preset, the config file, then command-line
overrides.  The package defaults are the keyword defaults of
:func:`~esdib.kinetics.default_params` and
:func:`~esdib.kinetics.initial_condition` and the field defaults of
:class:`~esdib.stepper.SolverConfig` (except the required ``T``) and
:class:`OutputConfig`; a preset supplies kind, size, B, C, rho and T.  The
merged layers are parsed through one key table, :data:`_SCHEMA`, which also
rejects unknown sections and keys, orders :func:`dump_config` and, as
:data:`CONFIG_KEYS`, names the command-line options.  Every validation error
names the offending ``section.key``.  :func:`load_domain` resolves the
``[domain]`` section alone the same way, for ``esdib mesh``.
"""

from __future__ import annotations

import configparser
import inspect
import math
import os
import re
from dataclasses import dataclass, fields

from .errors import ConfigError
from .kinetics import KineticsParams, default_params, initial_condition
from .meshgen import DomainSpec, default_resolution
from .stepper import SolverConfig

_BOOL_WORDS = {
    "1": True, "yes": True, "true": True, "on": True,
    "0": False, "no": False, "false": False, "off": False,
}


def _number(minimum=None, exclusive=False):
    """Parser of a finite float, optionally bounded below."""

    def parse(name: str, text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"{name} must be a number, got {text!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
        if minimum is not None:
            if exclusive and not value > minimum:
                raise ConfigError(f"{name} must be greater than {minimum}, got {value}")
            if not exclusive and not value >= minimum:
                raise ConfigError(f"{name} must be at least {minimum}, got {value}")
        return value

    return parse


def _integer(minimum: int):
    """Parser of an integer bounded below."""

    def parse(name: str, text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ConfigError(f"{name} must be an integer, got {text!r}")
        if value < minimum:
            raise ConfigError(f"{name} must be at least {minimum}, got {value}")
        return value

    return parse


def _boolean(name: str, text: str) -> bool:
    word = text.strip().lower()
    if word not in _BOOL_WORDS:
        raise ConfigError(f"{name} must be a boolean, got {text!r}")
    return _BOOL_WORDS[word]


def _kind(name: str, text: str) -> str:
    if text not in ("square", "sphere"):
        raise ConfigError(f"{name} must be square or sphere, got {text!r}")
    return text


def _directory(name: str, text: str) -> str:
    if not text:
        raise ConfigError(f"{name} must not be empty")
    # config.ini must read it back as it is, but the INI reader strips a value,
    # ends it at a line break and drops an inline comment: # or ; after whitespace
    if text != text.strip() or len(text.splitlines()) > 1 or re.search(r"\s[#;]", text):
        raise ConfigError(
            f"{name} must not start or end with whitespace, hold a line break, "
            f"or have # or ; right after whitespace, got {text!r}"
        )
    return text


_positive = _number(0.0, exclusive=True)
_non_negative = _number(0.0)


def _auto_or_area(name: str, text: str) -> float | None:
    return None if text.strip().lower() == "auto" else _positive(name, text)


#: section -> key -> parser of its text; the key order is the order of
#: resolution (and so of error reporting) and of :func:`dump_config`
_SCHEMA = {
    "domain": {"kind": _kind, "size": _positive, "resolution": _integer(1)},
    "kinetics": {
        "B": _number(), "C": _number(), "rho": _positive, "kappa": _non_negative,
        "d": _positive, "amplitude": _non_negative, "seed": _integer(0),
        "shared_noise": _boolean,
    },
    "solver": {
        "tau": _positive, "T": _non_negative, "cg_tol": _positive,
        "cg_maxiter": _integer(1), "min_triangle_area": _auto_or_area,
        "min_angle_deg": _non_negative,
    },
    "output": {
        "directory": _directory, "sample_stride": _integer(1),
        "snapshot_stride": _integer(0), "write_obj": _boolean,
    },
}

#: every ``section.key`` of :data:`_SCHEMA`, in its order; the command line
#: generates one option per key from it
CONFIG_KEYS = tuple(f"{section}.{key}" for section, keys in _SCHEMA.items() for key in keys)


def _render(value) -> str:
    """Text of a resolved value that its key's parser reads back exactly."""
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class ExperimentPreset:
    """One of the canonical experiments: domain, kinetics overrides, final time."""

    preset_id: int
    domain: DomainSpec
    B: float
    C: float
    rho: float
    T: float


def _preset(pid: int, kind: str, size: float, B: float, C: float, rho: float, T: float) -> ExperimentPreset:
    spec = DomainSpec(kind=kind, size=size, resolution=default_resolution(kind, size))
    return ExperimentPreset(preset_id=pid, domain=spec, B=B, C=C, rho=rho, T=T)


#: the six canonical experiments: three kinetic regimes (labyrinths at B=30,
#: spots at B=66, inverted spots at B=62/C=5), each on a flat sheet and on a sphere
PRESETS: dict[int, ExperimentPreset] = {
    1: _preset(1, "square", 20.0, 30.0, 3.0, 2.0, 12.0),
    2: _preset(2, "square", 30.0, 66.0, 3.0, 1.0, 20.0),
    3: _preset(3, "square", 20.0, 62.0, 5.0, 2.0, 60.0),
    4: _preset(4, "sphere", 3.0, 30.0, 3.0, 2.0, 12.0),
    5: _preset(5, "sphere", 10.0, 66.0, 3.0, 1.0, 20.0),
    6: _preset(6, "sphere", 5.0, 62.0, 5.0, 2.0, 50.0),
}


@dataclass
class OutputConfig:
    """Artifact destinations and sampling cadence."""

    directory: str = "out"
    sample_stride: int = 10
    snapshot_stride: int = 0
    write_obj: bool = False


@dataclass
class RunConfig:
    """Fully resolved description of one run."""

    domain: DomainSpec
    B: float
    C: float
    rho: float
    kappa: float
    d: float
    amplitude: float
    seed: int
    shared_noise: bool
    solver: SolverConfig
    output: OutputConfig
    preset_id: int | None = None

    def kinetics_params(self) -> KineticsParams:
        return default_params(self.B, self.C, rho=self.rho, kappa=self.kappa, d=self.d)


def _keyword_defaults(*functions) -> dict:
    return {
        p.name: p.default
        for function in functions
        for p in inspect.signature(function).parameters.values()
        if p.default is not p.empty
    }


#: the package-defaults layer, as text like every other layer
_DEFAULTS = {
    section: {key: _render(value) for key, value in values.items()}
    for section, values in {
        "kinetics": _keyword_defaults(default_params, initial_condition),
        "solver": {f.name: f.default for f in fields(SolverConfig) if f.name != "T"},
        "output": {f.name: f.default for f in fields(OutputConfig)},
    }.items()
}


def _preset_layer(p: ExperimentPreset) -> dict[str, dict[str, str]]:
    return {
        "domain": {"kind": p.domain.kind, "size": _render(p.domain.size)},
        "kinetics": {"B": _render(p.B), "C": _render(p.C), "rho": _render(p.rho)},
        "solver": {"T": _render(p.T)},
    }


def _read_ini(path: str) -> dict[str, dict[str, str]]:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    parser.optionxform = str  # keys like B and T are case sensitive
    try:
        with open(path) as f:
            parser.read_file(f, source=path)
    except configparser.Error as e:
        raise ConfigError(f"cannot parse {path}: {e}") from e
    if parser.defaults():  # configparser would copy these keys into every section
        raise ConfigError("unknown config section [DEFAULT]")
    return {section: dict(parser.items(section)) for section in parser.sections()}


def _merge(path, preset, overrides) -> dict[str, dict[str, str]]:
    """Defaults < preset < config file < overrides, as one section -> key -> text table."""
    raw = {section: dict(_DEFAULTS.get(section, {})) for section in _SCHEMA}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset}; valid ids are {sorted(PRESETS)}"
            )
        for section, entries in _preset_layer(PRESETS[preset]).items():
            raw[section].update(entries)
    if path is not None:
        for section, entries in _read_ini(path).items():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key in entries:
                if key not in _SCHEMA[section]:
                    raise ConfigError(f"unknown config key {section}.{key}")
            raw[section].update(entries)
    for dotted, value in (overrides or {}).items():
        if dotted.count(".") != 1:
            raise ConfigError(f"override {dotted!r} must look like section.key")
        section, key = dotted.split(".")
        if key not in _SCHEMA.get(section, ()):
            raise ConfigError(f"unknown config key {section}.{key}")
        raw[section][key] = str(value)
    return raw


def _parse(raw: dict[str, dict[str, str]], section: str) -> dict:
    """Typed values of one merged section, checked key by key in schema order."""
    texts = raw[section]
    values = {}
    for key, parse in _SCHEMA[section].items():
        name = f"{section}.{key}"
        if key in texts:
            values[key] = parse(name, texts[key])
        elif key == "resolution":
            values[key] = default_resolution(values["kind"], values["size"])
        else:
            raise ConfigError(f"missing required config value {name}")
        if key == "T" and not math.isfinite(values["T"] / values["tau"]):
            raise ConfigError(
                f"solver.T / solver.tau must be a finite number of steps, got "
                f"{values['T']!r} / {values['tau']!r}"
            )
        # snapshots are taken by an observer, which run calls only at sampled steps
        if key == "snapshot_stride" and values[key] % values["sample_stride"] != 0:
            raise ConfigError(
                "output.snapshot_stride must be a multiple of output.sample_stride "
                f"({values['sample_stride']}), got {values[key]}"
            )
    return values


def load_config(path=None, preset=None, overrides=None) -> RunConfig:
    """Resolve a run configuration from a preset, a config file, or both.

    Parameters
    ----------
    path : str, optional
        INI config file; its values override the preset.
    preset : int, optional
        Canonical experiment id (1 to 6) supplying domain, B, C, rho, T.
    overrides : dict, optional
        Dotted ``section.key`` strings mapping to raw values, applied last.

    Raises
    ------
    ConfigError
        Unknown preset id, missing file, parse errors (with line numbers),
        unknown keys, or invalid values (named as section.key).
    """
    raw = _merge(path, preset, overrides)
    values = {section: _parse(raw, section) for section in _SCHEMA}
    return RunConfig(
        domain=DomainSpec(**values["domain"]),
        **values["kinetics"],
        solver=SolverConfig(**values["solver"]),
        output=OutputConfig(**values["output"]),
        preset_id=None if preset is None else PRESETS[preset].preset_id,
    )


def load_domain(preset=None, overrides=None) -> DomainSpec:
    """The domain :func:`load_config` resolves for the same preset and overrides.

    Only the ``[domain]`` values are parsed, so a mesh needs no kinetics or
    final time.  Raises :class:`ConfigError` as :func:`load_config` does.
    """
    return DomainSpec(**_parse(_merge(None, preset, overrides), "domain"))


def dump_config(cfg: RunConfig) -> str:
    """Render a resolved configuration as canonical INI text, in schema order."""
    owners = {
        "domain": cfg.domain, "kinetics": cfg, "solver": cfg.solver, "output": cfg.output,
    }
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {_render(getattr(owners[section], key))}" for key in keys]
        lines.append("")
    return "\n".join(lines)
