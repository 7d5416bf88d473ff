"""Run configuration: experiment presets, INI config files, and overrides.

A run is described by four sections:

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
:func:`~esdib.stepper.initial_condition` and the field defaults of
:class:`~esdib.stepper.SolverConfig` (except the required ``T``) and
:class:`OutputConfig`; a preset, one entry of :data:`PRESETS`, is a layer of
text that sets kind, size, B, C, rho and T.  The merged layers are converted
to typed values through one key table, :data:`_SCHEMA`, which also rejects
unknown sections and keys, orders :func:`dump_config` and, as
:data:`CONFIG_KEYS`, names the command-line options.  The table converts text
only; each value is checked by the type that holds it
(:class:`~esdib.meshgen.DomainSpec`, :class:`RunConfig` for the kinetics,
:class:`~esdib.stepper.SolverConfig`, :class:`OutputConfig`), and its
rejection is re-raised as a :class:`ConfigError` that names the
``section.key``.  Five keys have no package default: ``domain.kind``,
``domain.size``, ``kinetics.B``, ``kinetics.C`` and ``solver.T``; one that no
layer sets is a text error, ``missing required config value section.key``.
Errors come in two phases: all text is converted and every required key found,
in schema order, before any value is checked; the owners then check the
domain, solver, output and kinetics sections in that order.
:func:`load_domain` resolves the ``[domain]`` section alone the same way, for
``esdib mesh``.  A :class:`RunConfig` holds exactly what :func:`dump_config`
writes, so a run's ``config.ini`` loads, without a preset, to an equal one.
"""

from __future__ import annotations

import configparser
import inspect
import numbers
import os
import re
from dataclasses import dataclass, fields

from .errors import ConfigError, check_count, check_real
from .kinetics import KineticsParams, default_params
from .meshgen import DomainSpec
from .stepper import SolverConfig, initial_condition


def _converter(convert, what: str):
    """Parser of a key's text to a typed value by ``convert``; checks no bound."""

    def parse(name: str, text: str):
        try:
            return convert(text)
        except (KeyError, ValueError):
            raise ConfigError(f"{name} must be {what}, got {text!r}")

    return parse


_number = _converter(float, "a number")
_integer = _converter(int, "an integer")
_boolean = _converter(
    lambda text: configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()], "a boolean"
)
_text = _converter(str, "text")
_auto_or_number = _converter(
    lambda text: None if text.strip().lower() == "auto" else float(text), "a number or auto"
)


#: section -> key -> converter of its text to a typed value; the key order is
#: the order of conversion and of :func:`dump_config`
_SCHEMA = {
    "domain": {"kind": _text, "size": _number, "resolution": _integer},
    "kinetics": {
        "B": _number, "C": _number, "rho": _number, "kappa": _number, "d": _number,
        "amplitude": _number, "seed": _integer, "shared_noise": _boolean,
    },
    "solver": {
        "tau": _number, "T": _number, "cg_tol": _number, "cg_maxiter": _integer,
        "min_triangle_area": _auto_or_number, "min_angle_deg": _number,
    },
    "output": {
        "directory": _text, "sample_stride": _integer, "snapshot_stride": _integer,
        "write_obj": _boolean,
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
    if isinstance(value, float):  # repr of a numpy float names its type
        return repr(float(value))
    return str(value)


#: the six canonical experiments: three kinetic regimes (labyrinths at B=30,
#: spots at B=66, inverted spots at B=62/C=5), each on a flat sheet and on a
#: sphere.  Each is the section -> key -> text layer that :func:`load_config`
#: applies over the package defaults; a run records the values, not the id
PRESETS: dict[int, dict[str, dict[str, str]]] = {
    1: {"domain": {"kind": "square", "size": "20.0"},
        "kinetics": {"B": "30.0", "C": "3.0", "rho": "2.0"}, "solver": {"T": "12.0"}},
    2: {"domain": {"kind": "square", "size": "30.0"},
        "kinetics": {"B": "66.0", "C": "3.0", "rho": "1.0"}, "solver": {"T": "20.0"}},
    3: {"domain": {"kind": "square", "size": "20.0"},
        "kinetics": {"B": "62.0", "C": "5.0", "rho": "2.0"}, "solver": {"T": "60.0"}},
    4: {"domain": {"kind": "sphere", "size": "3.0"},
        "kinetics": {"B": "30.0", "C": "3.0", "rho": "2.0"}, "solver": {"T": "12.0"}},
    5: {"domain": {"kind": "sphere", "size": "10.0"},
        "kinetics": {"B": "66.0", "C": "3.0", "rho": "1.0"}, "solver": {"T": "20.0"}},
    6: {"domain": {"kind": "sphere", "size": "5.0"},
        "kinetics": {"B": "62.0", "C": "5.0", "rho": "2.0"}, "solver": {"T": "50.0"}},
}


@dataclass
class OutputConfig:
    """Artifact destinations and sampling cadence, checked at construction.

    ``directory`` must read back from ``config.ini`` as it is; ``sample_stride``
    is an integer >= 1 and ``snapshot_stride`` 0 (no periodic snapshots) or a
    multiple of it.  Invalid values raise ``ValueError``.
    """

    directory: str = "out"
    sample_stride: int = 10
    snapshot_stride: int = 0
    write_obj: bool = False

    def __post_init__(self):
        text = self.directory
        if not text:
            raise ValueError("directory must not be empty")
        # the INI reader strips a value, ends it at a line break and drops an
        # inline comment: # or ; after whitespace
        if text != text.strip() or len(text.splitlines()) > 1 or re.search(r"\s[#;]", text):
            raise ValueError(
                "directory must not start or end with whitespace, hold a line break, "
                f"or have # or ; right after whitespace, got {text!r}"
            )
        check_count("sample_stride", self.sample_stride, 1)
        check_count("snapshot_stride", self.snapshot_stride, 0)
        # snapshots are taken by an observer, which run calls only at sampled steps
        if self.snapshot_stride % self.sample_stride:
            raise ValueError(
                f"snapshot_stride must be a multiple of sample_stride ({self.sample_stride}), "
                f"got {self.snapshot_stride!r}"
            )


@dataclass
class RunConfig:
    """Fully resolved description of one run.

    Construction checks the kinetics section: :meth:`kinetics_params` must
    build, ``amplitude`` be finite and >= 0 and ``seed`` an integer >= 0, or
    ``ValueError`` is raised.  The other sections are checked by their types.
    """

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

    def __post_init__(self):
        self.kinetics_params()
        check_real("amplitude", self.amplitude, nonnegative=True)
        check_count("seed", self.seed, 0)

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
        # True == 1 and 4.0 == 4 would find a preset by value; np.int64(4) is an integer
        if (isinstance(preset, bool) or not isinstance(preset, numbers.Integral)
                or preset not in PRESETS):
            raise ConfigError(f"unknown preset {preset!r}; valid ids are {sorted(PRESETS)}")
        for section, entries in PRESETS[preset].items():
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
    """Typed values of one merged section, converted key by key in schema order;
    a key that no layer sets is missing, unless it is ``domain.resolution``."""
    texts = raw[section]
    values = {}
    for key, parse in _SCHEMA[section].items():
        if key in texts:
            values[key] = parse(f"{section}.{key}", texts[key])
        elif key != "resolution":  # DomainSpec resolves a missing resolution
            raise ConfigError(f"missing required config value {section}.{key}")
    return values


def _owned(section: str, owner, values: dict):
    """``owner(**values)``; its rejection, which starts with a key, gets a ``section.`` prefix."""
    try:
        return owner(**values)
    except ValueError as e:
        raise ConfigError(f"{section}.{e}") from e


def load_config(path=None, preset=None, overrides=None) -> RunConfig:
    """Resolve a run configuration from a preset, a config file, or both.

    Parameters
    ----------
    path : str, optional
        INI config file; its values override the preset.
    preset : int, optional
        Canonical experiment id (1 to 6), a Python or numpy integer: the
        :data:`PRESETS` layer that supplies kind, size, B, C, rho and T.
    overrides : dict, optional
        Dotted ``section.key`` strings mapping to raw values, applied last.

    Raises
    ------
    ConfigError
        Unknown preset id (not an integer key of :data:`PRESETS`; a bool
        is not one), missing file, parse errors (with line numbers),
        unknown keys, then, in schema order, text that does not convert or a
        missing required key, then invalid values in the order domain,
        solver, output, kinetics; keys are named as ``section.key``.
    """
    raw = _merge(path, preset, overrides)
    values = {section: _parse(raw, section) for section in _SCHEMA}
    return _owned("kinetics", RunConfig, dict(
        values["kinetics"],
        domain=_owned("domain", DomainSpec, values["domain"]),
        solver=_owned("solver", SolverConfig, values["solver"]),
        output=_owned("output", OutputConfig, values["output"]),
    ))


def load_domain(preset=None, overrides=None) -> DomainSpec:
    """The domain :func:`load_config` resolves for the same preset and overrides.

    Only the ``[domain]`` values are parsed, so a mesh needs no kinetics or
    final time.  Raises :class:`ConfigError` as :func:`load_config` does.
    """
    return _owned("domain", DomainSpec, _parse(_merge(None, preset, overrides), "domain"))


def dump_config(cfg: RunConfig) -> str:
    """Render a resolved configuration as canonical INI text, in schema order.

    ``load_config(path=...)`` reads the text back to a :class:`RunConfig` equal to ``cfg``.
    """
    owners = {
        "domain": cfg.domain, "kinetics": cfg, "solver": cfg.solver, "output": cfg.output,
    }
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {_render(getattr(owners[section], key))}" for key in keys]
        lines.append("")
    return "\n".join(lines)
