"""Run configuration: experiment presets, INI config files, and overrides.

A run is described by four sections (all keys optional once a preset or a
file supplies the required ones):

* ``[domain]`` -- ``kind`` (square | sphere), ``size`` (edge length or
  radius), ``resolution`` (grid divisions or subdivision level; defaults to
  a target edge length of about 0.2),
* ``[kinetics]`` -- ``B``, ``C``, ``rho``, ``kappa``, ``d``, ``amplitude``,
  ``seed``, ``shared_noise``,
* ``[solver]`` -- ``tau``, ``T``, ``cg_tol``, ``cg_maxiter``,
  ``min_triangle_area`` (number or ``auto``), ``min_angle_deg``,
* ``[output]`` -- ``directory``, ``sample_stride``, ``snapshot_stride``
  (0 disables periodic snapshots; otherwise a multiple of ``sample_stride``),
  ``write_obj``.

Precedence: package defaults, then the preset, then the config file, then
command-line overrides.  Unknown sections or keys are rejected, and every
validation error names the offending ``section.key``.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, replace

from .errors import ConfigError
from .kinetics import KineticsParams, default_params
from .meshgen import DomainSpec, default_resolution
from .stepper import SolverConfig

_SCHEMA = {
    "domain": ("kind", "size", "resolution"),
    "kinetics": ("B", "C", "rho", "kappa", "d", "amplitude", "seed", "shared_noise"),
    "solver": ("tau", "T", "cg_tol", "cg_maxiter", "min_triangle_area", "min_angle_deg"),
    "output": ("directory", "sample_stride", "snapshot_stride", "write_obj"),
}

_BOOL_WORDS = {
    "1": True, "yes": True, "true": True, "on": True,
    "0": False, "no": False, "false": False, "off": False,
}


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
        params = default_params(self.B, self.C, rho=self.rho, kappa=self.kappa)
        if self.d != params.d:
            params = replace(params, d=self.d)
        return params


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
    return {section: dict(parser.items(section)) for section in parser.sections()}


def _validate_keys(raw: dict[str, dict[str, str]]) -> None:
    for section, entries in raw.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in entries:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key {section}.{key}")


def _apply_overrides(raw: dict[str, dict[str, str]], overrides) -> None:
    for dotted, value in overrides.items():
        if dotted.count(".") != 1:
            raise ConfigError(
                f"override {dotted!r} must look like section.key"
            )
        section, key = dotted.split(".")
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"unknown config key {section}.{key}")
        raw.setdefault(section, {})[key] = str(value)


class _Resolver:
    """Typed access to raw string values with section.key error naming."""

    def __init__(self, raw: dict[str, dict[str, str]]):
        self.raw = raw

    def has(self, section: str, key: str) -> bool:
        return key in self.raw.get(section, {})

    def text(self, section: str, key: str, default: str | None = None) -> str | None:
        return self.raw.get(section, {}).get(key, default)

    def floating(self, section, key, default, *, minimum=None, exclusive=False):
        text = self.text(section, key)
        if text is None:
            value = default
        else:
            try:
                value = float(text)
            except ValueError:
                raise ConfigError(f"{section}.{key} must be a number, got {text!r}")
        if value is None:
            raise ConfigError(f"missing required config value {section}.{key}")
        if not math.isfinite(value):
            raise ConfigError(f"{section}.{key} must be finite, got {value}")
        if minimum is not None:
            if exclusive and not value > minimum:
                raise ConfigError(
                    f"{section}.{key} must be greater than {minimum}, got {value}"
                )
            if not exclusive and not value >= minimum:
                raise ConfigError(
                    f"{section}.{key} must be at least {minimum}, got {value}"
                )
        return value

    def integer(self, section, key, default, *, minimum=None):
        text = self.text(section, key)
        if text is None:
            value = default
        else:
            try:
                value = int(text)
            except ValueError:
                raise ConfigError(f"{section}.{key} must be an integer, got {text!r}")
        if value is None:
            raise ConfigError(f"missing required config value {section}.{key}")
        if minimum is not None and value < minimum:
            raise ConfigError(
                f"{section}.{key} must be at least {minimum}, got {value}"
            )
        return value

    def boolean(self, section, key, default):
        text = self.text(section, key)
        if text is None:
            return default
        word = text.strip().lower()
        if word not in _BOOL_WORDS:
            raise ConfigError(f"{section}.{key} must be a boolean, got {text!r}")
        return _BOOL_WORDS[word]


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
    chosen: ExperimentPreset | None = None
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset}; valid ids are {sorted(PRESETS)}"
            )
        chosen = PRESETS[preset]

    raw = _read_ini(path) if path is not None else {}
    _validate_keys(raw)
    if overrides:
        _apply_overrides(raw, overrides)
    r = _Resolver(raw)

    kind = r.text("domain", "kind", chosen.domain.kind if chosen else None)
    if kind is None:
        raise ConfigError("missing required config value domain.kind")
    if kind not in ("square", "sphere"):
        raise ConfigError(f"domain.kind must be square or sphere, got {kind!r}")
    size = r.floating(
        "domain", "size", chosen.domain.size if chosen else None,
        minimum=0.0, exclusive=True,
    )
    if r.has("domain", "resolution"):
        resolution = r.integer("domain", "resolution", None, minimum=1)
    elif chosen is not None and kind == chosen.domain.kind and size == chosen.domain.size:
        resolution = chosen.domain.resolution
    else:
        resolution = default_resolution(kind, size)
    domain = DomainSpec(kind=kind, size=size, resolution=resolution)

    B = r.floating("kinetics", "B", chosen.B if chosen else None)
    C = r.floating("kinetics", "C", chosen.C if chosen else None)
    rho = r.floating(
        "kinetics", "rho", chosen.rho if chosen else 1.0, minimum=0.0, exclusive=True
    )
    kappa = r.floating("kinetics", "kappa", 0.2, minimum=0.0)
    d = r.floating("kinetics", "d", 20.0, minimum=0.0, exclusive=True)
    amplitude = r.floating("kinetics", "amplitude", 1e-4, minimum=0.0)
    seed = r.integer("kinetics", "seed", 0, minimum=0)
    shared_noise = r.boolean("kinetics", "shared_noise", False)

    tau = r.floating("solver", "tau", SolverConfig.tau, minimum=0.0, exclusive=True)
    T = r.floating("solver", "T", chosen.T if chosen else None, minimum=0.0)
    cg_tol = r.floating("solver", "cg_tol", SolverConfig.cg_tol, minimum=0.0, exclusive=True)
    cg_maxiter = r.integer("solver", "cg_maxiter", SolverConfig.cg_maxiter, minimum=1)
    min_area_text = r.text("solver", "min_triangle_area", "auto")
    if min_area_text is not None and min_area_text.strip().lower() == "auto":
        min_triangle_area = None
    else:
        min_triangle_area = r.floating(
            "solver", "min_triangle_area", None, minimum=0.0, exclusive=True
        )
    min_angle_deg = r.floating(
        "solver", "min_angle_deg", SolverConfig.min_angle_deg, minimum=0.0
    )
    solver = SolverConfig(
        tau=tau, T=T, cg_tol=cg_tol, cg_maxiter=cg_maxiter,
        min_triangle_area=min_triangle_area, min_angle_deg=min_angle_deg,
    )

    directory = r.text("output", "directory", OutputConfig.directory)
    if not directory:
        raise ConfigError("output.directory must not be empty")
    sample_stride = r.integer(
        "output", "sample_stride", OutputConfig.sample_stride, minimum=1
    )
    snapshot_stride = r.integer(
        "output", "snapshot_stride", OutputConfig.snapshot_stride, minimum=0
    )
    # snapshots are taken by an observer, which run calls only at sampled steps
    if snapshot_stride % sample_stride != 0:
        raise ConfigError(
            "output.snapshot_stride must be a multiple of output.sample_stride "
            f"({sample_stride}), got {snapshot_stride}"
        )
    output = OutputConfig(
        directory=directory,
        sample_stride=sample_stride,
        snapshot_stride=snapshot_stride,
        write_obj=r.boolean("output", "write_obj", OutputConfig.write_obj),
    )

    return RunConfig(
        domain=domain, B=B, C=C, rho=rho, kappa=kappa, d=d,
        amplitude=amplitude, seed=seed, shared_noise=shared_noise,
        solver=solver, output=output,
        preset_id=chosen.preset_id if chosen else None,
    )


def _render(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


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
