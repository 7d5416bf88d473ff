"""Preset table, INI loading, precedence, and validation messages."""

import math
from dataclasses import replace

import numpy as np
import pytest

from esdib import (
    PRESETS, ConfigError, DomainSpec, RunConfig, SolverConfig, dump_config, load_config,
)
from esdib.config import CONFIG_KEYS, OutputConfig, load_domain

#: the five keys without a package default, with values that complete a
#: configuration without a preset
REQUIRED = {
    "domain.kind": "sphere", "domain.size": "2.0",
    "kinetics.B": "30.0", "kinetics.C": "3.0", "solver.T": "1.0",
}


def with_value(cfg, dotted, value):
    """``cfg`` with the value of ``section.key`` replaced, checked by its owner."""
    section, key = dotted.split(".")
    if section == "kinetics":
        return replace(cfg, **{key: value})
    return replace(cfg, **{section: replace(getattr(cfg, section), **{key: value})})


def value_of(cfg, dotted):
    section, key = dotted.split(".")
    return getattr(cfg if section == "kinetics" else getattr(cfg, section), key)


def write_ini(path, entries):
    """Write ``section.key -> text`` entries as an INI file; returns its path."""
    sections = {}
    for dotted, text in entries.items():
        section, key = dotted.split(".")
        sections.setdefault(section, []).append(f"{key} = {text}\n")
    path.write_text("\n".join(f"[{s}]\n" + "".join(lines) for s, lines in sections.items()))
    return str(path)


class TestPresets:
    def test_table(self):
        assert sorted(PRESETS) == [1, 2, 3, 4, 5, 6]
        # kind, size, resolved resolution, B, C, rho, T
        rows = {
            1: ("square", 20.0, 100, 30.0, 3.0, 2.0, 12.0),
            2: ("square", 30.0, 150, 66.0, 3.0, 1.0, 20.0),
            3: ("square", 20.0, 100, 62.0, 5.0, 2.0, 60.0),
            4: ("sphere", 3.0, 4, 30.0, 3.0, 2.0, 12.0),
            5: ("sphere", 10.0, 6, 66.0, 3.0, 1.0, 20.0),
            6: ("sphere", 5.0, 5, 62.0, 5.0, 2.0, 50.0),
        }
        for pid, (kind, size, res, B, C, rho, T) in rows.items():
            cfg = load_config(preset=pid)
            assert (cfg.domain.kind, cfg.domain.size, cfg.domain.resolution) == (
                kind, size, res,
            )
            assert (cfg.B, cfg.C, cfg.rho, cfg.solver.T) == (B, C, rho, T)

    def test_preset_resolution_matches_target_edge(self):
        # flat sheets aim for edge length 0.2; spheres for the nearest level
        domain = load_config(preset=1).domain
        assert domain.size / domain.resolution == pytest.approx(0.2, rel=1e-12)


class TestLoadConfig:
    def test_preset_only(self):
        cfg = load_config(preset=1)
        assert (cfg.domain.kind, cfg.domain.size, cfg.domain.resolution) == (
            "square", 20.0, 100,
        )
        assert (cfg.B, cfg.C, cfg.rho) == (30.0, 3.0, 2.0)
        assert (cfg.kappa, cfg.d, cfg.amplitude, cfg.seed) == (0.2, 20.0, 1e-4, 0)
        assert cfg.shared_noise is False
        assert (cfg.solver.tau, cfg.solver.T) == (1e-2, 12.0)
        assert (cfg.solver.cg_tol, cfg.solver.cg_maxiter) == (1e-10, 10000)
        assert cfg.solver.min_triangle_area is None
        assert cfg.solver.min_angle_deg == 0.5
        assert cfg.output.directory == "out"
        assert (cfg.output.sample_stride, cfg.output.snapshot_stride) == (10, 0)
        assert cfg.output.write_obj is False

    def test_empty_file_plus_preset_equals_preset(self, tmp_path):
        empty = tmp_path / "empty.ini"
        empty.write_text("")
        assert load_config(path=str(empty), preset=2) == load_config(preset=2)

    def test_file_overrides_preset(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[kinetics]\nB = 40.0\n\n[solver]\nT = 3.0\n")
        cfg = load_config(path=str(ini), preset=1)
        assert cfg.B == 40.0
        assert cfg.solver.T == 3.0
        assert cfg.C == 3.0  # untouched preset value

    def test_overrides_beat_file(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[kinetics]\nB = 40.0\n")
        cfg = load_config(path=str(ini), preset=1, overrides={"kinetics.B": 50.0})
        assert cfg.B == 50.0

    def test_resolution_recomputed_when_size_changes(self):
        cfg = load_config(preset=1, overrides={"domain.size": 10.0})
        assert cfg.domain.resolution == 50  # 10 / 0.2

    def test_explicit_resolution_wins(self):
        cfg = load_config(preset=1, overrides={"domain.resolution": 33})
        assert cfg.domain.resolution == 33

    @pytest.mark.parametrize(
        "preset,overrides",
        [
            (1, {"domain.size": "10"}),
            (4, {"domain.kind": "square"}),
            (2, {"domain.resolution": "12"}),
        ],
    )
    def test_load_domain_matches_run_domain(self, preset, overrides):
        assert load_domain(preset, overrides) == load_config(
            preset=preset, overrides=overrides
        ).domain

    def test_without_preset_requires_domain_and_kinetics(self):
        with pytest.raises(ConfigError, match="domain.kind"):
            load_config()
        with pytest.raises(ConfigError, match="kinetics.B"):
            load_config(
                overrides={"domain.kind": "square", "domain.size": 5.0,
                           "solver.T": 1.0}
            )

    def test_standalone_config_without_preset(self, tmp_path):
        ini = tmp_path / "solo.ini"
        ini.write_text(
            "[domain]\nkind = sphere\nsize = 2.0\nresolution = 3\n\n"
            "[kinetics]\nB = 66.0\nC = 3.0\nrho = 1.0\n\n"
            "[solver]\nT = 5.0\n"
        )
        cfg = load_config(path=str(ini))
        assert cfg.domain.kind == "sphere"
        assert cfg.solver.T == 5.0

    def test_inline_comments_and_booleans(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[kinetics]\nB = 35.0  # boosted\nshared_noise = yes\n\n"
            "[output]\nwrite_obj = off\n"
        )
        cfg = load_config(path=str(ini), preset=1)
        assert cfg.B == 35.0
        assert cfg.shared_noise is True
        assert cfg.output.write_obj is False

    def test_min_triangle_area_auto_and_numeric(self):
        assert load_config(preset=1).solver.min_triangle_area is None
        cfg = load_config(
            preset=1, overrides={"solver.min_triangle_area": "1e-9"}
        )
        assert cfg.solver.min_triangle_area == 1e-9

    def test_kinetics_params_resolution(self):
        cfg = load_config(preset=3)
        params = cfg.kinetics_params()
        assert (params.B, params.C, params.rho) == (62.0, 5.0, 2.0)
        assert params.D == pytest.approx(45.0 / 11.0, rel=1e-15)
        assert params.d == 20.0
        custom = load_config(preset=3, overrides={"kinetics.d": 15.0})
        assert custom.kinetics_params().d == 15.0


class TestValidation:
    def test_unknown_preset(self):
        # True == 1 and 4.0 == 4, but a preset id is an int
        for preset in (7, True, False, 4.0):
            with pytest.raises(ConfigError, match=r"unknown preset .*\[1, 2, 3, 4, 5, 6\]"):
                load_config(preset=preset)
            with pytest.raises(ConfigError, match=r"unknown preset .*\[1, 2, 3, 4, 5, 6\]"):
                load_domain(preset)

    def test_numpy_integer_preset(self):
        # an id is an integer of any kind, as every count of the config is
        for preset in (np.int64(1), np.int32(1), np.uint8(1)):
            assert load_config(preset=preset) == load_config(preset=1)
        assert load_domain(np.int64(4)) == load_domain(4)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config(path="/nonexistent/run.ini")

    def test_parse_error_reports_line(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("orphan value without a section\n")
        with pytest.raises(ConfigError, match="line"):
            load_config(path=str(bad))

    def test_unknown_section(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[physics]\nB = 1\n")
        with pytest.raises(ConfigError, match=r"\[physics\]"):
            load_config(path=str(ini), preset=1)

    def test_unknown_key_named(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[domain]\nshape = square\n")
        with pytest.raises(ConfigError, match="domain.shape"):
            load_config(path=str(ini), preset=1)

    @pytest.mark.parametrize(
        "text",
        [
            "[DEFAULT]\nB = 99\n",
            "[DEFAULT]\nB = 99\n\n[kinetics]\nC = 3.0\n",
            "[DEFAULT]\nB = 99\n\n[solver]\ntau = 0.01\n",
        ],
        ids=["alone", "with_kinetics", "with_solver"],
    )
    def test_default_section_rejected(self, tmp_path, text):
        # configparser would copy its keys into every other section
        ini = tmp_path / "run.ini"
        ini.write_text(text)
        with pytest.raises(ConfigError, match=r"\[DEFAULT\]"):
            load_config(path=str(ini), preset=1)

    def test_keys_are_case_sensitive(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[kinetics]\nb = 30.0\n")
        with pytest.raises(ConfigError, match="kinetics.b"):
            load_config(path=str(ini), preset=1)

    @pytest.mark.parametrize(
        "override,fragment",
        [
            ({"solver.tau": "abc"}, "solver.tau must be a number"),
            ({"solver.tau": "-0.1"}, "solver.tau must be positive"),
            ({"solver.T": "-1"}, "solver.T must be at least"),
            ({"kinetics.seed": "-1"}, "kinetics.seed must be an integer at least 0"),
            ({"kinetics.seed": "1.5"}, "kinetics.seed must be an integer"),
            ({"kinetics.shared_noise": "maybe"}, "kinetics.shared_noise must be a boolean"),
            ({"domain.kind": "torus"}, "domain.kind must be square or sphere"),
            ({"output.sample_stride": "0"}, "output.sample_stride must be an integer at least 1"),
            ({"kinetics.kappa": "-0.2"}, "kinetics.kappa must be at least"),
            (
                {"output.sample_stride": "10", "output.snapshot_stride": "15"},
                "output.snapshot_stride must be a multiple of sample_stride",
            ),
            ({"solver.T": "1e308"}, "solver.T / tau must be a finite number of steps"),
            ({"solver.tau": "1e-320"}, "solver.T / tau must be a finite number of steps"),
            ({"output.directory": " lead"}, "output.directory must not start"),
            ({"output.directory": "trail "}, "output.directory must not start"),
            ({"output.directory": "runs/a #b"}, "output.directory must not start"),
            ({"output.directory": "runs/a\t#b"}, "output.directory must not start"),
            ({"output.directory": "runs/a ;b"}, "output.directory must not start"),
            ({"output.directory": "two\nlines"}, "output.directory must not start"),
            ({"output.directory": "cr\rreturn"}, "output.directory must not start"),
            ({"domain.kind": "sphere", "domain.size": "-1"}, "domain.size must be positive"),
            ({"domain.size": "nan"}, "domain.size must be positive"),
            ({"domain.resolution": "0"}, "domain.resolution must be an integer at least 1"),
            (
                {"kinetics.amplitude": "-1"},
                "kinetics.amplitude must be at least 0 and a finite number",
            ),
            ({"kinetics.B": "inf"}, "kinetics.B must be a finite number"),
            ({"kinetics.d": "0"}, "kinetics.d must be positive"),
            ({"kinetics.rho": "-1"}, "kinetics.rho must be positive"),
            ({"solver.cg_tol": "0"}, "solver.cg_tol must be positive"),
            ({"solver.cg_maxiter": "0"}, "solver.cg_maxiter must be an integer at least 1"),
            (
                {"solver.min_triangle_area": "0"},
                "solver.min_triangle_area must be positive and a finite number",
            ),
            ({"solver.min_angle_deg": "-1"}, "solver.min_angle_deg must be at least 0"),
            (
                {"output.snapshot_stride": "-10"},
                "output.snapshot_stride must be an integer at least 0",
            ),
            ({"output.directory": ""}, "output.directory must not be empty"),
            ({"domain.size": "1e308"}, "domain.size must leave a finite default resolution"),
            (
                {"domain.kind": "sphere", "domain.size": "1e308"},
                "domain.size must leave a finite default resolution",
            ),
        ],
    )
    def test_bad_values_name_section_and_key(self, override, fragment):
        with pytest.raises(ConfigError, match=fragment.replace(".", r"\.")):
            load_config(preset=1, overrides=override)

    @pytest.mark.parametrize(
        "values",
        [
            {"snapshot_stride": 3}, {"directory": " x"}, {"sample_stride": 0},
            # a bool is not an integer: config.ini would record true, which reads back as none
            {"sample_stride": True}, {"sample_stride": 1, "snapshot_stride": True},
        ],
    )
    def test_output_config_checks_its_values(self, values):
        with pytest.raises(ValueError):
            OutputConfig(**values)

    def test_run_config_checks_its_kinetics(self):
        # library code that builds the types gets the checks a config file gets
        values = dict(
            domain=DomainSpec("sphere", 3.0), B=30.0, C=3.0, rho=2.0, kappa=0.2, d=20.0,
            amplitude=1e-4, seed=0, shared_noise=False,
            solver=SolverConfig(T=12.0), output=OutputConfig(),
        )
        assert RunConfig(**values) == load_config(preset=4)
        for field, bad in (
            ("rho", -1.0), ("B", float("nan")), ("d", 0.0), ("amplitude", -1.0),
            ("amplitude", math.inf), ("seed", -1), ("seed", True),
        ):
            with pytest.raises(ValueError, match=f"^{field} must"):
                RunConfig(**dict(values, **{field: bad}))

    @pytest.mark.parametrize(
        "missing,bad",
        [(key, {}) for key in REQUIRED]
        # every required key is found before any value is checked
        + [("kinetics.B", {"domain.size": "-5"}), ("solver.T", {"solver.tau": "-1"})],
        ids=[*REQUIRED, "kinetics.B-before-size", "solver.T-before-tau"],
    )
    def test_missing_required_key_named(self, tmp_path, missing, bad):
        entries = {k: v for k, v in dict(REQUIRED, **bad).items() if k != missing}
        with pytest.raises(ConfigError) as e:
            load_config(path=write_ini(tmp_path / "run.ini", entries))
        assert str(e.value) == f"missing required config value {missing}"

    @pytest.mark.parametrize(
        "missing,overrides",
        [("domain.kind", {"domain.size": "2.0"}), ("domain.size", {"domain.kind": "square"})],
    )
    def test_load_domain_names_missing_key(self, missing, overrides):
        with pytest.raises(ConfigError) as e:
            load_domain(overrides=overrides)
        assert str(e.value) == f"missing required config value {missing}"

    def test_bad_override_shape(self):
        with pytest.raises(ConfigError, match="section.key"):
            load_config(preset=1, overrides={"tau": "0.1"})
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(preset=1, overrides={"solver.step": "0.1"})


class TestDump:
    def test_dump_load_round_trip(self, tmp_path):
        # the text alone, without the preset, gives back an equal configuration
        path = tmp_path / "echo.ini"
        for preset in sorted(PRESETS):
            for overrides in (
                {},
                {"kinetics.seed": "7", "solver.tau": "0.005", "solver.min_triangle_area": "1e-9"},
                {"kinetics.kappa": 0.15, "output.write_obj": "true", "output.sample_stride": 5},
            ):
                cfg = load_config(preset=preset, overrides=overrides)
                path.write_text(dump_config(cfg))
                assert load_config(path=str(path)) == cfg, (preset, overrides)
            cfg = load_config(preset=preset, overrides={"solver.min_triangle_area": "1e-9"})
            numeric = [
                dotted for dotted in CONFIG_KEYS
                if isinstance(value_of(cfg, dotted), (int, float))
                and not isinstance(value_of(cfg, dotted), bool)
            ]
            assert len(numeric) == 17
            # numpy scalars, as a sweep over np.linspace gives them, write the same text
            as_numpy = cfg
            for dotted in numeric:
                value = value_of(cfg, dotted)
                as_numpy = with_value(
                    as_numpy, dotted,
                    np.int64(value) if isinstance(value, int) else np.float64(value),
                )
            assert dump_config(as_numpy) == dump_config(cfg)
            path.write_text(dump_config(as_numpy))
            assert load_config(path=str(path)) == as_numpy == cfg, preset
            # a bool is no number: config.ini would record true, which reads back as none
            for dotted in numeric:
                with pytest.raises(ValueError, match=f"^{dotted.split('.')[1]} must"):
                    with_value(cfg, dotted, True)
            # a numpy float of another precision would run in it, while config.ini
            # records the float64 decimal, so the rerun would differ
            for dotted in numeric:
                if isinstance(value_of(cfg, dotted), int):
                    continue
                for precision in (np.float32, np.float16, np.longdouble):
                    with pytest.raises(ValueError, match=f"^{dotted.split('.')[1]} must"):
                        with_value(cfg, dotted, precision(value_of(cfg, dotted)))

    @pytest.mark.parametrize("directory", ["runs/#1", "runs/a;b", "my runs/p 4", "a%b"])
    def test_directory_round_trips(self, tmp_path, directory):
        cfg = load_config(preset=1, overrides={"output.directory": directory})
        path = tmp_path / "config.ini"
        path.write_text(dump_config(cfg))
        assert load_config(path=str(path)).output.directory == directory

    def test_dump_is_deterministic(self):
        a = dump_config(load_config(preset=5))
        b = dump_config(load_config(preset=5))
        assert a == b
        assert a.startswith("[domain]\n")

    def test_dump_bytes(self):
        cfg = load_config(
            preset=4,
            overrides={
                "kinetics.kappa": "0.15", "kinetics.seed": "42",
                "kinetics.shared_noise": "true", "solver.tau": "0.005",
                "output.directory": "runs/p4", "output.sample_stride": "5",
                "output.snapshot_stride": "20", "output.write_obj": "true",
            },
        )
        expected = (
            "[domain]\n"
            "kind = sphere\n"
            "size = 3.0\n"
            "resolution = 4\n"
            "\n"
            "[kinetics]\n"
            "B = 30.0\n"
            "C = 3.0\n"
            "rho = 2.0\n"
            "kappa = 0.15\n"
            "d = 20.0\n"
            "amplitude = 0.0001\n"
            "seed = 42\n"
            "shared_noise = true\n"
            "\n"
            "[solver]\n"
            "tau = 0.005\n"
            "T = 12.0\n"
            "cg_tol = 1e-10\n"
            "cg_maxiter = 10000\n"
            "min_triangle_area = auto\n"
            "min_angle_deg = 0.5\n"
            "\n"
            "[output]\n"
            "directory = runs/p4\n"
            "sample_stride = 5\n"
            "snapshot_stride = 20\n"
            "write_obj = true\n"
        )
        assert dump_config(cfg) == expected
        cfg.solver = replace(cfg.solver, min_triangle_area=2.5e-9)
        assert dump_config(cfg) == expected.replace(
            "min_triangle_area = auto", "min_triangle_area = 2.5e-09"
        )
