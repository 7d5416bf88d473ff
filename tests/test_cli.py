"""Command line interface: subcommands, artifacts, and exit codes."""

import csv
import json
import os
import re

import numpy as np
import pytest

import esdib.cli
import esdib.verify
from esdib import SurfaceMesh, read_vtk
from esdib.cli import main
from esdib.config import CONFIG_KEYS, dump_config, load_config, load_domain
from esdib.diagnostics import CSV_COLUMNS


def run_main(*argv):
    return main(list(argv))


def quick_run_args(out_dir, *extra):
    return (
        "run", "--preset", "1", "--out", str(out_dir),
        "--domain.resolution", "16", "--solver.T", "0.1",
        *extra,
    )


class TestRunCommand:
    def test_successful_run_writes_artifacts(self, tmp_path):
        out = tmp_path / "artifacts"
        assert run_main(*quick_run_args(out)) == 0
        assert (out / "config.ini").exists()
        assert (out / "diagnostics.csv").exists()
        assert (out / "final.vtk").exists()
        assert (out / "summary.json").exists()
        assert not (out / "final.obj").exists()

        with open(out / "diagnostics.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) > 1

        nodes, triangles, data = read_vtk(out / "final.vtk")
        assert set(data) == {"eta", "theta"}
        assert nodes.shape == (17 * 17, 3)

        summary = json.loads((out / "summary.json").read_text())
        assert "preset" not in summary  # config.ini records the values, not the id
        assert summary["domain"] == {"kind": "square", "size": 20.0, "resolution": 16}
        assert summary["steps_taken"] == 10
        assert summary["final_time"] == pytest.approx(0.1, rel=1e-12)
        assert summary["stopped"] is False
        assert summary["stop_reason"] is None

    def test_config_echo_reproduces_run_settings(self, tmp_path):
        out = tmp_path / "artifacts"
        assert run_main(*quick_run_args(out)) == 0
        text = (out / "config.ini").read_text()
        assert "[domain]" in text
        assert "resolution = 16" in text
        assert "T = 0.1" in text

    def test_obj_on_request(self, tmp_path):
        out = tmp_path / "artifacts"
        assert run_main(*quick_run_args(out, "--output.write_obj", "true")) == 0
        assert (out / "final.obj").exists()

    def test_snapshot_series(self, tmp_path):
        out = tmp_path / "artifacts"
        code = run_main(
            *quick_run_args(
                out, "--output.sample_stride", "1", "--output.snapshot_stride", "5"
            )
        )
        assert code == 0
        snaps = sorted(os.listdir(out / "snapshots"))
        assert snaps == ["step_000000.vtk", "step_000005.vtk", "step_000010.vtk"]

    def test_frozen_surface_keeps_area_constant(self, tmp_path):
        out = tmp_path / "artifacts"
        code = run_main(*quick_run_args(out, "--kinetics.kappa", "0"))
        assert code == 0
        with open(out / "diagnostics.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        areas = np.array([float(r["area"]) for r in rows])
        assert np.max(np.abs(areas - areas[0])) <= 1e-12 * areas[0]

    def test_own_config_ini_reruns_it(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_main(
            "run", "--preset", "4", "--out", str(first), "--domain.resolution", "1",
            "--solver.T", "0.1", "--output.sample_stride", "2",
            "--output.snapshot_stride", "4", "--output.write_obj", "true",
        ) == 0
        # no --preset: the file alone
        assert run_main("run", "--config", str(first / "config.ini"), "--out", str(second)) == 0
        names = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
        assert names == sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
        assert len(names) == 8  # config, CSV, summary, final VTK and OBJ, 3 snapshots
        for name in names:
            a, b = (first / name).read_bytes(), (second / name).read_bytes()
            if name.name == "config.ini":  # only the directory line may differ
                assert f"directory = {second}\n".encode() in b
                a, b = (re.sub(rb"(?m)^directory = .*\n", b"", text) for text in (a, b))
            assert a == b, name

    def test_rerun_into_the_same_directory_keeps_no_earlier_file(self, tmp_path):
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        domain = ("run", "--preset", "4", "--domain.resolution", "1")
        assert run_main(
            *domain, "--out", str(reused), "--solver.T", "0.2", "--output.sample_stride", "5",
            "--output.snapshot_stride", "5", "--output.write_obj", "true",
        ) == 0
        assert (reused / "final.obj").exists() and len(list(reused.rglob("step_*.vtk"))) == 5
        for out in (reused, fresh):
            assert run_main(*domain, "--out", str(out), "--solver.T", "0.05") == 0
        names = sorted(p.relative_to(fresh) for p in fresh.rglob("*") if p.is_file())
        assert names == sorted(p.relative_to(reused) for p in reused.rglob("*") if p.is_file())
        assert len(names) == 4  # config, CSV, summary, final VTK: no OBJ, no snapshot
        for name in names:
            a, b = (reused / name).read_bytes(), (fresh / name).read_bytes()
            if name.name == "config.ini":  # only the directory line may differ
                a, b = (re.sub(rb"(?m)^directory = .*\n", b"", text) for text in (a, b))
            assert a == b, name

    def test_override_equals_form(self, tmp_path):
        out = tmp_path / "artifacts"
        assert run_main(
            "run", "--preset", "1", "--out", str(out),
            "--domain.resolution=12", "--solver.T=0.05",
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["domain"]["resolution"] == 12
        assert summary["steps_taken"] == 5

    def test_degeneracy_stop_exits_4_with_artifacts(self, tmp_path):
        out = tmp_path / "artifacts"
        code = run_main(*quick_run_args(out, "--solver.min_triangle_area", "1e9"))
        assert code == 4
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stopped"] is True
        assert "min area" in summary["stop_reason"]
        assert (out / "diagnostics.csv").exists()
        assert (out / "final.vtk").exists()

    def test_solver_failure_exits_3(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        code = run_main(
            *quick_run_args(out, "--solver.cg_maxiter", "1", "--solver.cg_tol", "1e-15")
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "esdib: solver failure:" in captured.err
        assert "artifacts written" not in captured.out
        assert os.listdir(out) == ["config.ini"]


class TestUsageErrors:
    def test_no_arguments(self):
        assert run_main() == 2

    def test_run_without_source(self, tmp_path):
        assert run_main("run", "--out", str(tmp_path / "x")) == 2

    def test_unknown_preset(self, tmp_path):
        assert run_main("run", "--preset", "9", "--out", str(tmp_path / "x")) == 2

    def test_missing_config_file(self, tmp_path):
        assert run_main(
            "run", "--config", str(tmp_path / "missing.ini"),
            "--out", str(tmp_path / "x"),
        ) == 2

    def test_config_without_final_time(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[domain]\nkind = square\nsize = 2.0\n\n[kinetics]\nB = 30.0\nC = 3.0\n"
        )
        out = tmp_path / "x"
        assert run_main("run", "--config", str(ini), "--out", str(out)) == 2
        assert "missing required config value solver.T" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_override_key(self, tmp_path):
        assert run_main(*quick_run_args(tmp_path / "x", "--solver.step", "5")) == 2

    def test_override_missing_value(self, tmp_path):
        assert run_main(*quick_run_args(tmp_path / "x", "--solver.tau")) == 2

    def test_stray_positional(self, tmp_path):
        assert run_main(*quick_run_args(tmp_path / "x", "extra")) == 2

    def test_unwritable_artifact_directory(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        out = blocker / "sub"
        assert run_main(*quick_run_args(out)) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert str(out) in err
        assert blocker.read_text() == "not a directory\n"

    def test_late_artifact_write_failure(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        (out / "final.vtk").mkdir(parents=True)  # the run succeeds, its last writes fail
        assert run_main(*quick_run_args(out)) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert str(out / "final.vtk") in err
        assert (out / "diagnostics.csv").exists()

    def test_mesh_output_under_a_regular_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        target = blocker / "sub.vtk"
        assert run_main("mesh", "--preset", "4", "-o", str(target)) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert str(target) in err
        assert blocker.read_text() == "not a directory\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--preset", "1", "--pre", "4"),
            ("run", "--conf", "{ini}"),
            ("run", "--preset", "1", "--domain.res", "8"),
        ],
    )
    def test_abbreviated_option_rejected(self, tmp_path, capsys, argv):
        ini = tmp_path / "run.ini"
        ini.write_text("[solver]\nT = 0.1\n")
        out = tmp_path / "x"
        argv = [a.format(ini=ini) for a in argv]
        assert run_main(*argv, "--out", str(out)) == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides",
        [("--domain.resolution", "1", "--solver.T", "1e308"), ("--solver.tau", "1e-320")],
    )
    def test_step_count_that_overflows(self, tmp_path, capsys, overrides):
        out = tmp_path / "x"
        assert run_main("run", "--preset", "4", *overrides, "--out", str(out)) == 2
        assert "solver.T / tau must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--preset", "4", "--domain.size", "1e308", "--out"),
            ("run", "--preset", "1", "--domain.size", "1e308", "--out"),
            ("mesh", "--kind", "square", "--size", "1e308", "-o"),
            ("mesh", "--kind", "sphere", "--size", "1e308", "-o"),
        ],
    )
    def test_size_without_a_finite_default_resolution(self, tmp_path, capsys, argv):
        out = tmp_path / "x.vtk"
        assert run_main(*argv, str(out)) == 2
        assert "domain.size must leave a finite default resolution" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["a #b", "a\t;b", "trail ", "two\nlines"])
    def test_directory_config_ini_cannot_record(self, tmp_path, capsys, name):
        out = tmp_path / name
        assert run_main(*quick_run_args(out)) == 2
        assert "output.directory must not" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        assert run_main("run", "--config", str(tmp_path), "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert str(tmp_path) in err
        assert not (tmp_path / "x").exists()


class TestOverrideSpellings:
    """Every command-line spelling resolves as the same overrides passed to the loader."""

    @pytest.fixture
    def resolved(self, monkeypatch):
        seen = []

        def capture(cfg):
            seen.append(cfg)
            return 0, cfg.output.directory

        monkeypatch.setattr(esdib.cli, "run_from_config", capture)
        return seen

    @pytest.mark.parametrize(
        "argv,overrides",
        [
            (("--solver.tau", "0.005"), {"solver.tau": "0.005"}),
            (("--solver.tau=0.005",), {"solver.tau": "0.005"}),
            (("--kinetics.B", "-5"), {"kinetics.B": "-5"}),
            (("--kinetics.B=-1e2",), {"kinetics.B": "-1e2"}),
            (("--solver.tau", "0.005", "--solver.tau", "0.002"), {"solver.tau": "0.002"}),
            (
                ("--domain.resolution=12", "--solver.T", "0.05", "--output.write_obj", "true"),
                {"domain.resolution": "12", "solver.T": "0.05", "output.write_obj": "true"},
            ),
            (("--out", "A", "--output.directory", "B"), {"output.directory": "A"}),
            (("--output.directory", "B", "--out", "A"), {"output.directory": "A"}),
            (("--output.directory", "B"), {"output.directory": "B"}),
        ],
    )
    def test_run_spelling(self, resolved, argv, overrides):
        assert run_main("run", "--preset", "1", *argv) == 0
        expected = load_config(preset=1, overrides=overrides)
        assert [dump_config(cfg) for cfg in resolved] == [dump_config(expected)]

    @pytest.mark.parametrize(
        "argv,preset,overrides",
        [
            (("--preset", "1", "--size", "10"), 1, {"domain.size": "10"}),
            (
                ("--kind", "sphere", "--size", "2", "--resolution=2"),
                None,
                {"domain.kind": "sphere", "domain.size": "2", "domain.resolution": "2"},
            ),
        ],
    )
    def test_mesh_spelling(self, tmp_path, monkeypatch, argv, preset, overrides):
        seen = []
        original = esdib.cli.build_domain

        def capture(spec):
            seen.append(spec)
            return original(spec)

        monkeypatch.setattr(esdib.cli, "build_domain", capture)
        assert run_main("mesh", *argv, "-o", str(tmp_path / "m.vtk")) == 0
        assert seen == [load_domain(preset, overrides)]

    def test_run_help_names_every_key_in_table_order(self, capsys):
        assert run_main("run", "--help") == 0
        named = re.findall(r"--(\w+\.\w+)", capsys.readouterr().out)
        assert list(dict.fromkeys(named)) == list(CONFIG_KEYS)


class TestMeshCommand:
    def test_explicit_domain(self, tmp_path):
        out = tmp_path / "sphere.vtk"
        code = run_main(
            "mesh", "--kind", "sphere", "--size", "2.0", "--resolution", "2",
            "-o", str(out),
        )
        assert code == 0
        nodes, triangles, _ = read_vtk(out)
        assert nodes.shape[0] == 162
        assert SurfaceMesh(nodes, triangles).is_closed()

    def test_preset_domain_with_coarser_resolution(self, tmp_path):
        out = tmp_path / "square.vtk"
        code = run_main("mesh", "--preset", "1", "--resolution", "10", "-o", str(out))
        assert code == 0
        nodes, _, _ = read_vtk(out)
        assert nodes.shape[0] == 121
        assert nodes[:, 0].max() == pytest.approx(20.0, rel=1e-15)

    def test_obj_side_output(self, tmp_path):
        vtk_path = tmp_path / "m.vtk"
        obj_path = tmp_path / "m.obj"
        code = run_main(
            "mesh", "--kind", "square", "--size", "1.0", "--resolution", "2",
            "-o", str(vtk_path), "--obj", str(obj_path),
        )
        assert code == 0
        text = obj_path.read_text()
        assert len([l for l in text.splitlines() if l.startswith("v ")]) == 9
        assert len([l for l in text.splitlines() if l.startswith("f ")]) == 8

    def test_preset_size_override_recomputes_resolution(self, tmp_path):
        # same rule as `esdib run --preset 1 --domain.size 10`: 10 / 0.2 = 50 divisions
        out = tmp_path / "square.vtk"
        assert run_main("mesh", "--preset", "1", "--size", "10", "-o", str(out)) == 0
        nodes, _, _ = read_vtk(out)
        assert nodes.shape[0] == 51 * 51
        assert nodes[:, 0].max() == pytest.approx(10.0, rel=1e-15)

    def test_preset_kind_override(self, tmp_path):
        out = tmp_path / "square.vtk"
        assert run_main(
            "mesh", "--preset", "4", "--kind", "square", "-o", str(out)
        ) == 0
        nodes, triangles, _ = read_vtk(out)
        assert not SurfaceMesh(nodes, triangles).is_closed()

    def test_mesh_requires_domain(self, tmp_path, capsys):
        assert run_main("mesh", "-o", str(tmp_path / "m.vtk")) == 2
        assert "missing required config value domain.kind" in capsys.readouterr().err

    def test_mesh_unknown_preset(self, tmp_path):
        assert run_main("mesh", "--preset", "0", "-o", str(tmp_path / "m.vtk")) == 2


class TestVerifyCommand:
    def test_verification_battery_passes(self, capsys):
        assert run_main("verify") == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith(("ok  ", "FAIL"))]
        assert len(lines) >= 7
        assert all(l.startswith("ok  ") for l in lines)
        assert "checks passed" in out

    def test_a_crashing_check_fails_and_the_others_still_run(self, monkeypatch):
        def crash():
            raise RuntimeError("boom")

        checks = list(esdib.verify._CHECKS)
        checks[2] = crash
        monkeypatch.setattr(esdib.verify, "_CHECKS", tuple(checks))
        results = esdib.verify.run_verification()
        assert len(results) == len(checks)
        assert results[2].name == "crash" and not results[2].passed
        assert results[2].detail.startswith("raised") and "boom" in results[2].detail
        assert all(r.passed for i, r in enumerate(results) if i != 2)

    def test_stray_argument_rejected(self, capsys):
        assert run_main("verify", "--bogus") == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
