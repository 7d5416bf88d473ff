"""Command line interface: subcommands, artifacts, and exit codes."""

import csv
import json
import os

import numpy as np
import pytest

from esdib import SurfaceMesh, read_vtk
from esdib.cli import main
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
        assert summary["preset"] == 1
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

    def test_solver_failure_exits_3(self, tmp_path):
        out = tmp_path / "artifacts"
        code = run_main(
            *quick_run_args(out, "--solver.cg_maxiter", "1", "--solver.cg_tol", "1e-15")
        )
        assert code == 3


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

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        assert run_main("run", "--config", str(tmp_path), "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert str(tmp_path) in err
        assert not (tmp_path / "x").exists()


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

    def test_mesh_requires_domain(self, tmp_path):
        assert run_main("mesh", "-o", str(tmp_path / "m.vtk")) == 2

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

    def test_stray_argument_rejected(self, capsys):
        assert run_main("verify", "--bogus") == 2
        assert "'--bogus'" in capsys.readouterr().err
