"""Command line driver.

Three subcommands::

    esdib run    (--preset N | --config FILE) [--out DIR] [--section.key value ...]
    esdib mesh   [--preset N] [--kind KIND] [--size S] [--resolution R] -o FILE [--obj FILE]
    esdib verify

``run`` writes an artifact directory: the resolved configuration, the
diagnostics CSV, the final state as VTK (plus OBJ on request), periodic
snapshots when enabled, and a JSON summary.  Any ``section.key`` from the
config schema can be overridden directly on the command line, for example
``--solver.tau 0.005`` or ``--domain.resolution 64``.
``mesh`` resolves its domain as ``run`` resolves ``[domain]``: ``--kind``,
``--size`` and ``--resolution`` override the preset's domain.

Exit codes: 0 success, 2 configuration or usage error (any file or directory
that cannot be read or written included), 3 solver failure, 4 degeneracy stop
(artifacts up to the stop time are still written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import RunConfig, dump_config, load_config, load_domain
from .errors import ConfigError, EsdibError
from .kinetics import initial_condition
from .meshgen import build_domain
from .stepper import SimState, run
from .vtkio import export_mesh_snapshot, write_obj, write_vtk

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_DEGENERACY = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esdib",
        description="reaction-diffusion electrodeposition on evolving surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a simulation and write artifacts")
    p_run.add_argument("--preset", type=int, help="canonical experiment id (1-6)")
    p_run.add_argument("--config", help="INI config file")
    p_run.add_argument("--out", help="artifact directory (overrides output.directory)")

    p_mesh = sub.add_parser("mesh", help="generate a domain mesh and export it")
    p_mesh.add_argument("--preset", type=int, help="take the domain of this preset")
    p_mesh.add_argument("--kind", choices=("square", "sphere"))
    p_mesh.add_argument("--size", type=float, help="edge length or radius")
    p_mesh.add_argument("--resolution", type=int)
    p_mesh.add_argument("-o", "--output", required=True, help="VTK output path")
    p_mesh.add_argument("--obj", help="also write geometry as OBJ to this path")

    sub.add_parser("verify", help="run the built-in verification battery")
    return parser


def _collect_overrides(extras: list[str]) -> dict[str, str]:
    """Turn leftover ``--section.key value`` (or ``--section.key=value``) pairs into a dict."""
    overrides: dict[str, str] = {}
    i = 0
    while i < len(extras):
        token = extras[i]
        if not token.startswith("--") or "." not in token:
            raise ConfigError(f"unrecognised argument {token!r}")
        body = token[2:]
        if "=" in body:
            dotted, value = body.split("=", 1)
            i += 1
        else:
            dotted = body
            if i + 1 >= len(extras):
                raise ConfigError(f"override {token!r} is missing a value")
            value = extras[i + 1]
            i += 2
        overrides[dotted] = value
    return overrides


def run_from_config(cfg: RunConfig) -> tuple[int, str]:
    """Execute one configured run and write its artifact directory.

    Returns the exit status and the artifact directory.  Solver failures
    exit 3; a degeneracy stop exits 4 with artifacts up to the stop time.
    """
    out_dir = cfg.output.directory
    snap_dir = os.path.join(out_dir, "snapshots")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.ini"), "w", newline="\n") as f:
        f.write(dump_config(cfg))
    if cfg.output.snapshot_stride > 0:
        os.makedirs(snap_dir, exist_ok=True)

    mesh = build_domain(cfg.domain)
    params = cfg.kinetics_params()
    fields = initial_condition(
        mesh, params, amplitude=cfg.amplitude, seed=cfg.seed,
        shared_noise=cfg.shared_noise,
    )
    state = SimState(t=0.0, mesh=mesh, eta=fields.eta, theta=fields.theta)

    observers = []
    if cfg.output.snapshot_stride > 0:
        stride = cfg.output.snapshot_stride

        def snapshot(s, mass):
            if s.step_index % stride == 0:
                export_mesh_snapshot(
                    s, os.path.join(snap_dir, f"step_{s.step_index:06d}.vtk")
                )

        observers.append(snapshot)

    try:
        final, series = run(
            state, params, cfg.solver,
            observers=observers, stride=cfg.output.sample_stride,
        )
    except EsdibError as e:
        print(f"esdib: solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER, out_dir

    series.to_csv(os.path.join(out_dir, "diagnostics.csv"))
    export_mesh_snapshot(final, os.path.join(out_dir, "final.vtk"))
    if cfg.output.write_obj:
        write_obj(os.path.join(out_dir, "final.obj"), final.mesh)

    areas = series.areas
    summary = {
        "preset": cfg.preset_id,
        "domain": {
            "kind": cfg.domain.kind,
            "size": cfg.domain.size,
            "resolution": cfg.domain.resolution,
        },
        "n_nodes": final.mesh.n_nodes,
        "n_triangles": final.mesh.n_triangles,
        "steps_taken": final.step_index,
        "final_time": final.t,
        "initial_area": float(areas[0]) if len(areas) else None,
        "final_area": float(areas[-1]) if len(areas) else None,
        "eta_range": [float(final.eta.min()), float(final.eta.max())],
        "theta_range": [float(final.theta.min()), float(final.theta.max())],
        "stopped": series.stopped,
        "stop_reason": series.stop_reason,
    }
    with open(os.path.join(out_dir, "summary.json"), "w", newline="\n") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")

    if series.stopped:
        print(f"esdib: {series.stop_reason}", file=sys.stderr)
        return EXIT_DEGENERACY, out_dir
    return EXIT_OK, out_dir


def _cmd_run(args, extras) -> int:
    overrides = _collect_overrides(extras)
    if args.preset is None and args.config is None:
        raise ConfigError("run needs --preset and/or --config")
    if args.out is not None:
        overrides["output.directory"] = args.out
    cfg = load_config(path=args.config, preset=args.preset, overrides=overrides)
    status, out_dir = run_from_config(cfg)
    print(f"artifacts written to {out_dir}")
    return status


def _cmd_mesh(args, extras) -> int:
    if extras:
        raise ConfigError(f"unrecognised argument {extras[0]!r}")
    flags = {"kind": args.kind, "size": args.size, "resolution": args.resolution}
    spec = load_domain(
        args.preset,
        {f"domain.{key}": value for key, value in flags.items() if value is not None},
    )
    mesh = build_domain(spec)
    write_vtk(args.output, mesh, title=f"{spec.kind} size {spec.size}")
    if args.obj:
        write_obj(args.obj, mesh)
    print(
        f"{spec.kind} mesh: {mesh.n_nodes} nodes, {mesh.n_triangles} triangles "
        f"-> {args.output}"
    )
    return EXIT_OK


def _cmd_verify(extras) -> int:
    from .verify import run_verification

    if extras:
        raise ConfigError(f"unrecognised argument {extras[0]!r}")
    results = run_verification()
    for r in results:
        mark = "ok  " if r.passed else "FAIL"
        print(f"{mark} {r.name}: {r.detail}")
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_SOLVER


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args, extras)
        if args.command == "mesh":
            return _cmd_mesh(args, extras)
        return _cmd_verify(extras)
    except (ConfigError, OSError) as e:  # an OSError names the file it failed on
        print(f"esdib: config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except EsdibError as e:
        print(f"esdib: solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
