#!/usr/bin/env python3
"""esdib benchmark: three step-loop workloads, timed end to end and per module.

Run from the root of a checkout; the package is imported from that
checkout's ``src/`` and nowhere else::

    python3 bench/run.py --workload sheet_moving --seed 42 --seconds 40 --trace 0
    python3 bench/run.py --self-test        # tiny sizes; names checked against BENCHMARK.json
    python3 bench/run.py --write-reference  # re-record bench/reference.json at the reference seed

``--trace 0`` calls the untouched entry points (``esdib.stepper.run``, which
is ``esdib.run``, or ``esdib.cli.run_from_config``) and reports the end-to-end
metrics.  ``--trace 1`` times the same calls through the wrappers of
``tracing.py`` and reports the per-layer metrics.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``README.md`` beside
this file defines every metric and the output check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracing import TARGETS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE_FILE = BENCH / "reference.json"

#: Environment the benchmark process runs in (see pin_environment).
#: BLAS runs single-threaded: on a two-core machine shared with other
#: processes, threaded BLAS on 10k-long vectors both slowed the sheets and made
#: their timings swing with load.  One thread also keeps the final state
#: independent of the core count, since threaded reductions sum in another order.
#: glibc's dynamic mmap threshold left each process in one of several allocator
#: states (965 to 2177 page faults per sheet set-up), which alone moved set-up
#: time by a third between runs; fixed thresholds keep large arrays on the heap.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=268435456",
}

SETUP_PER_REP = 7
REFERENCE_SEED = 42
SUBSAMPLE = 256
#: Relative l2 error allowed on the subsampled final eta, theta and node
#: displacement at the reference seed.  Tightening cg_tol from 1e-10 to 1e-12
#: moves sheet_moving's eta by 4.1e-5 (and theta, displacement, the other
#: workloads by less), so a solver-tolerance change passes with a 25x margin;
#: another seed moves every field by O(1).
FIELD_RTOL = 1e-3
#: Relative error allowed on the final area at the reference seed; the same
#: cg_tol change moves it by 4.0e-7.
AREA_RTOL = 1e-5

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@dataclass(frozen=True)
class Workload:
    preset: int
    entry: str      # "run" (esdib.run) or "cli" (cli.run_from_config)
    overrides: dict  # config overrides at full size; the seed is added per run
    tiny: dict      # further overrides for the self-test


_STEP_LOOP = {"solver.tau": "0.01", "solver.T": "4"}
WORKLOADS = {
    "sheet_moving": Workload(
        1, "run",
        {**_STEP_LOOP, "kinetics.kappa": "0.2", "output.sample_stride": "10"},
        {"domain.resolution": "6", "solver.T": "0.05"},
    ),
    "sheet_frozen": Workload(
        1, "run",
        {**_STEP_LOOP, "kinetics.kappa": "0", "output.sample_stride": "10"},
        {"domain.resolution": "6", "solver.T": "0.05"},
    ),
    "sphere_artifacts": Workload(
        4, "cli",
        {**_STEP_LOOP, "kinetics.kappa": "0.2", "output.sample_stride": "1",
         "output.snapshot_stride": "5", "output.write_obj": "true"},
        {"domain.resolution": "1", "solver.T": "0.05"},
    ),
}

END_TO_END_UNITS = {"ms_per_step": "ms", "setup_s": "s", "peak_rss_mb": "MiB"}

#: per-layer metric -> unit; a metric is computed from the span its name
#: starts with (up to the first "_") unless SPAN_OF says otherwise
LAYER_UNITS = {
    "mesh.quality_ms": "ms/step",
    "mesh.quality_calls": "1/step",
    "mesh.normals_ms": "ms/step",
    "mesh.move_ms": "ms/step",
    "assembly.mass_ms": "ms/step",
    "assembly.stiffness_ms": "ms/step",
    "assembly.stiffness_calls": "1/step",
    "assembly.stiffness_nnz": "count",
    "assembly.pattern_ms": "ms/call",
    "meshgen.build_ms": "ms/call",
    "kinetics.init_ms": "ms/call",
    "config.load_ms": "ms/call",
    "kinetics.eval_ms": "ms/step",
    "stepper.cg_ms": "ms/step",
    "stepper.cg_iters_eta_mean": "1/solve",
    "stepper.cg_iters_eta_max": "1/solve",
    "stepper.cg_iters_theta_mean": "1/solve",
    "stepper.cg_iters_theta_max": "1/solve",
    "stepper.cg_us_per_iter": "us",
    "stepper.cg_matvec_bytes": "B/matvec",
    "stepper.unattributed_ms": "ms/step",
    "diagnostics.record_ms": "ms/step",
    "diagnostics.csv_ms": "ms/step",
    "vtkio.snapshot_ms": "ms/step",
    "vtkio.snapshot_bytes": "B",
    "vtkio.write_mb_per_s": "MB/s",
    "vtkio.obj_ms": "ms/step",
    "cli.self_ms": "ms/step",
    "trace.overhead_frac": "ratio",
}
SPAN_OF = {
    "stepper.cg_iters_eta_mean": "stepper.cg.iterations",
    "stepper.cg_iters_eta_max": "stepper.cg.iterations",
    "stepper.cg_iters_theta_mean": "stepper.cg.iterations",
    "stepper.cg_iters_theta_max": "stepper.cg.iterations",
    "stepper.cg_us_per_iter": "stepper.cg.iterations",
    "stepper.unattributed_ms": "stepper.run",
    "vtkio.write_mb_per_s": "vtkio.snapshot",
    "cli.self_ms": "cli.run_from_config",
    "trace.overhead_frac": None,
}


def span_of(metric: str) -> str | None:
    return SPAN_OF.get(metric, metric.split("_")[0])


def expected_spans(w: Workload, moving: bool) -> set[str]:
    """Spans that must record at least one call on this workload."""
    spans = {
        "config.load", "meshgen.build", "kinetics.init", "stepper.run",
        "assembly.pattern", "assembly.mass", "assembly.stiffness",
        "kinetics.eval", "stepper.cg", "mesh.quality", "diagnostics.record",
    }
    if moving:
        spans |= {"mesh.normals", "mesh.move"}
    if w.entry == "cli":
        spans |= {"cli.run_from_config", "vtkio.snapshot", "vtkio.obj", "diagnostics.csv"}
    return spans


# --------------------------------------------------------------------------
# running one workload


def pin_environment():
    """Re-execute this script once with PINNED_ENV set.

    The variables must be in place before the process starts: glibc reads its
    tunables at start-up and OpenBLAS its thread count when numpy loads it.
    """
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])


def import_esdib():
    """Import esdib, numpy and scipy from this checkout."""
    if not (SRC / "esdib" / "__init__.py").is_file():
        raise SystemExit(f"bench: no esdib sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import esdib
    import esdib.cli
    import numpy
    import scipy

    if Path(esdib.__file__).resolve().parent != SRC / "esdib":
        raise SystemExit(f"bench: esdib was imported from {esdib.__file__}, not {SRC}")
    return esdib, numpy, scipy


@dataclass
class Inputs:
    cfg: object
    params: object
    state: object


@dataclass
class Outcome:
    seconds: float
    steps: int
    problems: list
    digest: str = ""
    macro: dict | None = None
    fields: dict | None = None   # final eta, theta, nodes


def build_inputs(esdib, w: Workload, overrides: dict, span) -> Inputs:
    """Everything the entry call needs, built the way ``run_from_config`` builds it."""
    with span("config.load"):
        cfg = esdib.load_config(preset=w.preset, overrides=overrides)
    with span("meshgen.build"):
        mesh = esdib.build_domain(cfg.domain)
    params = cfg.kinetics_params()
    with span("kinetics.init"):
        fields = esdib.initial_condition(
            mesh, params, amplitude=cfg.amplitude, seed=cfg.seed,
            shared_noise=cfg.shared_noise,
        )
    state = esdib.SimState(t=0.0, mesh=mesh, eta=fields.eta, theta=fields.theta)
    return Inputs(cfg, params, state)


def _null_span(name):
    return nullcontext()


def run_entry(esdib, np, w: Workload, inputs: Inputs) -> Outcome:
    """One timed entry call; the outputs are read back for the check."""
    n_steps = inputs.cfg.solver.n_steps
    if w.entry == "run":
        t0 = perf_counter()
        final, series = esdib.stepper.run(
            inputs.state, inputs.params, inputs.cfg.solver,
            stride=inputs.cfg.output.sample_stride,
        )
        seconds = perf_counter() - t0
        problems = [f"stopped: {series.stop_reason}"] if series.stopped else []
        steps = final.step_index
        fields = {"eta": final.eta, "theta": final.theta, "nodes": final.mesh.nodes}
        area = float(series.areas[-1])
        digest = hashlib.sha256(
            b"".join(np.ascontiguousarray(a).tobytes() for a in fields.values())
        ).hexdigest()
    else:
        out_dir = Path(inputs.cfg.output.directory)
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = perf_counter()
        status, _ = esdib.cli.run_from_config(inputs.cfg)
        seconds = perf_counter() - t0
        problems = [f"cli exit status {status}"] if status != 0 else []
        summary = json.loads((out_dir / "summary.json").read_text())
        steps = summary["steps_taken"]
        area = summary["final_area"]
        nodes, _, point_data = esdib.read_vtk(str(out_dir / "final.vtk"))
        fields = {"eta": point_data["eta"], "theta": point_data["theta"], "nodes": nodes}
        artifacts = sorted(p for p in out_dir.rglob("*") if p.is_file())
        n_snapshots = sum(p.parent.name == "snapshots" for p in artifacts)
        want = n_steps // inputs.cfg.output.snapshot_stride + 1
        if n_snapshots != want:
            problems.append(f"{n_snapshots} snapshots written, expected {want}")
        rows = len((out_dir / "diagnostics.csv").read_text().splitlines())
        if rows != n_steps + 2:
            problems.append(f"diagnostics.csv has {rows} lines, expected {n_steps + 2}")
        if not (out_dir / "final.obj").is_file():
            problems.append("final.obj not written")
        h = hashlib.sha256()
        for p in artifacts:
            h.update(str(p.relative_to(out_dir)).encode() + b"\0" + p.read_bytes())
            # flush now, so that writeback of this repetition's files does
            # not compete with the next timed repetition
            fd = os.open(p, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        digest = h.hexdigest()
    if steps != n_steps:
        problems.append(f"completed {steps} of {n_steps} steps")
    for name, a in fields.items():
        if not np.isfinite(a).all():
            problems.append(f"non-finite final {name}")
    macro = {
        "area": area,
        "eta_mean": float(fields["eta"].mean()),
        "eta_std": float(fields["eta"].std()),
        "theta_mean": float(fields["theta"].mean()),
    }
    return Outcome(seconds, steps, problems, digest, macro, fields)


def fingerprint(np, outcome: Outcome, initial_nodes) -> dict:
    """Evenly spaced subsample of the final fields, stored as the reference."""
    f = outcome.fields
    idx = np.linspace(0, len(f["eta"]) - 1, SUBSAMPLE).round().astype(int)
    return {
        "steps": outcome.steps,
        "area": outcome.macro["area"],
        "eta": f["eta"][idx].tolist(),
        "theta": f["theta"][idx].tolist(),
        "displacement": (f["nodes"] - initial_nodes)[idx].ravel().tolist(),
    }


def check(np, name: str, outcome: Outcome, reference: dict, seed: int, initial_nodes) -> list:
    """Problems with one full-size outcome beyond those found while reading it."""
    problems = []
    for key, (lo, hi) in reference["bands"][name].items():
        value = outcome.macro[key]
        if not lo <= value <= hi:
            problems.append(f"{key} = {value:.6g} outside the band [{lo}, {hi}]")
    if seed == REFERENCE_SEED and name in reference["fingerprints"]:
        ref = reference["fingerprints"][name]
        got = fingerprint(np, outcome, initial_nodes)
        if got["steps"] != ref["steps"]:
            problems.append(f"steps {got['steps']} != reference {ref['steps']}")
        if abs(got["area"] - ref["area"]) > AREA_RTOL * ref["area"]:
            problems.append(f"area {got['area']!r} differs from reference {ref['area']!r}")
        for key in ("eta", "theta", "displacement"):
            a, b = np.asarray(got[key]), np.asarray(ref[key])
            scale = np.linalg.norm(b)
            err = np.linalg.norm(a - b) / scale if scale > 0 else np.linalg.norm(a)
            if not err <= (FIELD_RTOL if scale > 0 else 0.0):
                problems.append(f"{key} differs from reference by {err:.3e} (relative l2)")
    return problems


def repeat(seconds: float, min_reps: int, one_rep) -> list:
    """Call ``one_rep(i)`` at least ``min_reps`` times, and more while the next
    one is predicted to end within ``seconds`` of the start."""
    t0 = perf_counter()
    results = []
    while True:
        results.append(one_rep(len(results)))
        elapsed = perf_counter() - t0
        if len(results) >= min_reps and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure(esdib, np, name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Run one workload for about ``seconds`` and return the result object."""
    w = WORKLOADS[name]
    reference = json.loads(REFERENCE_FILE.read_text())
    work = Path(tempfile.mkdtemp(prefix="run-", dir=_workdir()))
    overrides = {**w.overrides, **(w.tiny if tiny else {}), "kinetics.seed": str(seed),
                 "output.directory": str(work / "out")}
    setup_times = []

    def timed_setup():
        t0 = perf_counter()
        inputs = build_inputs(esdib, w, overrides, _null_span)
        setup_times.append(perf_counter() - t0)
        return inputs

    try:
        first = timed_setup()
        initial_nodes = first.state.mesh.nodes.copy()
        moving = first.params.kappa != 0.0
        tracer = Tracer()

        def one_rep(i):
            traced = trace and (i in (1, 2) or (i > 2 and i % 2 == 0))
            try:
                # set-up is timed between repetitions, so that its median
                # samples the same stretch of time as the step loop's
                for _ in range(SETUP_PER_REP):
                    inputs = timed_setup()
                if not traced:
                    return "untraced", run_entry(esdib, np, w, inputs), None
                tracer.take()
                inputs = build_inputs(esdib, w, overrides, tracer.span)
                setup_record = tracer.take()
                with tracer.installed(esdib):
                    outcome = run_entry(esdib, np, w, inputs)
                return "traced", outcome, (setup_record, tracer.take(), list(tracer.missing))
            except Exception:
                traceback.print_exc()
                return ("traced" if traced else "untraced"), Outcome(0.0, 0, ["raised"]), None

        reps = repeat(seconds, 3 if trace else 2, one_rep)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [o for _, o, _ in reps]
    if not tiny:
        for o in outcomes:
            if o.macro is not None:
                o.problems += check(np, name, o, reference, seed, initial_nodes)
    digests = {o.digest for o in outcomes if o.digest}
    if len(digests) > 1:
        for o in outcomes:
            o.problems.append("final-state hash differs between repetitions")
    failed = sum(bool(o.problems) for o in outcomes)
    for i, o in enumerate(outcomes):
        for p in o.problems:
            print(f"check failed on repetition {i}: {p}")

    timed = [(kind, o, rec) for kind, o, rec in reps if o.steps]
    plain = [1e3 * o.seconds / o.steps for kind, o, _ in timed if kind == "untraced"]
    if not plain:
        raise SystemExit(f"bench: every untraced repetition of {name} raised")
    q1, med, q3 = quartiles(plain)
    print(f"workload {name}  seed {seed}  repetitions {len(reps)}  steps {outcomes[0].steps}")
    print(f"  ms_per_step    median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  n {len(plain)}  ms")
    print("  per repetition " + " ".join(f"{k[0]}:{1e3 * o.seconds / o.steps:.3f}" for k, o, _ in timed))
    problem = None
    if not trace:
        s1, smed, s3 = quartiles(setup_times)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"  setup_s        median {smed:.6f}  q1 {s1:.6f}  q3 {s3:.6f}  n {len(setup_times)}  s")
        print(f"  peak_rss_mb    {rss:.1f}  MiB (ru_maxrss of this process)")
        print(f"  failed_frac    {failed}/{len(reps)} = {failed / len(reps):.3f}  ratio")
        values = {"ms_per_step": med, "setup_s": smed, "peak_rss_mb": rss}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        traced_reps = [(o, rec) for kind, o, rec in timed if kind == "traced"]
        metrics, problem = layer_metrics(w, moving, traced_reps, med)
        if problem:
            print(f"check failed: {problem}")
    return {"correct": failed == 0 and problem is None, "attempted": len(reps),
            "failed": failed, "metrics": metrics}


def _workdir() -> Path:
    path = BENCH / "_work"
    path.mkdir(exist_ok=True)
    return path


# --------------------------------------------------------------------------
# per-layer metrics from the traced repetitions


def layer_metrics(w: Workload, moving: bool, traced_reps, untraced_ms: float):
    """Per-layer metrics (medians over traced repetitions) and a problem, if any.

    Counts must repeat exactly between traced repetitions, and the self times
    of all spans in the entry call must add up to the entry call's duration.
    """
    if len(traced_reps) < 2:
        return {}, "fewer than two traced repetitions completed"
    entry_span = "cli.run_from_config" if w.entry == "cli" else "stepper.run"
    per_rep = []
    signatures = []
    for outcome, (setup, entry, missing) in traced_reps:
        spans = entry["spans"]
        total = spans[entry_span].total
        attributed = sum(s.self_time for s in spans.values())
        if abs(attributed - total) > 1e-9 * total:
            return {}, f"span self times add to {attributed!r} s, entry call took {total!r} s"
        per_rep.append(_one_rep_layers(outcome, setup, entry))
        signatures.append((
            {k: s.calls for k, s in spans.items()}, entry["cg_iters"],
            entry["snapshot_bytes"], entry["stiffness_nnz"], outcome.steps,
        ))
    if any(sig != signatures[0] for sig in signatures[1:]):
        return {}, "call counts, CG iterations, snapshot bytes or nnz differ between traced repetitions"

    traced_ms = statistics.median(1e3 * o.seconds / o.steps for o, _ in traced_reps)
    for values in per_rep:
        values["trace.overhead_frac"] = (traced_ms - untraced_ms) / untraced_ms
    setup, entry, missing = traced_reps[0][1]
    called = {k for record in (setup, entry) for k, s in record["spans"].items() if s.calls}
    uncalled = sorted(expected_spans(w, moving) - called)
    lost = set(uncalled) | {TARGETS.get(path, path) for path in missing}
    if missing or uncalled:
        print(f"  trace coverage: missing names {missing}; expected spans never called {uncalled}")
    metrics = {}
    entry_ms = statistics.median(v["_entry_ms"] for v in per_rep)
    for metric, unit in LAYER_UNITS.items():
        if span_of(metric) in lost:
            print(f"  {metric:28s} missing")
            continue
        value = statistics.median(v[metric] for v in per_rep)
        metrics[metric] = {"value": value, "unit": unit}
        share = f"  {100 * value / entry_ms:5.1f}% of the step" if unit == "ms/step" else ""
        print(f"  {metric:28s} {value:14.6g} {unit}{share}")
    return metrics, None


def _one_rep_layers(outcome: Outcome, setup: dict, entry: dict) -> dict:
    steps = outcome.steps
    spans = entry["spans"]

    def self_ms(span):
        s = spans.get(span)
        return 1e3 * s.self_time / steps if s else 0.0

    def calls(span):
        s = spans.get(span)
        return s.calls / steps if s else 0.0

    def per_call_ms(record, span):
        s = record["spans"].get(span)
        return 1e3 * s.total / s.calls if s and s.calls else 0.0

    iters = entry["cg_iters"]
    eta_iters, theta_iters = iters[0::2] or [0], iters[1::2] or [0]
    cg = spans.get("stepper.cg")
    snap = spans.get("vtkio.snapshot")
    snap_bytes = entry["snapshot_bytes"]
    return {
        "_entry_ms": 1e3 * outcome.seconds / steps,
        "mesh.quality_ms": self_ms("mesh.quality"),
        "mesh.quality_calls": calls("mesh.quality"),
        "mesh.normals_ms": self_ms("mesh.normals"),
        "mesh.move_ms": self_ms("mesh.move"),
        "assembly.mass_ms": self_ms("assembly.mass"),
        "assembly.stiffness_ms": self_ms("assembly.stiffness"),
        "assembly.stiffness_calls": calls("assembly.stiffness"),
        "assembly.stiffness_nnz": max(entry["stiffness_nnz"], default=0),
        "assembly.pattern_ms": per_call_ms(entry, "assembly.pattern"),
        "meshgen.build_ms": per_call_ms(setup, "meshgen.build"),
        "kinetics.init_ms": per_call_ms(setup, "kinetics.init"),
        "config.load_ms": per_call_ms(setup, "config.load"),
        "kinetics.eval_ms": self_ms("kinetics.eval"),
        "stepper.cg_ms": self_ms("stepper.cg"),
        "stepper.cg_iters_eta_mean": statistics.fmean(eta_iters),
        "stepper.cg_iters_eta_max": max(eta_iters),
        "stepper.cg_iters_theta_mean": statistics.fmean(theta_iters),
        "stepper.cg_iters_theta_max": max(theta_iters),
        "stepper.cg_us_per_iter": 1e6 * cg.total / sum(iters) if cg and sum(iters) else 0.0,
        "stepper.cg_matvec_bytes": max(entry["cg_matvec_bytes"], default=0),
        "stepper.unattributed_ms": self_ms("stepper.run"),
        "diagnostics.record_ms": self_ms("diagnostics.record"),
        "diagnostics.csv_ms": self_ms("diagnostics.csv"),
        "vtkio.snapshot_ms": self_ms("vtkio.snapshot"),
        "vtkio.snapshot_bytes": statistics.fmean(snap_bytes) if snap_bytes else 0.0,
        "vtkio.write_mb_per_s": sum(snap_bytes) / snap.total / 1e6 if snap else 0.0,
        "vtkio.obj_ms": self_ms("vtkio.obj"),
        "cli.self_ms": self_ms("cli.run_from_config"),
    }


# --------------------------------------------------------------------------
# environment record, self-test, reference, command line


def environment(np, scipy) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "pinned_env": {var: os.environ.get(var) for var in PINNED_ENV},
        "limits": "CPUs are not pinned and the clock frequency is not fixed (the "
                  "sandbox allows neither); other processes on the machine may "
                  "share the cores during a run",
    }


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git repository)"


def self_test(esdib, np) -> int:
    """Tiny run of every workload in both modes; names must match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    declared = {w["name"] for w in spec["workloads"]}
    if declared != set(WORKLOADS):
        problems.append(f"workloads {sorted(WORKLOADS)} != BENCHMARK.json {sorted(declared)}")
    for key, wanted in (("end_to_end", END_TO_END_UNITS), ("per_layer", LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != wanted:
            problems.append(f"{key} in BENCHMARK.json {listed} != benchmark {wanted}")
    for name in WORKLOADS:
        for trace, wanted in ((False, END_TO_END_UNITS), (True, LAYER_UNITS)):
            result = measure(esdib, np, name, REFERENCE_SEED, 0.0, trace, tiny=True)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: output check failed")
            if got != wanted:
                problems.append(f"{name} trace={int(trace)}: printed {sorted(got)}, declared {sorted(wanted)}")
    for label in [*WORKLOADS, *END_TO_END_UNITS, *LAYER_UNITS]:
        if not NAME_RE.match(label):
            problems.append(f"name {label!r} has characters outside [A-Za-z0-9_.-]")
    for p in problems:
        print(f"self-test: {p}")
    print(f"self-test: {'passed' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


def write_reference(esdib, np) -> int:
    """Re-record the seed-42 fingerprints; the bands are kept as they are."""
    reference = json.loads(REFERENCE_FILE.read_text())
    work = Path(tempfile.mkdtemp(prefix="ref-", dir=_workdir()))
    try:
        for name, w in WORKLOADS.items():
            overrides = {**w.overrides, "kinetics.seed": str(REFERENCE_SEED),
                         "output.directory": str(work / "out")}
            inputs = build_inputs(esdib, w, overrides, _null_span)
            outcome = run_entry(esdib, np, w, inputs)
            if outcome.problems:
                print(f"{name}: {outcome.problems}")
                return 1
            reference["fingerprints"][name] = fingerprint(np, outcome, inputs.state.mesh.nodes)
            print(f"{name}: recorded, macro {outcome.macro}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE_FILE.write_text(
        "{\n" + ",\n".join(
            f' "{part}": {{\n' + ",\n".join(f'  "{k}": {json.dumps(v)}' for k, v in reference[part].items()) + "\n }"
            for part in ("bands", "fingerprints")
        ) + "\n}\n"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    pin_environment()
    esdib, np, scipy = import_esdib()
    if args.self_test:
        return self_test(esdib, np)
    if args.write_reference:
        return write_reference(esdib, np)
    if args.workload is None:
        parser.error("--workload is required")
    print("env " + json.dumps(environment(np, scipy), sort_keys=True))
    result = measure(esdib, np, args.workload, args.seed, args.seconds, bool(args.trace), tiny=False)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
