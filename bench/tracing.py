"""Timing wrappers that attribute an esdib run to the package's modules from outside.

A traced run rebinds the names that ``esdib.stepper`` and ``esdib.cli`` look
up at call time (module globals such as ``stepper.mesh_quality``, and two
methods of ``DiagnosticsSeries``) to wrappers that record a span per call.
Nothing under ``src/`` is edited, and :meth:`Tracer.installed` puts every
original back on exit, so untraced repetitions in the same process run the
untouched code.

A span's *self* time is its duration minus the time covered by spans opened
inside it, so the self times of all spans opened during one entry call add up
to that call's duration.
"""

from __future__ import annotations

import inspect
import os
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

#: rebound name (relative to the ``esdib`` package) -> span it is recorded under
TARGETS = {
    "stepper.compute_node_normals": "mesh.normals",
    "stepper.displace_nodes": "mesh.move",
    "stepper.mesh_quality": "mesh.quality",
    "stepper.assemble_lumped_mass": "assembly.mass",
    "stepper.assemble_stiffness": "assembly.stiffness",
    "stepper.StiffnessPattern": "assembly.pattern",
    "stepper.eval_f": "kinetics.eval",
    "stepper.eval_g": "kinetics.eval",
    "stepper.solve_spd": "stepper.cg",
    "stepper.run": "stepper.run",
    "stepper.DiagnosticsSeries.record": "diagnostics.record",
    "stepper.DiagnosticsSeries.to_csv": "diagnostics.csv",
    "cli.run": "stepper.run",
    "cli.build_domain": "meshgen.build",
    "cli.initial_condition": "kinetics.init",
    "cli.export_mesh_snapshot": "vtkio.snapshot",
    "cli.write_obj": "vtkio.obj",
    "cli.run_from_config": "cli.run_from_config",
}


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


def _empty_record() -> dict:
    return {
        "spans": {},
        "cg_iters": [],          # per solve, in call order (eta, theta, eta, ...)
        "cg_matvec_bytes": [],   # per solve, computed from nnz and n
        "snapshot_bytes": [],    # per snapshot file written
        "stiffness_nnz": [],     # per assembled stiffness matrix
    }


class Tracer:
    """Span and count recorder for one traced repetition at a time."""

    def __init__(self):
        self._open: list[float] = []  # per open span: seconds covered by its children
        self.missing: list[str] = []
        self.record = _empty_record()

    def take(self) -> dict:
        """Return everything recorded since the last call and start afresh."""
        taken, self.record = self.record, _empty_record()
        return taken

    @contextmanager
    def span(self, name: str):
        self._open.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            dt = perf_counter() - t0
            children = self._open.pop()
            if self._open:
                self._open[-1] += dt
            stats = self.record["spans"].setdefault(name, SpanStats())
            stats.calls += 1
            stats.total += dt
            stats.self_time += dt - children

    @contextmanager
    def installed(self, esdib):
        """Rebind every name in :data:`TARGETS` that exists; restore them on exit.

        Names that no longer exist are listed in ``self.missing`` instead, and
        so is ``stepper.cg.iterations`` when the solver takes no ``callback``.
        """
        restore = []
        self.missing = []
        try:
            for path, span_name in TARGETS.items():
                *owner_path, attr = path.split(".")
                owner = esdib
                for part in owner_path:
                    owner = getattr(owner, part, None)
                if owner is None or not hasattr(owner, attr):
                    self.missing.append(path)
                    continue
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(original, span_name))
                restore.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def _wrap(self, fn, span_name: str):
        if span_name == "stepper.cg":
            return self._wrap_solver(fn)
        after = {
            "assembly.stiffness": lambda args, result: self.record["stiffness_nnz"].append(int(result.nnz)),
            "vtkio.snapshot": lambda args, result: self.record["snapshot_bytes"].append(os.path.getsize(args[1])),
        }.get(span_name)

        def traced(*args, **kwargs):
            with self.span(span_name):
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
            return result

        return traced

    def _wrap_solver(self, fn):
        """Time each solve and count its iterations through the solver's ``callback``."""
        counting = "callback" in inspect.signature(fn).parameters
        if not counting:
            self.missing.append("stepper.cg.iterations")

        def traced(A, rhs, *args, **kwargs):
            iterations = 0
            if counting:
                outer = kwargs.pop("callback", None)

                def count(x):
                    nonlocal iterations
                    iterations += 1
                    if outer is not None:
                        outer(x)

                kwargs["callback"] = count
            with self.span("stepper.cg"):
                result = fn(A, rhs, *args, **kwargs)
            if counting:
                self.record["cg_iters"].append(iterations)
            n = A.shape[0]
            self.record["cg_matvec_bytes"].append(
                A.nnz * (A.data.itemsize + A.indices.itemsize)
                + (n + 1) * A.indptr.itemsize
                + 2 * n * rhs.itemsize
            )
            return result

        return traced
