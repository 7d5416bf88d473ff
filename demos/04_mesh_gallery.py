"""Domain generators and mesh quality at a glance.

Builds the two supported domain families over a range of resolutions,
tabulates node counts, surface area accuracy, and the worst-element quality
metrics, and exports one example of each as VTK and OBJ.

Output: demos/output/mesh_gallery/
Runtime: a few seconds.
"""

import math
import os

from esdib import (
    DomainSpec, build_domain, max_aspect_ratio, mesh_quality, surface_area, write_obj, write_vtk,
)

out_dir = os.path.join(os.path.dirname(__file__), "output", "mesh_gallery")
os.makedirs(out_dir, exist_ok=True)

print(f"{'domain':<22} {'nodes':>7} {'tris':>7} {'area err':>10} "
      f"{'min angle':>10} {'aspect':>8}")

for kind, size, resolutions in (
    ("square", 10.0, (10, 25, 50)),
    ("sphere", 2.0, (1, 2, 3, 4)),
):
    exact = size * size if kind == "square" else 4.0 * math.pi * size * size
    for resolution in resolutions:
        mesh = build_domain(DomainSpec(kind, size, resolution))
        q = mesh_quality(mesh)
        err = abs(surface_area(mesh) - exact) / exact
        label = f"{kind} {size:g} / {resolution}"
        print(f"{label:<22} {mesh.n_nodes:>7} {mesh.n_triangles:>7} "
              f"{err:>10.2e} {q.min_angle_deg:>9.2f}° {max_aspect_ratio(mesh):>8.3f}")

# export one of each family for viewers
square = build_domain(DomainSpec("square", 10.0, 25))
write_vtk(os.path.join(out_dir, "square.vtk"), square, title="square sheet")
sphere = build_domain(DomainSpec("sphere", 2.0, 3))
write_vtk(os.path.join(out_dir, "sphere.vtk"), sphere, title="icosphere")
write_obj(os.path.join(out_dir, "sphere.obj"), sphere)
print(f"\nexports in {out_dir}")
