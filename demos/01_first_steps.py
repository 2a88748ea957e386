# Coordinates of a point inside a spherical triangle, five different ways.
#
# The octant corner triangle (e1, e2, e3) is the "hello world" instance:
# by symmetry the coordinates of the cap center are 1/sqrt(3) each, and a
# triangle has unique spherical coordinates, so every construction must
# land on the same numbers.

import numpy as np

import sphbary as sb

triangle = sb.octant_triangle()
print("polygon: n =", triangle.n, "| convex =", triangle.convex)
print("hemisphere witness:", np.round(triangle.witness, 6))

x = sb.normalize([1.0, 1.0, 1.0])
print("\nevaluation point:", np.round(x, 6), "->", sb.locate_point(triangle, x))

print("\nmethod            values                                  sum")
for method in sb.METHODS:
    cv = sb.evaluate(triangle, x, method)
    print(f"{method:14s}  {np.round(cv.values, 12)}   {cv.total:.12f}")
print("analytic:       1/sqrt(3) =", 1 / np.sqrt(3))

# The defining property: the values reproduce the point as a combination
# of the vertices.  The sum is >= 1 rather than == 1 on the sphere.
cv = sb.spherical_coords(triangle, x, "MV")
print("\nlinear precision residual:", sb.reconstruction_residual(cv.values, triangle.vertices, x))

# Boundary behavior comes for free: vertices are Kronecker, edge points
# decompose over the two edge endpoints.
for probe in ([1, 0, 0], [1, 1, 0]):
    cv = sb.spherical_coords(triangle, sb.normalize(probe), "MV")
    print(f"psi at {probe}: {np.round(cv.values, 12)}  ({cv.location})")

# Under the hood for interior points: the polyhedron over the polygon,
# its two apexes being the point and its antipode, evaluated at the origin.
q = sb.build_q(triangle, x)
phi = sb.coords_at_origin(q, "MV")
print("\npolyhedron: ", len(q.vertices), "vertices,", len(q.faces), "faces (the fan)")
print("3D coordinates of the origin:", np.round(phi, 6))
print("quotient phi[:3] / (phi[4] - phi[3]):", np.round(phi[:3] / (phi[4] - phi[3]), 12))
