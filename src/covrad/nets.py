"""Probe nets with certified mesh bounds, and exact nearest-neighbor search.

A probe net is a finite point set whose certified mesh delta guarantees that
every domain point is within delta of some net point; suprema over the domain
can then be sandwiched to within delta. Mesh proofs per kind:

* Interval / Polyline / ArcsineInterval: arclength grid of step 2*delta
  (chord <= arc on segments, equality on straight pieces).
* Cube d: axis grid of step 2*delta/sqrt(d); half cell diagonal is delta.
* Sphere d: grids on all faces of the circumscribed cube surface, centrally
  projected x -> x/|x|. The projection is 1-Lipschitz on {|x| >= 1}, and every
  sphere point is the projection of a cube-surface point, so the face mesh
  carries over unchanged.
* Ball d: interior axis grid certifying 3*delta/4 plus a boundary sphere net
  at delta/4. A point farther than 3*delta/4 from the boundary has its whole
  grid cell inside the ball; a point closer than that reaches a boundary net
  point through its radial projection (3*delta/4 + delta/4 = delta).
* Polyhedron3: interior grid certifying delta/2 away from the boundary, plus
  triangle lattices on (fan-triangulated) faces at mesh delta/2; points near
  the boundary reach a face net through their boundary projection.
* Cantor depth D: both endpoints of all depth-k cylinders with 3^-k <= delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import UnsupportedDomainError
from .spaces import (
    ArcsineInterval,
    Ball,
    Cantor,
    Cube,
    Domain,
    IntervalUniform,
    Polyhedron3,
    Polyline,
    Sphere,
)


@dataclass(frozen=True)
class ProbeNet:
    domain: Domain
    points: np.ndarray
    certified_mesh: float

    def __post_init__(self):
        if self.certified_mesh <= 0:
            raise ValueError("certified mesh must be positive")


# ---------------------------------------------------------------------------
# Spatial index (exact nearest neighbor)
# ---------------------------------------------------------------------------


class SpatialIndex:
    """Exact Euclidean nearest-neighbor index over a fixed point set.

    Backed by a k-d tree; queries return exact minimum distances.
    """

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("need a non-empty (n, dim) point array")
        self._tree = cKDTree(points)

    def nearest_distances(self, queries: np.ndarray, workers: int = -1) -> np.ndarray:
        """Vectorized exact nearest distances for a batch of query points."""
        dist, _ = self._tree.query(np.asarray(queries, dtype=float), workers=workers)
        return dist


def build_index(points: np.ndarray) -> SpatialIndex:
    return SpatialIndex(points)


# ---------------------------------------------------------------------------
# Probe net construction
# ---------------------------------------------------------------------------


def _segment_grid(a: np.ndarray, b: np.ndarray, mesh: float) -> np.ndarray:
    length = float(np.linalg.norm(b - a))
    n_steps = max(1, math.ceil(length / (2.0 * mesh)))
    t = np.linspace(0.0, 1.0, n_steps + 1)
    return a + t[:, None] * (b - a)


def _axis_grid(low: float, high: float, step: float) -> np.ndarray:
    n_steps = max(1, math.ceil((high - low) / step))
    return np.linspace(low, high, n_steps + 1)


def _grid(axes) -> np.ndarray:
    """Product of 1-D axes in "ij" order (last axis fastest), one point per row."""
    out = np.empty([len(axis) for axis in axes] + [len(axes)])
    for k, axis in enumerate(axes):
        out[..., k] = axis.reshape([-1 if i == k else 1 for i in range(len(axes))])
    return out.reshape(-1, len(axes))


def _cube_grid(d: int, mesh: float, low: float = 0.0, high: float = 1.0) -> np.ndarray:
    step = 2.0 * mesh / math.sqrt(d)
    return _grid([_axis_grid(low, high, step)] * d)


def _sphere_net(d: int, mesh: float) -> np.ndarray:
    # grids on the faces of the cube [-1,1]^(d+1) surface, projected radially;
    # face (ax, side) holds the face grid in the other axes and -1/+1 at ax
    amb = d + 1
    face_grid = _cube_grid(d, mesh, -1.0, 1.0)
    faces = np.empty((amb, 2, len(face_grid), amb))
    for ax in range(amb):
        faces[ax, :, :, :ax] = face_grid[:, :ax]
        faces[ax, :, :, ax + 1:] = face_grid[:, ax:]
        faces[ax, :, :, ax] = [[-1.0], [1.0]]
    pts = faces.reshape(-1, amb)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts


def _ball_net(d: int, mesh: float) -> np.ndarray:
    interior_mesh = 0.75 * mesh
    grid = _cube_grid(d, interior_mesh, -1.0, 1.0)
    norms = np.linalg.norm(grid, axis=1)
    inside = grid[norms <= 1.0]
    near = grid[(norms > 1.0) & (norms <= 1.0 + interior_mesh)]
    if near.size:
        near = near / np.linalg.norm(near, axis=1, keepdims=True)
    boundary = _sphere_net(d - 1, mesh / 4.0) if d >= 2 else np.array([[-1.0], [1.0]])
    return np.concatenate([inside, near, boundary])


def _triangle_lattice(a, b, c, mesh: float) -> np.ndarray:
    # subdivide so every subtriangle has diameter <= mesh
    diam = max(np.linalg.norm(b - a), np.linalg.norm(c - b), np.linalg.norm(a - c))
    k = max(1, math.ceil(diam / mesh))
    # steps (i, j - i) along b - a and c - a, for i <= j <= k in row order
    i, j = np.triu_indices(k + 1)
    return a + (i / k)[:, None] * (b - a) + ((j - i) / k)[:, None] * (c - a)


def _polyhedron_net(domain: Polyhedron3, mesh: float) -> np.ndarray:
    half = mesh / 2.0
    lo = domain.vertices.min(axis=0)
    hi = domain.vertices.max(axis=0)
    step = 2.0 * half / math.sqrt(3.0)
    grid = _grid([_axis_grid(lo[i], hi[i], step) for i in range(3)])
    inside = grid[domain.contains_many(grid)]
    pieces = [inside] if inside.size else []
    for face in domain.faces:
        verts = domain.vertices[list(face)]
        # fan triangulation; assumes convex (or star-shaped) face polygons
        for i in range(1, len(verts) - 1):
            pieces.append(_triangle_lattice(verts[0], verts[i], verts[i + 1], half))
    pieces.append(domain.vertices)
    return np.concatenate(pieces)


def _cantor_net(domain: Cantor, mesh: float) -> tuple[np.ndarray, float]:
    k = min(domain.depth, max(1, math.ceil(-math.log(mesh) / math.log(3.0))))
    lefts = np.array([0.0])
    for depth in range(1, k + 1):
        lefts = np.concatenate([lefts, lefts + 2.0 * 3.0**-depth])
    cyl = 3.0**-k
    pts = np.concatenate([lefts, lefts + cyl])
    return np.unique(pts).reshape(-1, 1), cyl


def build_probe_net(domain: Domain, target_mesh: float) -> ProbeNet:
    """Probe net with certified mesh <= target_mesh for the given domain."""
    if target_mesh <= 0:
        raise ValueError("target mesh must be positive")
    if target_mesh >= domain.diameter:
        raise ValueError("target mesh must be below the domain diameter")

    mesh = target_mesh
    if isinstance(domain, IntervalUniform):
        pts = _segment_grid(np.array([0.0]), np.array([1.0]), mesh)
    elif isinstance(domain, ArcsineInterval):
        pts = _segment_grid(np.array([-1.0]), np.array([1.0]), mesh)
    elif isinstance(domain, Polyline):
        pts = np.concatenate(
            [
                _segment_grid(domain.vertices[i], domain.vertices[i + 1], mesh)
                for i in range(len(domain.vertices) - 1)
            ]
        )
    elif isinstance(domain, Cube):
        pts = _cube_grid(domain.d, mesh)
    elif isinstance(domain, Sphere):
        pts = _sphere_net(domain.d, mesh)
    elif isinstance(domain, Ball):
        pts = _ball_net(domain.d, mesh)
    elif isinstance(domain, Polyhedron3):
        pts = _polyhedron_net(domain, mesh)
    elif isinstance(domain, Cantor):
        pts, mesh = _cantor_net(domain, mesh)
    else:
        raise UnsupportedDomainError(f"no probe net construction for {domain!r}")

    pts = np.ascontiguousarray(pts, dtype=float)
    pts.setflags(write=False)
    return ProbeNet(domain=domain, points=pts, certified_mesh=mesh)
