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

ProbeNet.max_nearest_distance evaluates the 1-Lipschitz d(y) = dist(y, X)
sparingly: on a cell within r of probe point p, d lies in [d(p) - r, d(p) + r].
Over cubical cells built with the net, coarse to fine, each level evaluates d
at a probe point near the center of each child of a kept cell, raises L to the
largest value (a probe value) and keeps cells with d(p) + r >= L, as the
maximizer's cells are; the kept finest cells' points give the maximum, bit for
bit with allowances for rounded distances (1e-12) and cells (1e-9 of scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    """Probe points, their certified mesh, and cells over them (see above)."""
    domain: Domain
    points: np.ndarray
    certified_mesh: float
    cells: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.certified_mesh <= 0:
            raise ValueError("certified mesh must be positive")
        # finest cells 8 meshes wide: at N=1e5 (sandwich-large, 2 CPUs) 6 is as fast, 4
        # raised cube2's peak RSS 734 -> 938 MB and 12-16 slowed sphere2 queries 3-7x
        object.__setattr__(self, "cells", _cell_tree(self.points, 8 * self.certified_mesh))

    def max_nearest_distance(self, index: SpatialIndex) -> float:
        """index.nearest_distances(points).max(), from the cells that can hold it."""
        levels, order, starts = self.cells
        lower, keep = -math.inf, None
        for reps, r, parent in levels:
            ids = np.arange(len(reps)) if keep is None else np.flatnonzero(keep[parent])
            d = index.nearest_distances(self.points[reps[ids]])
            lower = max(lower, float(d.max()))
            keep = np.bincount(ids[(d + r[ids]) * (1 + 1e-12) >= lower], minlength=len(reps)) > 0
        sizes, first = np.diff(starts)[keep], starts[:-1][keep]
        at = np.arange(sizes.sum()) + np.repeat(first - np.cumsum(sizes) + sizes, sizes)
        return float(index.nearest_distances(self.points[order[at]]).max())


def _cell_tree(points: np.ndarray, side: float) -> tuple[list, np.ndarray, np.ndarray]:
    """(levels, order, starts) over < 2**31 points: coarse to fine, a grid that
    halves the cell count is a level, with per cell a probe point, its reach to
    the cell's points, and the parent cell. Finest cell k holds
    points[order[starts[k]:starts[k + 1]]], once per chunk of points it meets."""
    dim, lo, hi = points.shape[1], float(points.min()), float(points.max())
    bits = 16  # 2**bits probe points are sorted into cells at a time
    side = max(side, (hi - lo) / 2 ** (45 / dim))  # cubes over [lo, hi]^dim; keys < 2**46
    ext = int((hi - lo) * (1.0 / side)) + 1
    strides = float(ext) ** np.arange(dim - 1, -1, -1)
    order, keys, starts = np.empty(len(points), dtype=np.int32), [], []
    for s in range(0, len(points), 1 << bits):
        chunk = points[s:s + (1 << bits)]
        packed = (np.floor((chunk - lo) * (1.0 / side)) @ strides).astype(np.int64)
        packed = packed << bits | np.arange(len(chunk))  # sort (cell key, position) pairs
        packed.sort()
        order[s:s + len(chunk)] = (packed & ((1 << bits) - 1)) + s
        packed >>= bits
        first = np.flatnonzero(np.diff(packed, prepend=-1))
        keys.append(packed[first])
        starts.append(first + s)
    starts = np.concatenate([*starts, [len(points)]])
    reps, up = order[(starts[:-1] + starts[1:]) // 2], np.arange(len(starts) - 1)
    key, levels, starts = np.concatenate(keys), [], starts.astype(np.int32)
    slack = 1e-9 * (side + max(abs(lo), abs(hi)))  # rounded cells and centers
    while True:
        grid = np.stack(np.unravel_index(key, (ext,) * dim), axis=1)
        if not levels or 2 * len(key) <= len(up):  # sparse nets (Cantor's) shrink slowly
            if levels:  # a coarse cell takes a child's probe point
                levels[-1][2], reps = up, reps[np.unique(up, return_index=True)[1]]
            gap = np.linalg.norm(points[reps] - lo - (grid + 0.5) * side, axis=1)
            levels.append([reps, gap + (side * math.sqrt(dim) / 2.0 + slack), None])
            up = np.arange(len(key))
        if len(key) <= 64:
            return levels[::-1], order, starts
        ext, side = (ext + 1) // 2, 2.0 * side
        key, inv = np.unique(np.ravel_multi_index(tuple((grid // 2).T), (ext,) * dim),
                             return_inverse=True)
        up = inv.ravel()[up]


# ---------------------------------------------------------------------------
# Spatial index (exact nearest neighbor)
# ---------------------------------------------------------------------------


class SpatialIndex:
    """Exact Euclidean nearest-neighbor index over a fixed point set (a k-d tree)."""

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("need a non-empty (n, dim) point array")
        self._tree = cKDTree(points)

    def nearest_distances(self, queries: np.ndarray, workers: int = -1) -> np.ndarray:
        """Vectorized exact nearest distances for a batch of query points."""
        return self._tree.query(np.asarray(queries, dtype=float), workers=workers)[0]


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
    for chunk in np.array_split(pts, range(1 << 16, len(pts), 1 << 16)):
        chunk /= np.linalg.norm(chunk, axis=1, keepdims=True)  # no full-size temporaries
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
