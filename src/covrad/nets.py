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

Pieces. A net is an ordered list of pieces, each the index grid of a few 1-D
axes ("ij" order, last axis fastest), a map from grid coordinates to points
and an optional keep-mask on grid coordinates; the net's points are the maps
of the kept grid points, piece by piece. A cube is one identity piece; a
sphere has one piece per cube face, the face grid with -1 or +1 inserted and
projected radially; a ball has its interior grid kept where |x| <= 1, the same
grid kept where 1 < |x| <= 1 + 3*delta/4 and clipped to the ball, and its
boundary sphere's pieces; a polyhedron has its bounding-box grid kept by
contains_many, the (i, j >= i) index lattice of each face triangle under an
affine map, and its vertices on an index axis; a segment is its t-axis under
an affine map; Cantor's sorted endpoints are one axis.

Blocks. Each piece's grid is cut into blocks of about 8 certified meshes
(sizing the grid step by the map's Lipschitz bound on the whole piece), and
block sides double from level to level until a piece has at most 64 blocks;
blocks that cannot hold a kept point (a box outside the ball's band, beyond a
face plane of every tetrahedron of a polyhedron, or below a triangle's
diagonal) are left out. Built with the net from the axes alone,
each block has a representative (the image of its middle grid point), its
parent and a reach r >= the distance from the representative to the image of
any grid point of the block: the distance in the grid box from the middle
point to the farthest corner, times a Lipschitz bound of the map on the box,
plus 1e-9 of the coordinate scale for rounding. The bounds: 1 for the identity
and for clipping to the ball (a projection onto a convex set); 1/min|x| over
the box for the radial projection of a cube face, since
|x/|x| - y/|y|| <= |x - y|/sqrt(|x||y|) and |x| >= 1 there; the spectral norm
for affine maps; and the image diameter on an index axis, whose distinct
indices lie at least 1 apart.

The walk. d(y) = dist(y, X) is 1-Lipschitz, so d <= d(p) + r on a block with
representative p. ProbeNet.max_nearest_distance walks the levels coarse to
fine: each level evaluates d at the representatives of the children of kept
blocks, all pieces in one query, raises L to the largest value at a
representative the keep-mask keeps (a probe value, so L never passes the net's
maximum; a masked representative is no probe point, so it may prune but never
raise L) and keeps blocks with (d(p) + r)(1 + 1e-12) >= L, as the maximizer's
blocks are (1e-12 allows for rounded distances). One last query evaluates the
probe points of the kept finest blocks. Every probe point is computed by the
same row-wise arithmetic wherever it is generated, so this is the maximum over
the whole net bit for bit, and the net itself is never materialised unless
ProbeNet.points is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

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


def _one(lo, hi):
    return 1.0


def _identity(x):
    return x


@dataclass(frozen=True)
class _Piece:
    """Probe points fmap(x) for the grid coordinates x of the axes that keep(x)."""
    axes: tuple
    fmap: Callable = _identity   # (m, k) grid coordinates -> (m, dim) points
    lip: Callable = _one         # (lo, hi) grid-box corners -> Lipschitz bound of fmap
    keep: Callable | None = None  # (m, k) grid coordinates -> kept
    holds: Callable | None = None  # (lo, hi) -> False where no grid point is kept

    @property
    def shape(self) -> tuple:
        return tuple(len(axis) for axis in self.axes)

    def coords(self, idx: np.ndarray) -> np.ndarray:
        """Grid coordinates of (m, k) grid indices."""
        out = np.empty(idx.shape)
        for k, axis in enumerate(self.axes):
            out[:, k] = axis[idx[:, k]]
        return out

    def points(self, idx: np.ndarray) -> np.ndarray:
        x = self.coords(idx)
        return self.fmap(x if self.keep is None else x[self.keep(x)])


class _Level(NamedTuple):
    """One level of a piece's blocks."""
    reps: np.ndarray  # representative points
    reach: np.ndarray  # bounds on the distance from each to its block's points
    ok: np.ndarray | None  # representative kept by the piece's mask
    parent: np.ndarray | None  # parent's position in the next level; None at the top


@dataclass(frozen=True)
class _Blocks:
    """A piece's blocks: the first grid index of each finest block, their side,
    and the levels, finest first."""
    first: np.ndarray
    side: np.ndarray
    levels: list

    def grid_indices(self, kept: np.ndarray, shape) -> np.ndarray:
        """Grid indices of the kept finest blocks."""
        offsets = np.stack(np.unravel_index(np.arange(self.side.prod()), self.side), axis=1)
        idx = (self.first[kept][:, None, :] + offsets).reshape(-1, len(self.side))
        return idx[(idx < shape).all(axis=1)]


def _blocks(piece: _Piece, width: float) -> _Blocks:
    shape = np.array(piece.shape)
    ends = np.stack([[axis[0] for axis in piece.axes], [axis[-1] for axis in piece.axes]])
    lip = float(np.max(piece.lip(ends[:1], ends[1:])))
    step = np.array([np.diff(axis).min() if len(axis) > 1 else np.inf for axis in piece.axes])
    side = np.clip(np.round(width / (lip * step)), 1, shape).astype(np.int64)
    counts = -(-shape // side)
    first = np.stack(np.unravel_index(np.arange(counts.prod()), counts), axis=1) * side
    if piece.holds is not None:
        first = first[piece.holds(piece.coords(first),
                                  piece.coords(np.minimum(first + side, shape) - 1))]
    out, size = _Blocks(first, side, []), side
    while len(first):
        last = np.minimum(first + size, shape) - 1
        lo, hi, mid = piece.coords(first), piece.coords(last), piece.coords((first + last) // 2)
        reps = piece.fmap(mid)
        reach = piece.lip(lo, hi) * np.linalg.norm(np.maximum(mid - lo, hi - mid), axis=1)
        reach += 1e-9 * (reach + np.abs(reps).max())  # rounded coordinates and maps
        ok = None if piece.keep is None else piece.keep(mid)
        if len(first) <= 64:  # a top of 8 or 512 blocks walked no faster
            out.levels.append(_Level(reps, reach, ok, None))
            break
        size, counts = 2 * size, -(-shape // (2 * size))
        up = np.ravel_multi_index(tuple((first // size).T), counts)
        live = np.zeros(counts.prod(), dtype=bool)
        live[up] = True
        out.levels.append(_Level(reps, reach, ok, np.cumsum(live)[up] - 1))
        first = np.stack(np.unravel_index(np.flatnonzero(live), counts), axis=1) * size
    return out


@dataclass(frozen=True)
class ProbeNet:
    """Probe points, as pieces, with their certified mesh and blocks (see above)."""
    domain: Domain
    pieces: tuple = field(repr=False)
    certified_mesh: float
    cells: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.certified_mesh <= 0:
            raise ValueError("certified mesh must be positive")
        # finest blocks 8 meshes wide: at N=1e5 (sphere2, ball2, cube2; 2 CPUs) 6 and 12
        # were as fast per build and two trials, 4 built 3-6x slower, 16 walked sphere2 2x slower
        width = 8 * self.certified_mesh
        object.__setattr__(self, "cells", tuple(_blocks(p, width) for p in self.pieces))

    @cached_property
    def points(self) -> np.ndarray:
        """All probe points, piece by piece in grid order (built on first use)."""
        chunks = []
        for piece in self.pieces:
            size = math.prod(piece.shape)
            for start in range(0, size, 1 << 16):
                flat = np.arange(start, min(start + (1 << 16), size))
                chunks.append(piece.points(np.stack(np.unravel_index(flat, piece.shape), axis=1)))
        pts = np.concatenate(chunks)
        pts.setflags(write=False)
        return pts

    def max_nearest_distance(self, index: SpatialIndex) -> float:
        """index.nearest_distances(points).max(), from the blocks that can hold it."""
        lower, keep = -math.inf, [None] * len(self.cells)
        for level in range(max(len(c.levels) for c in self.cells) - 1, -1, -1):
            batch = []  # (piece, its level, the blocks evaluated)
            for p, cells in enumerate(self.cells):
                if level < len(cells.levels):
                    lev = cells.levels[level]
                    ids = (np.arange(len(lev.reach)) if keep[p] is None
                           else np.flatnonzero(keep[p][lev.parent]))
                    batch.append((p, lev, ids))
            d = index.nearest_distances(np.concatenate([lev.reps[ids] for _, lev, ids in batch]))
            parts = np.split(d, np.cumsum([len(ids) for _, _, ids in batch])[:-1])
            for (_, lev, ids), dp in zip(batch, parts):
                probe = dp if lev.ok is None else dp[lev.ok[ids]]
                if len(probe):
                    lower = max(lower, float(probe.max()))
            for (p, lev, ids), dp in zip(batch, parts):
                keep[p] = np.zeros(len(lev.reach), dtype=bool)
                keep[p][ids[(dp + lev.reach[ids]) * (1 + 1e-12) >= lower]] = True
        pts = [piece.points(cells.grid_indices(keep[p], piece.shape))
               for p, (piece, cells) in enumerate(zip(self.pieces, self.cells)) if cells.levels]
        return float(index.nearest_distances(np.concatenate(pts)).max())


# ---------------------------------------------------------------------------
# Spatial index (exact nearest neighbor)
# ---------------------------------------------------------------------------

# batches smaller than this are queried on one thread: on 2 CPUs starting the
# threads cost more than they saved below it (sweep in CHANGES.md)
_THREADS_FROM = 2048


class SpatialIndex:
    """Exact Euclidean nearest-neighbor index over a fixed point set (a k-d tree)."""

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("need a non-empty (n, dim) point array")
        self._tree = cKDTree(points)

    def nearest_distances(self, queries: np.ndarray) -> np.ndarray:
        """Vectorized exact nearest distances for a batch of query points."""
        queries = np.asarray(queries, dtype=float)
        return self._tree.query(queries, workers=1 if len(queries) < _THREADS_FROM else -1)[0]


def build_index(points: np.ndarray) -> SpatialIndex:
    return SpatialIndex(points)


# ---------------------------------------------------------------------------
# Probe net construction
# ---------------------------------------------------------------------------


def _segment(a: np.ndarray, b: np.ndarray, mesh: float) -> _Piece:
    length = float(np.linalg.norm(b - a))
    n_steps = max(1, math.ceil(length / (2.0 * mesh)))
    return _Piece((np.linspace(0.0, 1.0, n_steps + 1),), lambda t: a + t * (b - a),
                  lambda lo, hi: length)


def _axis_grid(low: float, high: float, step: float) -> np.ndarray:
    n_steps = max(1, math.ceil((high - low) / step))
    return np.linspace(low, high, n_steps + 1)


def _cube_axes(d: int, mesh: float, low: float = 0.0, high: float = 1.0) -> tuple:
    return (_axis_grid(low, high, 2.0 * mesh / math.sqrt(d)),) * d


def _box_norms(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest |x| over the boxes [lo, hi]."""
    near = np.maximum(np.maximum(lo, -hi), 0.0)
    return np.linalg.norm(near, axis=1), np.linalg.norm(np.maximum(-lo, hi), axis=1)


def _sphere_pieces(d: int, mesh: float) -> list:
    # grids on the faces of the cube [-1,1]^(d+1) surface, projected radially;
    # face (ax, side) holds the face grid in the other axes and -1/+1 at ax
    def face(ax, side):
        def fmap(x):
            pts = np.insert(x, ax, side, axis=1)
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            return pts
        return fmap

    def lip(lo, hi):  # |x| >= min over the box of sqrt(1 + |face coordinates|^2)
        return 1.0 / np.sqrt(1.0 + _box_norms(lo, hi)[0] ** 2)

    axes = _cube_axes(d, mesh, -1.0, 1.0)
    return [_Piece(axes, face(ax, side), lip) for ax in range(d + 1) for side in (-1.0, 1.0)]


def _band(low: float, high: float) -> dict:
    """keep and holds for the grid points with low < |x| <= high."""
    def keep(x):
        r = np.linalg.norm(x, axis=1)
        return (r > low) & (r <= high)

    def holds(lo, hi):  # 1e-9: rounded norms
        r_min, r_max = _box_norms(lo, hi)
        return (r_max > low - 1e-9) & (r_min <= high + 1e-9)

    return {"keep": keep, "holds": holds}


def _clip_to_ball(x):
    return x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1.0)


def _ball_pieces(d: int, mesh: float) -> list:
    interior_mesh = 0.75 * mesh
    axes = _cube_axes(d, interior_mesh, -1.0, 1.0)
    inside = _Piece(axes, **_band(-math.inf, 1.0))
    near = _Piece(axes, _clip_to_ball, **_band(1.0, 1.0 + interior_mesh))
    boundary = (_sphere_pieces(d - 1, mesh / 4.0) if d >= 2
                else [_Piece((np.array([-1.0, 1.0]),))])
    return [inside, near, *boundary]


def _triangle(a, b, c, mesh: float) -> _Piece:
    # subdivide so every subtriangle has diameter <= mesh
    diam = max(np.linalg.norm(b - a), np.linalg.norm(c - b), np.linalg.norm(a - c))
    k = max(1, math.ceil(diam / mesh))
    # steps (i, j - i) along b - a and c - a, for i <= j <= k in row order
    norm = float(np.linalg.norm(np.stack([b - c, c - a], axis=1) / k, 2))

    def fmap(x):
        i, j = x[:, 0], x[:, 1]
        return a + (i / k)[:, None] * (b - a) + ((j - i) / k)[:, None] * (c - a)

    return _Piece((np.arange(k + 1.0),) * 2, fmap, lambda lo, hi: norm,
                  keep=lambda x: x[:, 1] >= x[:, 0], holds=lambda lo, hi: hi[:, 1] >= lo[:, 0])


def _tetrahedra_meet(domain: Polyhedron3) -> Callable:
    """holds for contains_many: False where a box misses every tetrahedron."""
    forms = []  # per tetrahedron, its points are those with g p + h >= 0 (as in contains_many)
    for tet in domain.tetrahedra:
        a, b, c, d = (domain.vertices[i] for i in tet)
        w = np.linalg.inv(np.column_stack([b - a, c - a, d - a]))  # barycentric coordinates
        total = w.sum(axis=0)
        forms.append((np.vstack([w, -total]), np.append(-(w @ a), 1.0 + total @ a)))

    def holds(lo, hi):  # the largest g p + h over each box; 1e-9 >= contains_many's tolerance
        mid, half, out = (lo + hi) / 2.0, (hi - lo) / 2.0, np.zeros(len(lo), dtype=bool)
        for g, h in forms:
            out |= (mid @ g.T + half @ np.abs(g).T + h >= -1e-9).all(axis=1)
        return out

    return holds


def _polyhedron_pieces(domain: Polyhedron3, mesh: float) -> list:
    half = mesh / 2.0
    lo = domain.vertices.min(axis=0)
    hi = domain.vertices.max(axis=0)
    step = 2.0 * half / math.sqrt(3.0)
    pieces = [_Piece(tuple(_axis_grid(lo[i], hi[i], step) for i in range(3)),
                     keep=domain.contains_many, holds=_tetrahedra_meet(domain))]
    for face in domain.faces:
        verts = domain.vertices[list(face)]
        # fan triangulation; assumes convex (or star-shaped) face polygons
        for i in range(1, len(verts) - 1):
            pieces.append(_triangle(verts[0], verts[i], verts[i + 1], half))
    diam = domain.diameter
    pieces.append(_Piece((np.arange(len(domain.vertices), dtype=float),),
                         lambda x: domain.vertices[x[:, 0].astype(int)], lambda lo, hi: diam))
    return pieces


def _cantor_piece(domain: Cantor, mesh: float) -> tuple[_Piece, float]:
    k = min(domain.depth, max(1, math.ceil(-math.log(mesh) / math.log(3.0))))
    lefts = np.array([0.0])
    for depth in range(1, k + 1):
        lefts = np.concatenate([lefts, lefts + 2.0 * 3.0**-depth])
    cyl = 3.0**-k
    return _Piece((np.unique(np.concatenate([lefts, lefts + cyl])),)), cyl


def build_probe_net(domain: Domain, target_mesh: float) -> ProbeNet:
    """Probe net with certified mesh <= target_mesh for the given domain."""
    if target_mesh <= 0:
        raise ValueError("target mesh must be positive")
    if target_mesh >= domain.diameter:
        raise ValueError("target mesh must be below the domain diameter")

    mesh = target_mesh
    if isinstance(domain, IntervalUniform):
        pieces = [_segment(np.array([0.0]), np.array([1.0]), mesh)]
    elif isinstance(domain, ArcsineInterval):
        pieces = [_segment(np.array([-1.0]), np.array([1.0]), mesh)]
    elif isinstance(domain, Polyline):
        pieces = [_segment(domain.vertices[i], domain.vertices[i + 1], mesh)
                  for i in range(len(domain.vertices) - 1)]
    elif isinstance(domain, Cube):
        pieces = [_Piece(_cube_axes(domain.d, mesh))]
    elif isinstance(domain, Sphere):
        pieces = _sphere_pieces(domain.d, mesh)
    elif isinstance(domain, Ball):
        pieces = _ball_pieces(domain.d, mesh)
    elif isinstance(domain, Polyhedron3):
        pieces = _polyhedron_pieces(domain, mesh)
    elif isinstance(domain, Cantor):
        piece, mesh = _cantor_piece(domain, mesh)
        pieces = [piece]
    else:
        raise UnsupportedDomainError(f"no probe net construction for {domain!r}")
    return ProbeNet(domain=domain, pieces=tuple(pieces), certified_mesh=mesh)
