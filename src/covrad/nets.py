"""Probe nets with certified mesh bounds, and exact nearest-neighbor search.

A probe net is a finite point set whose certified mesh delta guarantees that
every domain point is within delta of some net point; suprema over the domain
can then be sandwiched to within delta. Mesh proofs per kind:

* Polyline: arclength grid of step 2*delta on each segment.
* Cube d: axis grid of step 2*delta/sqrt(d); half cell diagonal is delta.
* Sphere d: grids on all faces of the circumscribed cube surface, centrally
  projected x -> x/|x|. The projection is 1-Lipschitz on {|x| >= 1}, and every
  sphere point is the projection of a cube-surface point, so the face mesh
  carries over unchanged.
* Ball d: interior axis grid certifying 3*delta/4 plus a boundary sphere net
  at delta/4. A point farther than 3*delta/4 from the boundary has its whole
  grid cell inside the ball; a point closer than that reaches a boundary net
  point through its radial projection (3*delta/4 + delta/4 = delta). For
  d = 1 the boundary {-1, +1} is the grid's two ends, so the grid is the net.
* Polyhedron3: interior grid certifying delta/2 away from the boundary, plus
  triangle lattices at mesh delta/2 on Polyhedron3.triangles, the face fans
  that the polyhedron checked to cover each face once; points near the
  boundary reach a face net through their boundary projection.

Pieces. A net is an ordered list of pieces, each the index grid of a few 1-D
axes ("ij" order, last axis fastest) in one or more copies, a map from grid
coordinates and copy to points and an optional keep-mask on grid coordinates;
the net's points are the maps of the kept grid points, piece by piece and copy
by copy. A cube is one identity piece; a sphere is one piece with a copy per
cube face, the face grid with -1 or +1 inserted and projected radially; a ball
has its interior grid kept where |x| <= 1 and, for d >= 2, its boundary
sphere's piece; a polyhedron has its bounding-box grid kept by contains_many
and the (i, j >= i) index lattice of each of its triangles (each its own
piece, with its own k) under an affine map; and a segment is its t-axis under
an affine map.

Blocks. Each piece's grid is cut into finest blocks of about 8 certified meshes
(sizing the grid step by the map's Lipschitz bound on the whole piece). A walk
over N samples starts at top levels of blocks 2^k finest sides wide, with one k
for all pieces (ProbeNet.depth_for(N)): the smallest at which each piece's top
holds at most max(2048, N) blocks over all its copies (coarser levels prune
next to nothing at large N). Each level below splits a block into the 2^dim
blocks of half its side in its copy, so no block spans two copies. Rows stay in
copy order (the top level lists copy by copy, children follow their parent,
dropped rows keep the order), so a map sees each copy's rows as one run. Blocks
that start past the grid, and blocks that cannot hold a kept point (a box clear
of the ball, one that contains_many's box form finds clear of every tetrahedron
of a polyhedron, or one below a triangle's diagonal), are left out. Each block
has a representative (the image of its middle grid point) and a reach r >= the
distance from the representative to the image of any grid point of the block:
the distance in the grid box from the middle point to the farthest corner,
times a Lipschitz bound of the map on the box, plus 1e-9 of the coordinate
scale for rounding. The bounds: 1 for the identity; 1/min|x| over the box for
the radial projection of a cube face, since |x/|x| - y/|y|| <=
|x - y|/sqrt(|x||y|) and |x| >= 1 there; and the spectral norm for affine maps.
A net stores its pieces' 1-D axes and the top level of the depth a walk last
asked for (ProbeNet.top, built once a few thousand blocks at a time, then
shared), in O(N) memory as the sample and its tree; only the axes grow with
1/mesh (axis_points bounds them unbuilt).

The walk. d(y) = dist(y, X) is 1-Lipschitz, so d <= d(p) + r on a block with
representative p. ProbeNet.max_nearest_distance refines all pieces' top levels
together down to the finest blocks. A query returns d(p) and the row of the
sample x_nn nearest to p, and each kept block hands its x_nn and copy down to
its children, which are generated (as the last probe points are) a few
thousand rows at a time. Each level drops the children whose representative c
has (|c - x_nn| + r)(1 + 1e-12) < L with no query, since d(c) <= |c - x_nn|;
evaluates d at the other children's representatives, all pieces in one query;
raises L to the largest value at a representative the keep-mask keeps (a probe
value, so L never passes the net's maximum; a masked representative is no
probe point, so it may prune but never raise L); and keeps blocks with
(d(p) + r)(1 + 1e-12) >= L. One last query evaluates the probe points y of the
kept finest blocks, less those with |y - x_nn|(1 + 1e-12) < L for their
block's x_nn. The maximizer y* survives
every test: each block holding it has d(p) + r >= d(y*) >= L, each bound
|c - x_nn| is at least d(c), and 1e-12 allows for rounded distances. A child
or point dropped unqueried has d < L, so it could neither raise L nor pass the
keep test: the walk keeps the blocks it would keep with every child queried.
Only kept blocks are split, so a trial's work and memory follow the blocks
that can hold the maximum, not the net. Every probe point is computed by the
same row-wise arithmetic wherever it is generated (spaces.row_norms sums each
row's squares within the row), so the last query's maximum is d(y*), the
maximum over the whole net bit for bit, and the net itself is never
materialised unless ProbeNet.points is read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .auxfn import real
from .errors import UnsupportedDomainError
from .spaces import (
    Ball,
    Cube,
    Domain,
    Polyhedron3,
    Polyline,
    Sphere,
    row_norms,
)


@dataclass(frozen=True)
class _Piece:
    """Probe points fmap(x, copy) for the grid coordinates x that keep(x), copy by copy."""
    axes: tuple
    fmap: Callable = lambda x, copy: x  # (m, k) grid coordinates, (m,) copies -> (m, dim)
    lip: Callable = lambda lo, hi: 1.0  # (lo, hi) grid-box corners -> Lipschitz bound of fmap
    keep: Callable | None = None  # (m, k) grid coordinates -> kept
    holds: Callable | None = None  # (lo, hi) -> False where no grid point is kept
    copies: int = 1

    @property
    def shape(self) -> tuple:
        return tuple(len(axis) for axis in self.axes)

    def coords(self, idx: np.ndarray) -> np.ndarray:
        """Grid coordinates of (m, k) grid indices."""
        out = np.empty(idx.shape)
        for k, axis in enumerate(self.axes):
            out[:, k] = axis[idx[:, k]]
        return out


class _Level(NamedTuple):
    """Blocks of one size in a piece's grids, in copy order."""
    first: np.ndarray  # first grid index of each block
    copy: np.ndarray  # the copy of the grid that holds it
    reps: np.ndarray  # representative points
    reach: np.ndarray  # bounds on the distance from each to its block's points
    ok: np.ndarray | None  # representative kept by the piece's mask
    nn: np.ndarray | None = None  # row of a sample: d(rep) <= |rep - samples[nn]|

    def compress(self, keep: np.ndarray) -> _Level:
        return _Level(*(None if a is None else np.compress(keep, a, axis=0) for a in self))


@lru_cache(maxsize=64)
def _box(shape: tuple) -> np.ndarray:
    """The grid indices of a box of the given shape, in "ij" order (read-only)."""
    out = np.stack(np.unravel_index(np.arange(math.prod(shape)), shape), axis=1)
    out.setflags(write=False)
    return out


def _in_grid(idx: np.ndarray, shape: tuple) -> np.ndarray:
    """Which (m, k) grid indices lie in a grid of the given shape."""
    inside = idx[:, 0] < shape[0]  # column by column: all(axis=1) took 10x longer
    for k in range(1, len(shape)):
        inside &= idx[:, k] < shape[k]
    return inside


def _level(piece: _Piece, first: np.ndarray, copy: np.ndarray, size: np.ndarray,
           nn=None) -> _Level:
    """The blocks of the given size starting at first in copy (each with the sample
    row nn, if given), less those that start past the grid or cannot hold a kept point."""
    # np.compress: several times faster than a boolean index on rows
    inside = _in_grid(first, piece.shape)
    first, copy, nn = (None if a is None else np.compress(inside, a, axis=0)
                       for a in (first, copy, nn))
    last = np.minimum(first + size, piece.shape) - 1
    lo, hi = piece.coords(first), piece.coords(last)
    if piece.holds is not None:
        held = piece.holds(lo, hi)
        first, copy, nn, last, lo, hi = (None if a is None else np.compress(held, a, axis=0)
                                         for a in (first, copy, nn, last, lo, hi))
    mid = piece.coords((first + last) // 2)
    reps = piece.fmap(mid, copy)
    reach = piece.lip(lo, hi) * row_norms(np.maximum(mid - lo, hi - mid))
    reach += 1e-9 * (reach + np.abs(reps).max(initial=0.0))  # rounded coordinates and maps
    return _Level(first, copy, reps, reach, None if piece.keep is None else piece.keep(mid), nn)


def _side(piece: _Piece, width: float) -> np.ndarray:
    """A piece's finest block side in grid steps: width under its map's Lipschitz bound."""
    ends = np.stack([[axis[0] for axis in piece.axes], [axis[-1] for axis in piece.axes]])
    lip = float(np.max(piece.lip(ends[:1], ends[1:])))
    step = np.array([np.diff(axis).min() if len(axis) > 1 else np.inf for axis in piece.axes])
    return np.clip(np.round(width / (lip * step)), 1, piece.shape).astype(np.int64)


def _cut(piece: _Piece, side: np.ndarray, depth: int) -> _Level:
    """The piece's top level: blocks depth levels above the finest, of the given side,
    copy by copy, built _ROWS at a time so that temporaries stay small."""
    size = side << depth
    counts = (piece.copies, *-(-np.array(piece.shape) // size))
    total = math.prod(counts)
    runs = [_level(piece, np.stack(idx, axis=1) * size, copy, size)
            for copy, *idx in (np.unravel_index(np.arange(a, min(a + _ROWS, total)), counts)
                               for a in range(0, total, _ROWS))]
    return _Level(*(None if a[0] is None else np.concatenate(a) for a in zip(*runs)))


# the most top blocks per piece over all copies of walks over up to _TOP samples
_TOP = 2048  # (sweep of 512-8192 in CHANGES.md)


@dataclass(frozen=True)
class ProbeNet:
    """Probe points, as pieces, with their certified mesh and blocks (see above)."""
    domain: Domain
    pieces: tuple = field(repr=False)
    certified_mesh: float
    sides: tuple = field(init=False, repr=False, compare=False)  # each piece's finest blocks
    _depths: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _top: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.certified_mesh <= 0:
            raise ValueError("certified mesh must be positive")
        # finest blocks 8 meshes wide: at N=1e5 (2 CPUs; every build under 3 ms) 6 and 12
        # walked sphere2, ball2 and cube2 as fast, 6 walked cube3 1.2x and 12 8x slower
        object.__setattr__(self, "sides", tuple(_side(p, 8 * self.certified_mesh)
                                                for p in self.pieces))

    def depth_for(self, n: int) -> int:
        """The levels above the finest blocks that a walk over n samples starts at: the
        fewest that leave every piece at most max(_TOP, n) top blocks (memoized per n)."""
        if n not in self._depths:  # one depth for all pieces: they enter the walk together
            self._depths[n] = next(depth for depth in itertools.count() if all(
                p.copies * math.prod(-(-np.array(p.shape) // (side << depth))) <= max(_TOP, n)
                for p, side in zip(self.pieces, self.sides)))
        return self._depths[n]

    def top(self, depth: int) -> tuple:
        """Each piece's top level at the given depth (cached, the last depth asked only)."""
        if self._top[:1] != [depth]:
            self._top[:] = [depth, tuple(_cut(p, side, depth)
                                         for p, side in zip(self.pieces, self.sides))]
        return self._top[1]

    @cached_property
    def points(self) -> np.ndarray:
        """All probe points, piece by piece, copy by copy in grid order (built on first use)."""
        chunks = []
        for piece in self.pieces:
            size = math.prod(piece.shape)
            for copy, start in itertools.product(range(piece.copies), range(0, size, 1 << 16)):
                flat = np.arange(start, min(start + (1 << 16), size))
                x = piece.coords(np.stack(np.unravel_index(flat, piece.shape), axis=1))
                x = x if piece.keep is None else x[piece.keep(x)]
                chunks.append(piece.fmap(x, np.full(len(x), copy)))
        pts = np.concatenate(chunks)
        pts.setflags(write=False)
        return pts

    def max_nearest_distance(self, index: SpatialIndex) -> float:
        """index.nearest_distances(points).max(), from the blocks that can hold it."""
        samples, depth = index.points, self.depth_for(len(index.points))
        lower, live = -math.inf, []  # (piece, a run of its kept blocks (first, nn, copy))
        for level in range(depth, -1, -1):
            # (piece, the blocks evaluated): every piece's top, then children run by run
            batch = [] if level < depth else list(enumerate(self.top(depth)))
            for p, blocks in live:
                size = self.sides[p] << level
                batch += [(p, _children(self.pieces[p], run, size, samples, lower))
                          for run in _runs(blocks, 2 ** len(size))]
            d, nn = index.nearest(np.concatenate([lev.reps for _, lev in batch]))
            cuts = np.cumsum([len(lev.reach) for _, lev in batch])[:-1]
            parts = list(zip(np.split(d, cuts), np.split(nn, cuts)))
            for (_, lev), (dp, _) in zip(batch, parts):
                probe = dp if lev.ok is None else np.compress(lev.ok, dp)
                lower = max(lower, float(probe.max(initial=-math.inf)))
            live = []
            for (p, lev), (dp, nnp) in zip(batch, parts):
                keep = (dp + lev.reach) * (1 + 1e-12) >= lower
                live.append((p, tuple(np.compress(keep, a, axis=0)
                                      for a in (lev.first, nnp, lev.copy))))
        pts = [_probes(self.pieces[p], run, self.sides[p], samples, lower)
               for p, blocks in live for run in _runs(blocks, math.prod(self.sides[p]))]
        return float(index.nearest_distances(np.concatenate(pts)).max())


# the walk generates children and probe points at most this many rows at a time,
# so its temporaries grow with neither copies nor kept blocks: of 4096-32768 on 2 CPUs,
# 4096 walked every domain at N=1e3 and 1e5 as fast or faster, and above it sphere3
# and ball3 at N=1e3 page-faulted tens to thousands of times as often (sweep in CHANGES.md)
_ROWS = 4096


def _runs(blocks: tuple, per_block: int):
    """Runs of the blocks (first, nn, copy) that generate at most _ROWS rows at
    per_block rows a block (one block at least)."""
    step = max(1, _ROWS // per_block)
    for start in range(0, len(blocks[0]), step):
        yield tuple(a[start:start + step] for a in blocks)


def _children(piece: _Piece, blocks: tuple, size: np.ndarray, samples: np.ndarray,
              lower: float) -> _Level:
    """The children of the given size of the blocks (first, nn, copy), each with
    its parent's nn and copy, less those that cannot reach lower."""
    first, nn, copy = blocks
    corners = _box((2,) * len(size)) * size
    kids = (first[:, None, :] + corners).reshape(-1, len(size))
    lev = _level(piece, kids, np.repeat(copy, len(corners)), size,
                 np.repeat(nn, len(corners)))
    # d(rep) <= |rep - the parent's nearest sample|: children that cannot reach
    # L even so are dropped with no query
    bound = row_norms(lev.reps - np.take(samples, lev.nn, axis=0)) + lev.reach
    return lev.compress(bound * (1 + 1e-12) >= lower)


def _probes(piece: _Piece, blocks: tuple, side: np.ndarray, samples: np.ndarray,
            lower: float) -> np.ndarray:
    """The probe points of the finest blocks (first, nn, copy) that can reach lower."""
    first, nn, copy = blocks
    box = _box(tuple(side))
    idx = (first[:, None, :] + box).reshape(-1, len(side))
    inside = _in_grid(idx, piece.shape)
    x = piece.coords(np.compress(inside, idx, axis=0))
    # row by row, so mapping masked points too changes no bit
    y = piece.fmap(x, np.compress(inside, np.repeat(copy, len(box))))
    # as for blocks, d(y) <= |y - its block's nearest sample|; the mask is
    # evaluated on the points left
    near = np.take(samples, np.compress(inside, np.repeat(nn, len(box))), axis=0)
    far = row_norms(y - near) * (1 + 1e-12) >= lower
    x, y = np.compress(far, x, axis=0), np.compress(far, y, axis=0)
    return y if piece.keep is None else np.compress(piece.keep(x), y, axis=0)


# ---------------------------------------------------------------------------
# Spatial index (exact nearest neighbor)
# ---------------------------------------------------------------------------

# batches smaller than this are queried on one thread: on 2 CPUs starting the
# threads cost more than they saved below it (sweep in CHANGES.md)
_THREADS_FROM = 2048


class SpatialIndex:
    """Exact Euclidean nearest-neighbor index over a fixed point set (a k-d tree).

    points is a read-only view of the indexed points, and query_rows the rows of
    each batch queried, in call order. nearest returns, with each distance, the
    row of the nearest point; the walk keeps these rows to bound the distances of
    children and probe points it never queries (see above). The tree is unbalanced
    (split at the middle of each node's box, not at the median) and its nodes keep
    their boxes uncompacted: on 1e5 points it built in about half the time of
    scipy's default tree, and whole N=1e5 sphere2, ball2 and cube2 trials ran
    about 5% faster than with compacted nodes. Either way the queries are exact.
    """

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("need a non-empty (n, dim) point array")
        self._tree = cKDTree(points, balanced_tree=False, compact_nodes=False)
        self.points = self._tree.data.view()
        self.points.setflags(write=False)
        self.query_rows = []

    def nearest(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact nearest distances for a batch of query points, and the rows of
        their nearest points."""
        queries = np.asarray(queries, dtype=float)
        self.query_rows.append(len(queries))
        return self._tree.query(queries, workers=1 if len(queries) < _THREADS_FROM else -1)

    def nearest_distances(self, queries: np.ndarray) -> np.ndarray:
        """Vectorized exact nearest distances for a batch of query points."""
        return self.nearest(queries)[0]


def build_index(points: np.ndarray) -> SpatialIndex:
    return SpatialIndex(points)


# ---------------------------------------------------------------------------
# Probe net construction
# ---------------------------------------------------------------------------


def _segment(a: np.ndarray, b: np.ndarray, mesh: float) -> _Piece:
    length = float(np.linalg.norm(b - a))
    n_steps = max(1, math.ceil(length / (2.0 * mesh)))
    return _Piece((np.linspace(0.0, 1.0, n_steps + 1),), lambda t, copy: a + t * (b - a),
                  lambda lo, hi: length)


def _axis_grid(low: float, high: float, step: float) -> np.ndarray:
    n_steps = max(1, math.ceil((high - low) / step))
    return np.linspace(low, high, n_steps + 1)


def _cube_axes(d: int, mesh: float, low: float = 0.0, high: float = 1.0) -> tuple:
    return (_axis_grid(low, high, 2.0 * mesh / math.sqrt(d)),) * d


def _min_norms(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Smallest |x| over the boxes [lo, hi]."""
    return row_norms(np.maximum(np.maximum(lo, -hi), 0.0))


def _sphere_piece(d: int, mesh: float) -> _Piece:
    # grids on the faces of the cube [-1,1]^(d+1) surface, projected radially; copy
    # 2 * ax + s holds the face grid in the other axes and -1 (s = 0) or +1 (s = 1) at ax
    def fmap(x, copy):
        pts = np.empty((len(x), d + 1))
        runs = np.searchsorted(copy, np.arange(2 * d + 3))  # rows come in copy order
        for c, (a, b) in enumerate(itertools.pairwise(runs)):
            ax, face = c // 2, slice(a, b)
            pts[face, :ax], pts[face, ax], pts[face, ax + 1:] = (
                x[face, :ax], (-1.0, 1.0)[c % 2], x[face, ax:])
        pts /= row_norms(pts)[:, None]
        return pts

    def lip(lo, hi):  # |x| >= min over the box of sqrt(1 + |face coordinates|^2)
        return 1.0 / np.sqrt(1.0 + _min_norms(lo, hi) ** 2)

    return _Piece(_cube_axes(d, mesh, -1.0, 1.0), fmap, lip, copies=2 * (d + 1))


def _ball_pieces(d: int, mesh: float) -> list:
    axes = _cube_axes(d, 0.75 * mesh, -1.0, 1.0)
    interior = _Piece(axes, keep=lambda x: row_norms(x) <= 1.0,
                      holds=lambda lo, hi: _min_norms(lo, hi) <= 1.0 + 1e-9)  # rounded norms
    # for d = 1 the boundary {-1, +1} is the grid's linspace ends
    return [interior, _sphere_piece(d - 1, mesh / 4.0)] if d >= 2 else [interior]


def _triangle(a, b, c, mesh: float) -> _Piece:
    # subdivide so every subtriangle has diameter <= mesh
    diam = max(np.linalg.norm(b - a), np.linalg.norm(c - b), np.linalg.norm(a - c))
    k = max(1, math.ceil(diam / mesh))
    # steps (i, j - i) along b - a and c - a, for i <= j <= k in row order
    norm = float(np.linalg.norm(np.stack([b - c, c - a], axis=1) / k, 2))

    def fmap(x, copy):
        i, j = x[:, 0], x[:, 1]
        return a + (i / k)[:, None] * (b - a) + ((j - i) / k)[:, None] * (c - a)

    return _Piece((np.arange(k + 1.0),) * 2, fmap, lambda lo, hi: norm,
                  keep=lambda x: x[:, 1] >= x[:, 0], holds=lambda lo, hi: hi[:, 1] >= lo[:, 0])


def _polyhedron_pieces(domain: Polyhedron3, mesh: float) -> list:
    half, v = mesh / 2.0, domain.vertices
    step = 2.0 * half / math.sqrt(3.0)
    axes = tuple(_axis_grid(lo, hi, step) for lo, hi in zip(v.min(axis=0), v.max(axis=0)))
    # 1e-9 over keep's 1e-12: a block with a kept grid point is never left out
    holds = lambda lo, hi: domain.contains_many((lo + hi) / 2.0, 1e-9, (hi - lo) / 2.0)
    return [_Piece(axes, keep=domain.contains_many, holds=holds),
            *(_triangle(v[a], v[b], v[c], half) for a, b, c in domain.triangles)]


def build_probe_net(domain: Domain, target_mesh: float) -> ProbeNet:
    """Probe net with certified mesh target_mesh for the given domain; the domains
    of covering.has_exact_path take none (UnsupportedDomainError)."""
    target_mesh = real(target_mesh, "target mesh")
    if target_mesh >= domain.diameter:
        raise ValueError("target mesh must be below the domain diameter")
    return ProbeNet(domain=domain, pieces=tuple(_pieces(domain, target_mesh)),
                    certified_mesh=target_mesh)


def axis_points(domain: Domain, target_mesh: float) -> float:
    """A bound on the axis coordinates of build_probe_net(domain, target_mesh), which grow
    with 1/mesh: every step scales with the mesh, so an axis of n coordinates at a coarse
    mesh c has at most (n - 1) c / target_mesh + 2."""
    target_mesh = real(target_mesh, "target mesh")  # an eta * rho_scale can round to 0
    coarse = max(target_mesh, domain.diameter / 8.0)
    return sum((len(axis) - 1) * coarse / target_mesh + 2
               for piece in _pieces(domain, coarse) for axis in piece.axes)


def _pieces(domain: Domain, mesh: float) -> list:
    """The pieces of a probe net of the given certified mesh."""
    if isinstance(domain, Polyline):
        return [_segment(domain.vertices[i], domain.vertices[i + 1], mesh)
                for i in range(len(domain.vertices) - 1)]
    if isinstance(domain, Cube):
        return [_Piece(_cube_axes(domain.d, mesh))]
    if isinstance(domain, Sphere) and domain.d > 1:  # the circle takes the exact path
        return [_sphere_piece(domain.d, mesh)]
    if isinstance(domain, Ball):
        return _ball_pieces(domain.d, mesh)
    if isinstance(domain, Polyhedron3):
        return _polyhedron_pieces(domain, mesh)
    raise UnsupportedDomainError(f"no probe net construction for {domain!r}")
