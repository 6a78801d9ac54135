"""Catalog of metric-measure domains and their geometric constants.

Every domain is a compact subset of Euclidean space carrying a normalized
measure. The catalog is closed: samplers, probe nets and limit constants are
implemented per kind, and users cannot register new kinds.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .auxfn import is_count, is_integer, real
from .errors import InvalidGeometryError, UnsupportedDomainError

LOG2_OVER_LOG3 = math.log(2.0) / math.log(3.0)


def unit_ball_volume(s: int) -> float:
    """Volume of the unit ball in s dimensions, pi^(s/2) / Gamma(1 + s/2)."""
    if not is_count(s):
        raise ValueError(f"dimension must be an integer >= 1, got {s!r}")
    return math.pi ** (s / 2.0) / math.gamma(1.0 + s / 2.0)


def row_norms(x: np.ndarray) -> np.ndarray:
    """|x| per row of a 2-D float array, bit for bit np.linalg.norm(x, axis=1):
    NumPy sums up to 7 squares left to right, as here, and 8 or more
    contiguous ones pairwise, so those (and no columns) go to it."""
    if not 0 < x.shape[1] < 8:
        return np.linalg.norm(x, axis=1)
    out = x[:, 0] * x[:, 0]
    for j in range(1, x.shape[1]):
        out += x[:, j] * x[:, j]
    return np.sqrt(out, out=out)


# ---------------------------------------------------------------------------
# Domain models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Dimensional:
    """A catalog domain of integer dimension d >= 1 (not a bool); d is stored
    as a Python int, so a NumPy integer serialises."""

    d: int

    def __post_init__(self):
        if not is_count(self.d):
            raise ValueError(f"{self.kind} dimension d must be an integer >= 1, got {self.d!r}")
        object.__setattr__(self, "d", int(self.d))

    @property
    def intrinsic_dim(self) -> float:
        return self.d


@dataclass(frozen=True)
class Sphere(_Dimensional):
    """Unit sphere of intrinsic dimension d embedded in R^(d+1)."""

    kind: str = field(default="Sphere", init=False)
    diameter = 2.0


@dataclass(frozen=True)
class Ball(_Dimensional):
    """Closed unit ball in R^d."""

    kind: str = field(default="Ball", init=False)
    diameter = 2.0


@dataclass(frozen=True)
class Cube(_Dimensional):
    """Unit cube [0,1]^d."""

    kind: str = field(default="Cube", init=False)

    @property
    def diameter(self) -> float:
        return math.sqrt(self.d)


@dataclass(frozen=True)
class IntervalUniform:
    """The interval [0,1] with Lebesgue measure."""

    kind: str = field(default="IntervalUniform", init=False)
    intrinsic_dim = 1
    diameter = 1.0


@dataclass(frozen=True)
class ArcsineInterval:
    """The interval [-1,1] with measure dx / (pi sqrt(1-x^2))."""

    kind: str = field(default="ArcsineInterval", init=False)
    intrinsic_dim = 1
    diameter = 2.0


def _coordinates(vertices) -> np.ndarray:
    """Vertices as a float array; each coordinate must pass auxfn.real as any
    finite number before it is converted, so "0" or true is not taken as 0 or 1."""
    cells = np.asarray(vertices, dtype=object)
    return np.array([real(x, "vertex coordinate", at_least=-math.inf) for x in cells.flat],
                    dtype=float).reshape(cells.shape)


class Polyline:
    """Chain of straight segments in R^D with normalized arclength measure."""

    kind = "Polyline"
    intrinsic_dim = 1

    def __init__(self, vertices):
        v = _coordinates(vertices)
        if v.ndim != 2 or v.shape[0] < 2:
            raise ValueError("polyline needs at least two vertices in R^D")
        lengths = row_norms(np.diff(v, axis=0))
        if np.any(lengths == 0.0):
            raise ValueError("consecutive polyline vertices must be distinct")
        self.vertices = v
        self.vertices.setflags(write=False)
        self.edge_lengths = lengths
        self.edge_lengths.setflags(write=False)
        self.total_length = float(lengths.sum())

    @property
    def diameter(self) -> float:
        # Cheap upper bound; enough for precondition screening.
        return self.total_length

    def __eq__(self, other):
        return isinstance(other, Polyline) and np.array_equal(self.vertices, other.vertices)

    def __hash__(self):
        return hash((self.kind, self.vertices.tobytes()))

    def __repr__(self):
        return f"Polyline({self.vertices.tolist()!r})"


class Polyhedron3:
    """Polyhedron in R^3 given by vertices, a tetrahedral decomposition and
    face polygons.

    The decomposition is supplied, not computed. The faces must be closed and
    wound consistently, all counterclockwise or all clockwise seen from
    outside: construction derives the edges from them, requiring each face
    side to be run once in each direction, and checks that the tetra volumes
    sum to the face volume. Each face must be star-shaped from its first
    vertex: its fan from there, in `triangles` (vertex-index triples), must
    have no triangle running against the face's area vector, so that the
    windings add up to the face's and the fan covers it once.
    """

    kind = "Polyhedron3"
    intrinsic_dim = 3

    def __init__(self, vertices, tetrahedra, faces):
        v = _coordinates(vertices)
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError("vertices must be an (n, 3) array")
        tets, faces = [tuple(t) for t in tetrahedra], [tuple(f) for f in faces]
        if not tets or any(len(t) != 4 for t in tets):
            raise ValueError("tetrahedra must be 4-tuples of vertex indices")
        for what, polys, least in (("tetrahedron", tets, 4), ("face", faces, 3)):
            for k, poly in enumerate(polys):
                if len(poly) < least or not all(is_integer(i) and 0 <= i < len(v) for i in poly):
                    raise InvalidGeometryError(f"{what} {k} {list(poly)} needs at least "
                                               f"{least} integer vertex indices in [0, {len(v)})")
        self.vertices = v
        self.vertices.setflags(write=False)
        # Python ints, so that a domain built from NumPy indices serialises
        self.tetrahedra = tets = [tuple(map(int, t)) for t in tets]
        self.faces = [tuple(map(int, f)) for f in faces]
        # each edge: (vertex_a, vertex_b, face_i, face_j), face_i running a -> b
        # and face_j running b -> a
        runs = {}
        for k, f in enumerate(self.faces):
            for a, b in zip(f, f[1:] + f[:1]):
                if a == b:
                    raise InvalidGeometryError(f"face {k} repeats vertex {a}")
                if (a, b) in runs:
                    raise InvalidGeometryError(
                        f"faces {runs[a, b]} and {k} both run side ({a},{b}): "
                        "faces are not wound consistently")
                runs[a, b] = k
        self.edges = []
        for (a, b), k in runs.items():
            if (b, a) not in runs:
                raise InvalidGeometryError(
                    f"no face runs side ({a},{b}) of face {k} back: faces are not closed")
            if a < b:
                self.edges.append((a, b, k, runs[b, a]))
        self.triangles = []
        for k, f in enumerate(self.faces):
            area = self.face_normal(f)
            for a, b, c in ((f[0], f[i], f[i + 1]) for i in range(1, len(f) - 1)):
                # a zero-area fan triangle (rounded, so 1e-12 of the face's) is harmless
                if np.cross(v[b] - v[a], v[c] - v[a]) @ area < -1e-12 * (area @ area):
                    raise InvalidGeometryError(
                        f"face {k} is not star-shaped from its first vertex {a}: "
                        f"fan triangle {(a, b, c)} runs against it")
                self.triangles.append((a, b, c))

        self.tet_volumes = np.array([self._tet_volume(t) for t in tets])
        if np.any(self.tet_volumes <= 0.0):
            raise InvalidGeometryError("tetrahedra must have positive volume")
        self.tet_volumes.setflags(write=False)
        self.volume = float(self.tet_volumes.sum())
        # per tetrahedron t = (a, b, c, d): tet_origins[t] = a and tet_inverses[t]
        # the inverse W of [b - a, c - a, d - a]; (p - a) @ W.T are p's
        # barycentric coordinates
        corners = v[np.array(tets)]
        self.tet_origins = corners[:, 0]
        self.tet_inverses = np.stack([np.linalg.inv(np.column_stack([b - a, c - a, d - a]))
                                      for a, b, c, d in corners])

        # the signed volume the fan triangles enclose, sum det(a, b, c) / 6, is
        # negative when the faces wind clockwise seen from outside
        a, b, c = v[np.array(self.triangles, dtype=int).reshape(-1, 3).T]
        vol_faces = float(np.einsum("ij,ij->", a, np.cross(b, c))) / 6.0
        self.winding = math.copysign(1.0, vol_faces)
        if not math.isclose(self.volume, abs(vol_faces), rel_tol=1e-9):
            raise InvalidGeometryError(
                f"tetra volume sum {self.volume} disagrees with face volume {abs(vol_faces)}"
            )

    def _tet_volume(self, tet) -> float:
        a, b, c, d = (self.vertices[i] for i in tet)
        return abs(np.dot(b - a, np.cross(c - a, d - a))) / 6.0

    def face_normal(self, face) -> np.ndarray:
        """Newell-method area vector of a face polygon (not normalized)."""
        pts = self.vertices[list(face)]
        return sum(map(np.cross, pts, np.roll(pts, -1, axis=0)), np.zeros(3)) / 2.0

    def contains_many(self, points: np.ndarray, tol: float = 1e-12,
                      half: np.ndarray | None = None) -> np.ndarray:
        """Which points lie in some tetrahedron, to within tol in barycentric
        coordinates; with half-widths half (m, 3), which boxes points +- half
        may: False only where a box misses every tetrahedron."""
        pts = np.asarray(points, dtype=float)
        inside = np.zeros(len(pts), dtype=bool)
        # barycentric coordinates of k tetrahedra as one (k, m, 3) product, each
        # slice the same (pts - a) @ W.T as for its tetrahedron alone. With
        # k * m <= 2^14 small batches take all tetrahedra at once (unit box, 6
        # tetrahedra: 2x faster at m = 100, but 1.4x slower at m = 1e4) and large
        # ones one at a time, in one tetrahedron's memory
        k = max(1, (1 << 14) // max(len(pts), 1))
        wt = self.tet_inverses.transpose(0, 2, 1)
        for t in range(0, len(wt), k):
            lam = (pts - self.tet_origins[t:t + k, None, :]) @ wt[t:t + k]
            total = lam.sum(axis=2)
            if half is not None:  # each coordinate's largest value, the sum's smallest
                lam += half @ np.abs(wt[t:t + k])
                total -= np.abs(wt[t:t + k].sum(axis=2)) @ half.T
            inside |= ((lam >= -tol).all(axis=2) & (total <= 1.0 + tol)).any(axis=0)
        return inside

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.vertices.max(axis=0) - self.vertices.min(axis=0)))

    def __eq__(self, other):
        return (isinstance(other, Polyhedron3) and np.array_equal(self.vertices, other.vertices)
                and (self.tetrahedra, self.faces) == (other.tetrahedra, other.faces))

    def __hash__(self):
        return hash((self.kind, self.vertices.tobytes(), tuple(self.tetrahedra)))

    def __repr__(self):
        return f"Polyhedron3(<{len(self.vertices)} vertices, {len(self.tetrahedra)} tets>)"


@dataclass(frozen=True)
class Cantor:
    """Middle-thirds Cantor set truncated at digit depth `depth`.

    The truncated set consists of the 2^depth left endpoints of the
    depth-`depth` cylinders; all guarantees hold up to resolution 3^-depth.
    """

    depth: int = 40
    kind: str = field(default="Cantor", init=False)
    intrinsic_dim = LOG2_OVER_LOG3
    diameter = 1.0

    def __post_init__(self):
        if not is_count(self.depth):
            raise ValueError(f"Cantor depth must be an integer >= 1, got {self.depth!r}")
        object.__setattr__(self, "depth", int(self.depth))


Domain = Sphere | Ball | Cube | IntervalUniform | ArcsineInterval | Polyline | Polyhedron3 | Cantor


# ---------------------------------------------------------------------------
# Masses and limit constants
# ---------------------------------------------------------------------------


def hausdorff_mass(domain: Domain) -> float:
    """Total s-dimensional Hausdorff mass of the domain (unit-cube normalization)."""
    if isinstance(domain, Sphere):
        return (domain.d + 1) * unit_ball_volume(domain.d + 1)
    if isinstance(domain, Ball):
        return unit_ball_volume(domain.d)
    if isinstance(domain, (Cube, IntervalUniform)):
        return 1.0
    if isinstance(domain, Polyline):
        return domain.total_length
    if isinstance(domain, Polyhedron3):
        return domain.volume
    raise UnsupportedDomainError(f"no single mass constant for {domain.kind}")


def min_dihedral_angle(domain: Polyhedron3) -> float:
    """Smallest interior dihedral angle over the edges of a polyhedron, in radians."""
    return float(_dihedral_angles(domain).min())


def _dihedral_angles(domain: Polyhedron3) -> np.ndarray:
    """Interior dihedral angle at each edge of a polyhedron, in edge order.

    With outward unit normals n_i, n_j of the edge's two faces and e the unit
    vector along the edge in face_i's running direction (reversed when the
    faces wind clockwise), the angle is pi - atan2((n_i x n_j) . e, n_i . n_j):
    convex edges get angles in (0, pi) and reflex edges angles in (pi, 2pi).
    """
    if not isinstance(domain, Polyhedron3):
        raise UnsupportedDomainError("dihedral angles are defined for Polyhedron3 only")
    normals = np.array([domain.face_normal(f) for f in domain.faces])
    area = row_norms(normals)
    if np.any(area < 1e-14):
        raise InvalidGeometryError(f"face {int(np.argmax(area < 1e-14))} has zero area")
    normals /= area[:, None]
    a, b, fi, fj = np.array(domain.edges).T
    e = domain.vertices[b] - domain.vertices[a]
    elen = row_norms(e)
    if np.any(elen == 0.0):
        raise InvalidGeometryError("degenerate edge")
    e *= (domain.winding / elen)[:, None]
    ni, nj = normals[fi], normals[fj]
    return math.pi - np.arctan2(np.einsum("ij,ij->i", np.cross(ni, nj), e),
                                np.einsum("ij,ij->i", ni, nj))


def limit_constant(domain: Domain, p: float = 1.0) -> float:
    """Limit of E[rho(X_N)^p] * (N / log N)^(p/s) for the given domain.

    Defined for the sharp-constant catalog only; Cantor and the arcsine
    interval admit two-sided bounds but no sharp constant.
    """
    p = real(p, "moment order p", at_least=1)
    if isinstance(domain, Sphere):
        d = domain.d
        base = (d + 1) * unit_ball_volume(d + 1) / unit_ball_volume(d)
        return base ** (p / d)
    if isinstance(domain, IntervalUniform):
        return 0.5**p
    if isinstance(domain, Polyline):
        return (domain.total_length / 2.0) ** p
    if isinstance(domain, (Ball, Cube)) and domain.d < 2:
        raise UnsupportedDomainError(
            f"{domain.kind} limit constant needs d >= 2; model a segment as a Polyline")
    if isinstance(domain, Ball):
        d = domain.d
        return (2.0 * (d - 1) / d) ** (p / d)
    if isinstance(domain, Cube):
        d = domain.d
        return (2.0 ** (d - 1) / (d * unit_ball_volume(d))) ** (p / d)
    if isinstance(domain, Polyhedron3):
        theta = min_dihedral_angle(domain)
        v = domain.volume
        if theta <= math.pi / 2.0:
            return (2.0 * math.pi * v / (3.0 * theta * unit_ball_volume(3))) ** (p / 3.0)
        return (v / math.pi) ** (p / 3.0)
    raise UnsupportedDomainError(f"no sharp limit constant for {domain.kind}")


# ---------------------------------------------------------------------------
# JSON catalog serialization
# ---------------------------------------------------------------------------


# the dataclass kinds, and each kind's params (Polyhedron3 ignores the edges of old documents)
_KINDS = {cls.kind: cls for cls in (Sphere, Ball, Cube, IntervalUniform, ArcsineInterval, Cantor)}
_PARAMS = {**{kind: {f.name for f in fields(cls) if f.init} for kind, cls in _KINDS.items()},
           "Polyline": {"vertices"}, "Polyhedron3": {"vertices", "tetrahedra", "faces", "edges"}}


def domain_to_dict(domain: Domain) -> dict:
    if isinstance(domain, tuple(_KINDS.values())):
        return {"kind": domain.kind,
                "params": {f.name: getattr(domain, f.name) for f in fields(domain) if f.init}}
    if isinstance(domain, Polyline):
        return {"kind": "Polyline", "params": {"vertices": domain.vertices.tolist()}}
    if isinstance(domain, Polyhedron3):
        return {
            "kind": "Polyhedron3",
            "params": {
                "vertices": domain.vertices.tolist(),
                "tetrahedra": [list(t) for t in domain.tetrahedra],
                "faces": [list(f) for f in domain.faces],
            },
        }
    raise UnsupportedDomainError(f"cannot serialize {domain!r}")


def domain_from_dict(doc: dict) -> Domain:
    """The domain a document describes; unknown keys are refused, and its constructor checks
    the values (a missing parameter with no default reaches it as None and is rejected)."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValueError(f"a domain document must be an object with a kind, not {doc!r}")
    kind, params = doc["kind"], doc.get("params", {})
    if not isinstance(params, dict):
        raise ValueError(f"domain params must be an object, not {params!r}")
    if kind not in _PARAMS:
        raise UnsupportedDomainError(f"unknown domain kind {kind!r}")
    unknown = (set(doc) - {"kind", "params"}) | (set(params) - _PARAMS[kind])
    if unknown:
        raise ValueError(f"a {kind} document takes no keys {sorted(unknown, key=str)}")
    if kind in _KINDS:
        cls = _KINDS[kind]
        return cls(**{f.name: params.get(f.name, None if f.default is MISSING else f.default)
                      for f in fields(cls) if f.init})
    if kind == "Polyline":
        return Polyline(params["vertices"])
    return Polyhedron3(params["vertices"], params["tetrahedra"], params["faces"])


def unit_box_polyhedron() -> Polyhedron3:
    """Axis-aligned unit box as a pre-tetrahedralized Polyhedron3."""
    verts = [
        [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
        [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
    ]
    tets = [
        (0, 1, 2, 6), (0, 2, 3, 6), (0, 3, 7, 6),
        (0, 7, 4, 6), (0, 4, 5, 6), (0, 5, 1, 6),
    ]
    # faces wound counterclockwise seen from outside
    faces = [
        (0, 3, 2, 1),  # bottom z=0
        (4, 5, 6, 7),  # top z=1
        (0, 1, 5, 4),  # y=0
        (2, 3, 7, 6),  # y=1
        (1, 2, 6, 5),  # x=1
        (3, 0, 4, 7),  # x=0
    ]
    return Polyhedron3(verts, tets, faces)
