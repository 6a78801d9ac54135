import itertools
import json
import math

import numpy as np
import pytest
from oracles import RegularityWitness, ball_measure, regularity_witness

from covrad.errors import InvalidGeometryError, UnsupportedDomainError
from covrad.sampler import SeedSpec, sample
from covrad.spaces import (
    ArcsineInterval,
    Ball,
    Cantor,
    Cube,
    IntervalUniform,
    LOG2_OVER_LOG3,
    Polyhedron3,
    Polyline,
    Sphere,
    _dihedral_angles,
    domain_from_dict,
    domain_to_dict,
    hausdorff_mass,
    limit_constant,
    min_dihedral_angle,
    row_norms,
    unit_ball_volume,
    unit_box_polyhedron,
)


def equilateral_prism():
    """Prism over an equilateral triangle, height 1; smallest dihedral pi/3."""
    h = math.sqrt(3.0) / 2.0
    verts = [
        [0, 0, 0], [1, 0, 0], [0.5, h, 0],
        [0, 0, 1], [1, 0, 1], [0.5, h, 1],
    ]
    tets = [(0, 1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5)]
    faces = [
        (0, 2, 1),        # bottom, outward -z
        (3, 4, 5),        # top, outward +z
        (0, 1, 4, 3),     # y=0 side
        (1, 2, 5, 4),     # slanted side
        (2, 0, 3, 5),     # slanted side
    ]
    return Polyhedron3(verts, tets, faces)


def regular_tetrahedron():
    verts = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
    tets = [(0, 1, 2, 3)]
    faces = [(0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3)]
    return Polyhedron3(verts, tets, faces)


def regular_octahedron():
    """Regular octahedron with vertices +-x, +-y, +-z; every dihedral angle
    arccos(-1/3) is obtuse."""
    verts = [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    tets = [(0, 1, 4, 5), (1, 2, 4, 5), (2, 3, 4, 5), (3, 0, 4, 5)]
    faces = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4),
             (1, 0, 5), (2, 1, 5), (3, 2, 5), (0, 3, 5)]
    return Polyhedron3(verts, tets, faces)


def l_prism(arm):
    """Prism of height 1 over the L-shaped ([0,arm]x[0,1] u [0,1]x[0,arm]),
    arm > 1: one reflex edge, over the corner (1, 1), and 17 right angles."""
    base = [(0, 0), (arm, 0), (arm, 1), (1, 1), (1, arm), (0, arm)]
    verts = [[x, y, z] for z in (0, 1) for x, y in base]
    triangles = [(0, 1, 2), (0, 2, 3), (0, 3, 5), (3, 4, 5)]
    tets = [t for p, q, r in triangles
            for t in ((p, q, r, p + 6), (q, r, p + 6, q + 6), (r, p + 6, q + 6, r + 6))]
    # non-convex bottom and top, star-shaped from their first vertex (0, 0)
    faces = [(0, 5, 4, 3, 2, 1), tuple(range(6, 12))]
    faces += [(i, (i + 1) % 6, (i + 1) % 6 + 6, i + 6) for i in range(6)]
    return Polyhedron3(verts, tets, faces)


class TestUnitBallVolume:
    def test_small_dimensions(self):
        assert unit_ball_volume(1) == pytest.approx(2.0, abs=1e-15)
        assert unit_ball_volume(2) == pytest.approx(math.pi, abs=1e-15)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            unit_ball_volume(0)
        with pytest.raises(ValueError):
            unit_ball_volume(-3)


class TestRowNorms:
    @pytest.mark.parametrize("width", range(1, 13))
    @pytest.mark.parametrize("layout", ["C", "F", "sliced"])
    def test_row_norms_match_numpy_bit_for_bit(self, width, layout):
        # the sampler's and the sphere net's points are divided by these norms,
        # so a change in NumPy's reduction order shows here by name first
        wide = np.random.default_rng(width).standard_normal((300, 2 * width))
        wide[::7] = 0.0  # rows of zeros
        x = {"C": np.ascontiguousarray(wide[:, :width]),
             "F": np.asfortranarray(wide[:, :width]), "sliced": wide[:, ::2]}[layout]
        for scaled in (x, x * 1e-160, x * 1e160, x[:0]):
            with np.errstate(over="ignore", under="ignore"):
                want = np.linalg.norm(scaled, axis=1)
                assert row_norms(scaled).tobytes() == want.tobytes()

    def test_leaves_its_input_alone(self):
        x = np.arange(6.0).reshape(3, 2)
        row_norms(x)
        assert np.array_equal(x, np.arange(6.0).reshape(3, 2))


class TestHausdorffMass:
    def test_known_masses(self):
        assert hausdorff_mass(Sphere(2)) == pytest.approx(4.0 * math.pi, rel=1e-14)
        assert hausdorff_mass(Cube(5)) == 1.0
        assert hausdorff_mass(IntervalUniform()) == 1.0
        assert hausdorff_mass(Ball(3)) == pytest.approx(unit_ball_volume(3), rel=1e-15)
        poly = Polyline([[0, 0], [1, 0], [1, 2]])
        assert hausdorff_mass(poly) == pytest.approx(3.0, rel=1e-14)

    def test_sphere_identity(self):
        for d in (1, 2, 3, 5):
            assert hausdorff_mass(Sphere(d)) == (d + 1) * unit_ball_volume(d + 1)

    def test_no_mass_for_witness_only_domains(self):
        with pytest.raises(UnsupportedDomainError):
            hausdorff_mass(Cantor())
        with pytest.raises(UnsupportedDomainError):
            hausdorff_mass(ArcsineInterval())


class TestLimitConstant:
    def test_circle_is_pi(self):
        assert limit_constant(Sphere(1), 1.0) == pytest.approx(math.pi, rel=1e-12)

    def test_sphere2_is_two(self):
        assert limit_constant(Sphere(2), 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_ball2_is_one(self):
        assert limit_constant(Ball(2), 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_cube2(self):
        # (2 / (2 pi))^(1/2)
        assert limit_constant(Cube(2), 1.0) == pytest.approx(
            math.sqrt(1.0 / math.pi), rel=1e-10
        )
        assert limit_constant(Cube(2), 1.0) == pytest.approx(0.5641895835, abs=1e-9)

    def test_interval_and_polyline(self):
        assert limit_constant(IntervalUniform(), 1.0) == 0.5
        poly = Polyline([[0, 0], [3, 4]])  # length 5
        assert limit_constant(poly, 1.0) == pytest.approx(2.5, rel=1e-14)

    def test_p_power_structure(self):
        domains = [Sphere(1), Sphere(2), IntervalUniform(), Ball(2), Cube(3),
                   unit_box_polyhedron()]
        for domain in domains:
            base = limit_constant(domain, 1.0)
            for p in (1.0, 2.0, 3.5):
                assert limit_constant(domain, p) == pytest.approx(base**p, rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_obtuse_polyhedron(self, p):
        octahedron = regular_octahedron()
        assert min_dihedral_angle(octahedron) == pytest.approx(math.acos(-1.0 / 3.0),
                                                               abs=1e-12)
        assert limit_constant(octahedron, p) == pytest.approx(
            ((4.0 / 3.0) / math.pi) ** (p / 3.0), rel=1e-12)
        if p == 1.0:
            assert limit_constant(octahedron, p) == pytest.approx(0.7515011011912177,
                                                                  rel=1e-12)

    def test_box_polyhedron_matches_cube3(self):
        assert limit_constant(unit_box_polyhedron(), 1.0) == pytest.approx(
            limit_constant(Cube(3), 1.0), abs=1e-12
        )

    def test_circle_matches_curve_formula(self):
        # closed circle treated as a curve of length 2 pi: constant length/2
        assert limit_constant(Sphere(1), 1.0) == pytest.approx(
            2.0 * math.pi / 2.0, rel=1e-12
        )

    def test_unsupported(self):
        with pytest.raises(UnsupportedDomainError):
            limit_constant(Ball(1), 1.0)
        with pytest.raises(UnsupportedDomainError):
            limit_constant(Cantor(), 1.0)
        with pytest.raises(UnsupportedDomainError):
            limit_constant(ArcsineInterval(), 1.0)
        with pytest.raises(ValueError):
            limit_constant(Sphere(2), 0.5)
        with pytest.raises(ValueError, match="moment order p"):
            limit_constant(Sphere(2), math.nan)  # once returned nan


class TestDihedralAngles:
    def test_unit_box(self):
        assert min_dihedral_angle(unit_box_polyhedron()) == pytest.approx(
            math.pi / 2.0, abs=1e-9
        )

    def test_equilateral_prism(self):
        assert min_dihedral_angle(equilateral_prism()) == pytest.approx(
            math.pi / 3.0, abs=1e-9
        )

    def test_regular_tetrahedron(self):
        assert min_dihedral_angle(regular_tetrahedron()) == pytest.approx(
            math.acos(1.0 / 3.0), abs=1e-9
        )

    @pytest.mark.parametrize("arm", [3, 2])
    def test_l_prism_has_one_reflex_edge(self, arm):
        # the faces over the L are not convex: the reflex edge is found from
        # the normals, whatever a face's vertex mean
        angles = sorted(_dihedral_angles(l_prism(arm)))
        assert angles == pytest.approx([math.pi / 2.0] * 17 + [3.0 * math.pi / 2.0],
                                       rel=0, abs=1e-12)

    def test_clockwise_winding_gives_the_same_angles(self):
        box = unit_box_polyhedron()
        inward = Polyhedron3(box.vertices, box.tetrahedra, [f[::-1] for f in box.faces])
        assert np.array_equal(np.sort(_dihedral_angles(inward)),
                              np.sort(_dihedral_angles(box)))


class TestPolyhedronValidation:
    def test_volume_consistency(self):
        box = unit_box_polyhedron()
        assert box.volume == pytest.approx(1.0, rel=1e-12)
        prism = equilateral_prism()
        assert prism.volume == pytest.approx(math.sqrt(3.0) / 4.0, rel=1e-12)
        tet = regular_tetrahedron()
        assert tet.volume == pytest.approx(8.0 / 3.0, rel=1e-12)

    def test_inconsistent_decomposition_rejected(self):
        box = unit_box_polyhedron()
        with pytest.raises(InvalidGeometryError):
            Polyhedron3(box.vertices, box.tetrahedra[:3], box.faces)

    def test_degenerate_tet_rejected(self):
        verts = [[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]]
        with pytest.raises(InvalidGeometryError, match="positive volume"):
            Polyhedron3(verts, [(0, 1, 2, 3)], regular_tetrahedron().faces)

    def test_inconsistent_winding_rejected(self):
        # the box with its z = 0 face reversed still has volume 1 by the face
        # sum's absolute value
        box = unit_box_polyhedron()
        with pytest.raises(InvalidGeometryError, match="wound consistently"):
            Polyhedron3(box.vertices, box.tetrahedra, [box.faces[0][::-1]] + box.faces[1:])

    def test_open_surface_rejected(self):
        box = unit_box_polyhedron()
        with pytest.raises(InvalidGeometryError, match="not closed"):
            Polyhedron3(box.vertices, box.tetrahedra, [box.faces[0]] + box.faces[2:])

    def test_repeated_face_vertex_rejected(self):
        box = unit_box_polyhedron()
        with pytest.raises(InvalidGeometryError, match="repeats vertex 0"):
            Polyhedron3(box.vertices, box.tetrahedra, [(0, 0, 3, 2, 1)] + box.faces[1:])

    def test_contains(self):
        box = unit_box_polyhedron()
        flags = box.contains_many(np.array([[0.5, 0.5, 0.5], [0.0, 0.0, 0.0],
                                            [1.5, 0.5, 0.5], [0.2, 0.3, 0.4],
                                            [-0.1, 0.5, 0.5]]))
        assert flags.tolist() == [True, True, False, True, False]

    @pytest.mark.parametrize("tol", [1e-12, 1e-9])
    @pytest.mark.parametrize("make", [unit_box_polyhedron, regular_tetrahedron,
                                      equilateral_prism], ids=lambda f: f.__name__)
    def test_contains_many_matches_the_loop_over_tetrahedra(self, make, tol):
        # contains_many takes several tetrahedra per product; the oracle is one
        # barycentric test per tetrahedron, or-ed, and the masks must agree
        # bit for bit, on the boundary too
        domain = make()

        def loop(pts):
            inside = np.zeros(len(pts), dtype=bool)
            for a, w in zip(domain.tet_origins, domain.tet_inverses):
                lam = (pts - a) @ w.T
                inside |= np.all(lam >= -tol, axis=1) & (lam.sum(axis=1) <= 1.0 + tol)
            return inside

        rng = np.random.default_rng(17)
        v = domain.vertices
        lo, hi = v.min(axis=0), v.max(axis=0)
        spread = lo + (hi - lo) * rng.uniform(-0.1, 1.1, (20000, 3))
        on_faces, off_faces = [], []
        for f in domain.faces:
            corners = v[list(f)]
            pts = rng.dirichlet(np.ones(len(f)), 300) @ corners
            unit = domain.face_normal(f) / np.linalg.norm(domain.face_normal(f))
            on_faces.append(pts)
            # just inside and just outside, around the tolerance
            step = rng.choice([-1.0, 1.0], (300, 1)) * rng.choice([0.5, 1.0, 2.0], (300, 1))
            off_faces.append(pts + step * tol * unit)
        on_grid = np.clip(np.round(spread * 8.0) / 8.0, lo, hi)  # on faces, edges and vertices
        for pts in (spread, np.concatenate(on_faces), np.concatenate(off_faces), on_grid, v):
            # the row count sets how many tetrahedra share a product, and its shape
            for m in (1, 2, 5, 3000, len(pts)):
                assert np.array_equal(domain.contains_many(pts[:m], tol), loop(pts[:m]))
        assert domain.contains_many(v, tol).all()
        assert domain.contains_many(np.concatenate(on_faces), tol).all()

    @pytest.mark.parametrize("make", [unit_box_polyhedron, regular_tetrahedron,
                                      equilateral_prism], ids=lambda f: f.__name__)
    def test_box_form_is_conservative(self, make):
        # a box with a point that passes the point test at 1e-12 passes the
        # box test at 1e-9; a box far from the solid fails it
        domain = make()
        rng = np.random.default_rng(23)
        v = domain.vertices
        lo, hi = v.min(axis=0), v.max(axis=0)
        mid = lo + (hi - lo) * rng.uniform(-0.3, 1.3, (400, 3))
        half = (hi - lo) * rng.uniform(0.0, 0.2, (400, 3)) * rng.choice([0.0, 1.0], (400, 1))
        offsets = np.concatenate([rng.uniform(-1.0, 1.0, (300, 3)),
                                  np.array(list(itertools.product((-1.0, 1.0), repeat=3)))])
        pts = (mid[:, None, :] + offsets * half[:, None, :]).reshape(-1, 3)
        hit = domain.contains_many(pts).reshape(len(mid), -1).any(axis=1)
        held = domain.contains_many(mid, 1e-9, half)
        assert 50 < hit.sum() < 350 and held[hit].all()
        # half-width 0: the point test at the same tolerance, bit for bit
        assert np.array_equal(domain.contains_many(mid, 1e-9, 0.0 * half),
                              domain.contains_many(mid, 1e-9))
        # the box form tests each barycentric bound on its own, so a box near
        # a face plane's extension may pass; three diameters out, none can
        away = rng.normal(size=(400, 3))
        away *= 3.0 * domain.diameter / np.linalg.norm(away, axis=1, keepdims=True)
        assert not domain.contains_many((lo + hi) / 2.0 + away, 1e-9, half).any()

    @pytest.mark.parametrize("make", [unit_box_polyhedron, regular_tetrahedron,
                                      equilateral_prism], ids=lambda f: f.__name__)
    def test_triangles_are_the_face_fans(self, make):
        domain = make()
        assert domain.triangles == [(f[0], f[i], f[i + 1]) for f in domain.faces
                                    for i in range(1, len(f) - 1)]

    def test_face_not_star_shaped_from_its_first_vertex_rejected(self):
        # the L-prism's bottom face listed from the corner (3, 0): the fan
        # triangle (3,0)-(1,3)-(1,1) runs against the face and would put
        # probe points outside the solid
        prism = l_prism(3)
        bottom = prism.faces[0]
        faces = [bottom[1:] + bottom[:1]] + prism.faces[1:]
        with pytest.raises(InvalidGeometryError, match="not star-shaped"):
            Polyhedron3(prism.vertices, prism.tetrahedra, faces)
        # listed from (0, 0), every fan triangle runs with the face
        assert len(prism.triangles) == 2 * 4 + 6 * 2

    def test_vertex_index_out_of_range_rejected(self):
        tet = regular_tetrahedron()
        with pytest.raises(InvalidGeometryError, match="tetrahedron 0"):
            Polyhedron3(tet.vertices, [(0, 1, 2, -1)], tet.faces)
        with pytest.raises(InvalidGeometryError, match="face 1"):
            Polyhedron3(tet.vertices, tet.tetrahedra, [(0, 2, 1), (0, 1, 9), (0, 9, 2),
                                                       (1, 2, 9)])

    def test_face_with_two_vertices_rejected(self):
        # [4, 5] runs both of its own sides, so the edge check alone passes it
        tet = regular_tetrahedron()
        verts = np.vstack([tet.vertices, [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]])
        with pytest.raises(InvalidGeometryError, match=r"face 4 \[4, 5\] needs at least 3"):
            Polyhedron3(verts, tet.tetrahedra, tet.faces + [(4, 5)])


class TestDomainValidation:
    def test_bad_dimensions(self):
        for cls in (Sphere, Ball, Cube):
            with pytest.raises(ValueError):
                cls(0)

    def test_polyline_validation(self):
        with pytest.raises(ValueError):
            Polyline([[0.0, 0.0]])
        with pytest.raises(ValueError):
            Polyline([[0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            Polyline([[0.0, 0.0], [math.inf, 0.0]])

    def test_cantor_depth(self):
        with pytest.raises(ValueError):
            Cantor(0)
        assert Cantor().depth == 40
        assert Cantor().intrinsic_dim == pytest.approx(LOG2_OVER_LOG3)


class TestCatalogParameters:
    """The constructors take a dimension or depth only as an integer >= 1:
    a float, string or bool would stand for another domain."""

    @pytest.mark.parametrize("make", [
        lambda: Sphere(2.5), lambda: Sphere(True), lambda: Ball(2.0), lambda: Cube("2"),
        lambda: Cube(0), lambda: Cantor(2.5), lambda: Cantor(False),
        lambda: unit_ball_volume(True),
    ], ids=["sphere-float", "sphere-bool", "ball-float", "cube-str", "cube-0", "cantor-float",
            "cantor-bool", "unit-ball-volume-bool"])
    def test_rejected(self, make):
        with pytest.raises(ValueError, match="must be an integer"):
            make()

    def test_numpy_integers_are_stored_as_int(self):
        sphere = Sphere(np.int64(2))
        assert type(sphere.d) is int and sphere == Sphere(2)
        assert type(Cantor(np.int32(12)).depth) is int
        assert json.dumps(domain_to_dict(sphere)) == json.dumps(domain_to_dict(Sphere(2)))


class TestRegularityWitness:
    def test_interval_witness(self):
        w = regularity_witness(IntervalUniform())
        assert (w.s, w.c_lower, w.c_upper, w.r0) == (1, 1.0, 2.0, 0.5)

    def test_cube2_witness(self):
        w = regularity_witness(Cube(2))
        assert w.c_lower == pytest.approx(math.pi / 4.0, rel=1e-14)
        assert w.c_upper == pytest.approx(math.pi, rel=1e-14)

    def test_cantor_witness_dimension(self):
        w = regularity_witness(Cantor())
        assert w.s == pytest.approx(LOG2_OVER_LOG3)

    @pytest.mark.parametrize("make,omega", [
        (equilateral_prism, math.pi / 3.0),
        (regular_tetrahedron, 3.0 * math.acos(1.0 / 3.0) - math.pi),
    ], ids=["prism", "tetrahedron"])
    def test_min_vertex_solid_angle_is_exact(self, make, omega):
        # c_lower = (smallest vertex solid angle) / (3 volume)
        domain = make()
        w = regularity_witness(domain)
        assert w.c_lower * 3.0 * domain.volume == pytest.approx(omega, rel=0, abs=1e-12)

    def test_unit_box_witness_c_lower(self):
        w = regularity_witness(unit_box_polyhedron())
        assert w.c_lower == pytest.approx(math.pi / 6.0, rel=0, abs=1e-12)

    @pytest.mark.parametrize("make", [unit_box_polyhedron, equilateral_prism,
                                      regular_tetrahedron], ids=lambda f: f.__name__)
    def test_witness_ignores_face_order_and_rotation(self, make):
        # the edges, and so the witness, come from the faces whatever their
        # order or the vertex each face's list starts at
        poly = make()
        faces = [f[1:] + f[:1] for f in reversed(poly.faces)]
        again = Polyhedron3(poly.vertices, poly.tetrahedra, faces)
        assert regularity_witness(again) == regularity_witness(poly)

    def test_witness_invariants(self):
        for domain in (IntervalUniform(), ArcsineInterval(), Cube(2), Cube(3),
                       Sphere(1), Sphere(2), Ball(2), Ball(3), Cantor(),
                       Polyline([[0, 0], [1, 0], [1, 2]]), unit_box_polyhedron()):
            w = regularity_witness(domain)
            assert 0 < w.c_lower <= w.c_upper
            assert w.r0 > 0

    def test_invalid_witness_fields(self):
        with pytest.raises(ValueError):
            RegularityWitness(s=1, c_lower=2.0, c_upper=1.0, r0=0.5)
        with pytest.raises(ValueError):
            RegularityWitness(s=1, c_lower=1.0, c_upper=2.0, r0=0.0)

    def test_witness_bounds_empirically(self):
        # Monte Carlo ball measures must respect the witness band.
        for domain in (Cube(2), Ball(2), Sphere(2), unit_box_polyhedron(), Cantor(20)):
            w = regularity_witness(domain)
            centers = sample(domain, 25, SeedSpec(11, 0)).points
            rng = np.random.default_rng(12)
            for i, x in enumerate(centers):
                r = float(rng.uniform(0.05, 0.9)) * w.r0
                est, half = ball_measure(domain, x, r, 40_000, SeedSpec(13, i))
                assert est + 3 * half >= w.c_lower * w.phi(r) * 0.999
                assert est - 3 * half <= w.c_upper * w.phi(r) * 1.001


class TestSerialization:
    def test_round_trip_all_kinds(self):
        # the way the CLI writes and reads domain files
        domains = [
            Sphere(2), Ball(3), Cube(4), IntervalUniform(), ArcsineInterval(),
            Cantor(20), Polyline([[0, 0], [1, 0], [1, 2]]), unit_box_polyhedron(),
        ]
        for domain in domains:
            again = domain_from_dict(json.loads(json.dumps(domain_to_dict(domain))))
            assert again == domain

    def test_polyhedron_edges_field_is_ignored(self):
        # documents written when the edges were an input still load
        box = unit_box_polyhedron()
        doc = domain_to_dict(box)
        doc["params"]["edges"] = [[0, 1, 0, 2]]
        assert "edges" not in domain_to_dict(box)["params"]
        assert domain_from_dict(doc) == box

    @pytest.mark.parametrize("doc", [
        {"kind": "Cantor", "params": {"dpeth": 10}},
        {"kind": "Sphere", "params": {"d": 2, "radius": 2.0}},
        {"kind": "Polyline", "params": {"vertices": [[0, 0], [1, 0]], "closed": True}},
        {"kind": "Cube", "params": {"d": 2}, "junk": 1},
    ], ids=["misspelt", "sphere-radius", "polyline-closed", "top-level"])
    def test_unknown_keys_are_refused(self, doc):
        # they were dropped: the misspelt depth studied Cantor(40)
        with pytest.raises(ValueError, match="takes no keys"):
            domain_from_dict(doc)

    def test_unknown_kind(self):
        with pytest.raises(UnsupportedDomainError):
            domain_from_dict({"kind": "Torus", "params": {}})

    @pytest.mark.parametrize("doc", [
        {"kind": "Sphere", "params": {"d": 1.9}},
        {"kind": "Ball", "params": {"d": 2.0}},
        {"kind": "Cube", "params": {"d": True}},
        {"kind": "Cube", "params": {"d": "2"}},
        {"kind": "Cube", "params": {}},
        {"kind": "Cantor", "params": {"depth": 12.9}},
        {"kind": "Cantor", "params": {"depth": False}},
    ])
    def test_non_integer_parameters_are_rejected(self, doc):
        # int() would truncate these to another domain
        with pytest.raises(ValueError, match="must be an integer"):
            domain_from_dict(doc)

    @pytest.mark.parametrize("key,row,col,value", [
        ("tetrahedra", 0, 3, 6.9), ("tetrahedra", 0, 0, "0"), ("faces", 0, 0, False),
        ("vertices", 0, 0, "0"), ("vertices", 6, 2, True),
    ], ids=["float-index", "string-index", "bool-face-index", "string-coordinate",
            "bool-coordinate"])
    def test_polyhedron_numbers_follow_the_catalog_rules(self, key, row, col, value):
        # int() built index 6.9 as vertex 6, and the box compared equal to
        # unit_box_polyhedron(); a float conversion took "0" and true as 0.0 and 1.0
        doc = domain_to_dict(unit_box_polyhedron())
        doc["params"][key][row][col] = value
        with pytest.raises(ValueError, match="integer vertex indices|vertex coordinate"):
            domain_from_dict(doc)

    @pytest.mark.parametrize("value", ["0", True], ids=["string", "bool"])
    def test_polyline_coordinates_are_real_numbers(self, value):
        doc = {"kind": "Polyline", "params": {"vertices": [[0, 0], [1, value], [1, 2]]}}
        with pytest.raises(ValueError, match="vertex coordinate"):
            domain_from_dict(doc)

    def test_integer_parameters_are_kept(self):
        assert domain_from_dict({"kind": "Sphere", "params": {"d": np.int64(2)}}) == Sphere(2)
        assert domain_from_dict({"kind": "Cantor"}) == Cantor(40)
