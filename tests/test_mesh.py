import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from fluxrec.mesh import (
    BoundaryTag,
    Mesh,
    MeshError,
    bisect,
    boundary_paths,
    build_initial_mesh,
)

from helpers import angles, boundary_tag_map, patches, recursive_bisect


def brute_force_conforming(mesh):
    """Every edge appears in exactly two triangles or is tagged boundary."""
    edge_count = {}
    for tri in mesh.triangles:
        for i, j in ((0, 1), (1, 2), (2, 0)):
            key = tuple(sorted((int(tri[i]), int(tri[j]))))
            edge_count[key] = edge_count.get(key, 0) + 1
    tags = boundary_tag_map(mesh)
    for key, cnt in edge_count.items():
        if cnt == 2:
            assert key not in tags
        elif cnt == 1:
            assert key in tags, f"hanging or untagged boundary edge {key}"
        else:
            raise AssertionError(f"edge {key} in {cnt} triangles")


def tagged_length(mesh, tag):
    return float(mesh.face_lengths[mesh.faces_with_tag(tag)].sum())


def covered_by_initial(mesh, initial, tag):
    """Every tagged face lies inside a tagged face of the initial mesh."""
    init_segs = [initial.vertices[initial.faces[f]]
                 for f in initial.faces_with_tag(tag)]
    for f in mesh.faces_with_tag(tag):
        a, b = mesh.vertices[mesh.faces[f]]
        ok = False
        for pa, pb in init_segs:
            seg_len = np.linalg.norm(pb - pa)
            if (abs(np.linalg.norm(a - pa) + np.linalg.norm(pb - a) - seg_len)
                    < 1e-12
                    and abs(np.linalg.norm(b - pa) + np.linalg.norm(pb - b)
                            - seg_len) < 1e-12):
                ok = True
                break
        assert ok
    return True


class TestBuildInitialMesh:
    def test_square_two_triangles(self, square_mesh):
        assert square_mesh.n_triangles == 2
        assert square_mesh.n_vertices == 4
        boundary = np.flatnonzero(
            square_mesh.face_tags != int(BoundaryTag.INTERIOR))
        assert boundary.size == 4
        assert square_mesh.faces_with_tag(BoundaryTag.GAMMA_I).size == 1
        # split along the (0,0)-(1,1) diagonal
        interior = square_mesh.faces_with_tag(BoundaryTag.INTERIOR)
        assert interior.size == 1
        diag = square_mesh.vertices[square_mesh.faces[interior[0]]]
        assert np.allclose(sorted(map(tuple, diag)), [(0, 0), (1, 1)])

    def test_lshape_six_triangles(self, lshape_mesh):
        assert lshape_mesh.n_triangles == 6
        brute_force_conforming(lshape_mesh)
        boundary = np.flatnonzero(
            lshape_mesh.face_tags != int(BoundaryTag.INTERIOR))
        assert boundary.size == 8
        assert lshape_mesh.faces_with_tag(BoundaryTag.GAMMA_I).size == 2
        assert np.isclose(sum(lshape_mesh.areas()), 0.75)

    def test_empty_gamma_i_rejected(self):
        with pytest.raises(MeshError, match="incomplete"):
            build_initial_mesh("square", ())

    def test_unknown_domain(self):
        with pytest.raises(MeshError, match="unknown domain"):
            build_initial_mesh("hexagon", "bottom")

    def test_unknown_side(self):
        with pytest.raises(MeshError, match="unknown side"):
            build_initial_mesh("square", "west")

    def test_full_boundary_selection_rejected(self):
        with pytest.raises(MeshError, match="whole boundary"):
            build_initial_mesh("square", ("bottom", "top", "left", "right"))

    def test_refinement_edges_are_longest(self, square_mesh, lshape_mesh):
        for mesh in (square_mesh, lshape_mesh):
            p = mesh.vertices[mesh.triangles]
            for t in range(mesh.n_triangles):
                r = mesh.refinement_edge[t]
                lens = [np.linalg.norm(p[t, (k + 2) % 3] - p[t, (k + 1) % 3])
                        for k in range(3)]
                assert lens[r] == max(lens)


class TestBisect:
    def test_marked_both(self, square_mesh):
        fine = bisect(square_mesh, [0, 1])
        assert fine.n_triangles == 4
        assert fine.n_vertices == 5
        assert np.allclose(fine.vertices[4], [0.5, 0.5])
        brute_force_conforming(fine)

    def test_closure_forces_neighbor(self, square_mesh):
        fine = bisect(square_mesh, [0])
        assert fine.n_triangles == 4
        brute_force_conforming(fine)

    def test_empty_marking_is_identity(self, square_mesh):
        assert bisect(square_mesh, []) is square_mesh

    def test_out_of_range(self, square_mesh):
        with pytest.raises(MeshError, match="out of range"):
            bisect(square_mesh, [7])

    def test_children_generation(self, square_mesh):
        fine = bisect(square_mesh, [0, 1])
        assert (fine.generation == 1).all()
        finer = bisect(fine, [0])
        assert finer.generation.max() == 2

    def test_children_areas_halved(self, square_mesh):
        fine = bisect(square_mesh, [0, 1])
        assert np.allclose(fine.areas(), 0.25)
        assert np.allclose(np.sqrt(fine.areas()), 0.5)

    def test_max_size_non_increasing(self, lshape_mesh):
        rng = np.random.default_rng(7)
        mesh = lshape_mesh
        prev = np.sqrt(mesh.areas()).max()
        for _ in range(8):
            marked = rng.choice(mesh.n_triangles,
                                size=max(1, mesh.n_triangles // 4),
                                replace=False)
            mesh = bisect(mesh, marked)
            current = np.sqrt(mesh.areas()).max()
            assert current <= prev + 1e-15
            prev = current

    def test_boundary_point_set_preserved(self, lshape_mesh):
        rng = np.random.default_rng(3)
        mesh = lshape_mesh
        for tag in (BoundaryTag.GAMMA_A, BoundaryTag.GAMMA_I):
            assert np.isclose(tagged_length(mesh, tag),
                              tagged_length(lshape_mesh, tag))
        for _ in range(6):
            marked = rng.choice(mesh.n_triangles, size=2, replace=False)
            mesh = bisect(mesh, marked)
            for tag in (BoundaryTag.GAMMA_A, BoundaryTag.GAMMA_I):
                assert np.isclose(tagged_length(mesh, tag),
                                  tagged_length(lshape_mesh, tag))
                covered_by_initial(mesh, lshape_mesh, tag)

    def test_uniform_counts_double(self, square_mesh, lshape_mesh):
        for mesh, expect in ((square_mesh, [2, 4, 8, 16]),
                             (lshape_mesh, [6, 12, 24, 48])):
            counts = [mesh.n_triangles]
            for _ in range(3):
                mesh = bisect(mesh, np.arange(mesh.n_triangles))
                counts.append(mesh.n_triangles)
            assert counts == expect

    def test_angle_classes_stable(self, square_mesh):
        """All angles stay inside the set produced by two uniform rounds."""
        uniform2 = bisect(bisect(square_mesh, [0, 1]), [0, 1, 2, 3])
        angle_set = np.unique(np.round(angles(uniform2), 12))
        rng = np.random.default_rng(11)
        mesh = square_mesh
        for _ in range(10):
            marked = rng.choice(mesh.n_triangles, size=1)
            mesh = bisect(mesh, marked)
            observed = np.unique(np.round(angles(mesh), 12))
            assert np.all(np.isin(observed, angle_set))


def _coords(mesh, ids):
    return tuple(map(tuple, mesh.vertices[ids].tolist()))


def _canonical(mesh):
    """Id-free description of a mesh: triangles as coordinates starting at
    the newest vertex plus generation, tagged boundary faces, and every
    midpoint with its parent edge."""
    rot = (mesh.refinement_edge[:, None] + np.arange(3)) % 3
    tris = np.take_along_axis(mesh.triangles, rot, axis=1)
    triangles = sorted((_coords(mesh, tri), int(g))
                       for tri, g in zip(tris, mesh.generation))
    tags = {(frozenset(_coords(mesh, list(key))), int(tag))
            for key, tag in boundary_tag_map(mesh).items()}
    born = np.flatnonzero(mesh.vertex_parents[:, 0] >= 0)
    parents = {(_coords(mesh, [v])[0],
                frozenset(_coords(mesh, mesh.vertex_parents[v])))
               for v in born}
    return triangles, tags, parents


def _centroid_keys(mesh):
    return [tuple(c) for c in
            np.round(mesh.vertices[mesh.triangles].mean(axis=1), 12).tolist()]


class TestBisectOracle:
    """The array NVB gives the recursive closure's triangles, tags and
    vertex parents; ids differ, so markings are matched by centroid."""

    @given(domain=st.sampled_from(["square", "lshape"]), data=st.data())
    @hyp_settings(max_examples=40, deadline=None)
    def test_matches_recursive_closure(self, domain, data):
        mesh = oracle = build_initial_mesh(domain, "bottom")
        for _ in range(data.draw(st.integers(1, 6), label="steps")):
            marked = data.draw(st.lists(
                st.integers(0, mesh.n_triangles - 1), min_size=1,
                max_size=max(1, mesh.n_triangles // 3)), label="marked")
            by_centroid = {c: t for t, c in enumerate(_centroid_keys(oracle))}
            centroids = _centroid_keys(mesh)
            oracle_marked = [by_centroid[centroids[t]] for t in marked]
            mesh = bisect(mesh, marked)
            oracle = recursive_bisect(oracle, oracle_marked)
            assert mesh.n_vertices == oracle.n_vertices
            assert mesh.n_triangles == oracle.n_triangles
            assert _canonical(mesh) == _canonical(oracle)

    def test_new_vertices_have_old_parents(self, lshape_mesh):
        rng = np.random.default_rng(5)
        mesh = lshape_mesh
        for _ in range(6):
            n_old = mesh.n_vertices
            mesh = bisect(mesh, rng.choice(mesh.n_triangles, size=3))
            assert (mesh.vertex_parents[n_old:] < n_old).all()
            assert (mesh.refinement_edge == 0).all()


class TestMeshSize:
    def test_reference_triangle(self, square_mesh):
        assert np.allclose(np.sqrt(square_mesh.areas()), np.sqrt(0.5))
        bottom = square_mesh.faces_with_tag(BoundaryTag.GAMMA_I)[0]
        assert np.isclose(square_mesh.face_lengths[bottom], 1.0)

    def test_h_f_is_length(self, lshape_mesh):
        h_f = lshape_mesh.face_lengths
        pa = lshape_mesh.vertices[lshape_mesh.faces[:, 0]]
        pb = lshape_mesh.vertices[lshape_mesh.faces[:, 1]]
        assert np.allclose(h_f, np.linalg.norm(pb - pa, axis=1))


class TestPatches:
    def test_two_triangle_square(self, square_mesh):
        omega, d = patches(square_mesh)
        assert list(omega[0]) == [0, 1]
        assert list(omega[1]) == [0, 1]

    def test_against_brute_force(self, refined_square):
        mesh = refined_square
        omega, d = patches(mesh)
        tri_sets = [set(map(int, tri)) for tri in mesh.triangles]
        for t in range(mesh.n_triangles):
            omega_bf = {t}
            d_bf = set()
            for s in range(mesh.n_triangles):
                shared = tri_sets[t] & tri_sets[s]
                if len(shared) == 2:
                    omega_bf.add(s)
                if shared:
                    d_bf.add(s)
            assert set(map(int, omega[t])) == omega_bf
            assert set(map(int, d[t])) == d_bf
            assert omega_bf <= d_bf
            assert len(omega[t]) <= 4

    def test_symmetry(self, refined_square):
        _, d = patches(refined_square)
        for t, ids in enumerate(d):
            for s in ids:
                assert t in d[s]


class TestNormalsAndPaths:
    def test_boundary_normals_outward(self, lshape_mesh):
        mesh = lshape_mesh
        for f in np.flatnonzero(mesh.face_tags != int(BoundaryTag.INTERIOR)):
            t = mesh.face_tris[f, 0]
            centroid = mesh.vertices[mesh.triangles[t]].mean(axis=0)
            mid = mesh.vertices[mesh.faces[f]].mean(axis=0)
            assert (mid - centroid) @ mesh.face_normals[f] > 0

    def test_interior_normals_low_to_high(self, refined_square):
        mesh = refined_square
        for f in np.flatnonzero(mesh.face_tags == int(BoundaryTag.INTERIOR)):
            lo, hi = mesh.face_tris[f]
            assert lo < hi
            d = (mesh.vertices[mesh.triangles[hi]].mean(axis=0)
                 - mesh.vertices[mesh.triangles[lo]].mean(axis=0))
            assert d @ mesh.face_normals[f] > 0

    def test_face_table_recomputable(self, refined_square):
        mesh = refined_square
        rebuilt = Mesh(mesh.vertices.copy(), mesh.triangles.copy(),
                       mesh.refinement_edge.copy(), boundary_tag_map(mesh),
                       generation=mesh.generation.copy())
        assert np.array_equal(rebuilt.faces, mesh.faces)
        assert np.array_equal(rebuilt.face_tris, mesh.face_tris)
        assert np.array_equal(rebuilt.face_tags, mesh.face_tags)
        assert np.allclose(rebuilt.face_normals, mesh.face_normals)

    def test_gamma_i_path_ordered(self, refined_square):
        paths = boundary_paths(refined_square, BoundaryTag.GAMMA_I)
        assert len(paths) == 1
        pts = refined_square.vertices[paths[0]]
        assert np.allclose(pts[:, 1], 0.0)
        assert np.all(np.diff(pts[:, 0]) > 0)
