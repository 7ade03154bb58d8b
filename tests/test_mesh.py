import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from fluxrec.mesh import (
    BoundaryTag,
    Mesh,
    MeshError,
    bisect,
    boundary_arclength,
    build_initial_mesh,
    nvb_closure,
)

from helpers import (
    angles,
    arclength_chains,
    boundary_tag_map,
    dict_boundary_paths,
    dict_face_table,
    geometric_initial_mesh,
    GEOMETRIC_DOMAINS,
    nvb_chain,
    patches,
    recursive_bisect,
    unique_face_table,
)


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
                lens = [np.linalg.norm(p[t, (k + 2) % 3] - p[t, (k + 1) % 3])
                        for k in range(3)]
                assert lens[0] == max(lens)


def _gamma_i_selections():
    """Every GammaI selection of every domain: the non-empty proper
    subsets of its sides, 14 on the square and 62 on the L-shape."""
    for domain, spec in GEOMETRIC_DOMAINS.items():
        sides = list(spec["sides"])
        for r in range(1, len(sides)):
            for gamma_i in itertools.combinations(sides, r):
                yield pytest.param(domain, gamma_i,
                                   id=f"{domain}-{'+'.join(gamma_i)}")


@pytest.mark.parametrize("domain, gamma_i", list(_gamma_i_selections()))
def test_initial_mesh_matches_geometric_oracle(domain, gamma_i):
    """The stored domain tables equal the longest-edge, side-geometry
    construction rotated newest vertex first, face table included."""
    mesh = build_initial_mesh(domain, gamma_i)
    oracle = geometric_initial_mesh(domain, gamma_i)
    assert np.array_equal(mesh.vertices, oracle.vertices)
    assert np.array_equal(mesh.triangles, oracle.triangles)
    assert np.array_equal(mesh.face_tags[mesh.tri_faces],
                          oracle.face_tags[oracle.tri_faces])
    for name in ("faces", "face_tags", "face_tris", "face_normals"):
        assert getattr(mesh, name).tobytes() == \
            getattr(oracle, name).tobytes(), name


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
        assert bisect(square_mesh, np.array([], dtype=np.int64)) \
            is square_mesh

    def test_peak_memory_on_a_third_marked(self, square_mesh):
        """The parent-sized work arrays of the split die before the child's
        face table is built: on the 13-level uniform square with a third of
        its triangles marked, the traced peak is 11.0 MB (12.3 MB when they
        stayed alive through the ``Mesh`` constructor)."""
        mesh = square_mesh
        for _ in range(13):
            mesh = bisect(mesh, np.arange(mesh.n_triangles))
        marked = np.random.default_rng(0).choice(
            mesh.n_triangles, mesh.n_triangles // 3, replace=False)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fine = bisect(mesh, marked)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert fine.n_triangles == 25_451
        assert peak <= 11.7e6

    def test_marking_array_like(self, lshape_mesh):
        """A list, an int32 array and an array with repeats mark alike."""
        fine = bisect(lshape_mesh, [4, 1])
        for marked in (np.array([1, 4], dtype=np.int32),
                       np.array([4, 1, 4], dtype=np.uint8)):
            other = bisect(lshape_mesh, marked)
            assert np.array_equal(other.vertices, fine.vertices)
            assert np.array_equal(other.triangles, fine.triangles)

    def test_out_of_range(self, square_mesh):
        with pytest.raises(MeshError, match="out of range"):
            bisect(square_mesh, [7])

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
    """Id-free description of a mesh: triangles as coordinates in stored
    order, newest vertex first, tagged boundary faces, and every
    midpoint with its parent edge."""
    triangles = sorted(_coords(mesh, tri) for tri in mesh.triangles)
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
            kept = set(map(tuple, mesh.triangles.tolist()))
            mesh = bisect(mesh, rng.choice(mesh.n_triangles, size=3))
            assert (mesh.vertex_parents[n_old:] < n_old).all()
            # a child starts at its newest vertex, a midpoint of this step
            assert all(tri[0] >= n_old or tuple(tri) in kept
                       for tri in mesh.triangles.tolist())


class TestFaceTableOracle:
    """The one-sort face table against the former dict-taking constructor."""

    @given(domain=st.sampled_from(["square", "lshape"]), data=st.data())
    @hyp_settings(max_examples=40, deadline=None)
    def test_matches_dict_oracle(self, domain, data):
        """Bitwise on random NVB meshes, also with the triangles shuffled
        and the vertices of each triangle cyclically rotated."""
        mesh = nvb_chain(domain, data)[-1]
        m = mesh.n_triangles
        perm = np.array(data.draw(st.permutations(range(m)), label="perm"))
        shift = np.array(data.draw(st.lists(st.integers(0, 2), min_size=m,
                                            max_size=m), label="shift"))
        rot = (np.arange(3) + shift[:, None]) % 3
        edge_tags = mesh.face_tags[mesh.tri_faces]
        for tri, tags in (
                (mesh.triangles, edge_tags),
                (np.take_along_axis(mesh.triangles[perm], rot, axis=1),
                 np.take_along_axis(edge_tags[perm], rot, axis=1))):
            new = Mesh(mesh.vertices, tri, tags)
            old = dict_face_table(mesh.vertices, tri, boundary_tag_map(mesh))
            for name in ("faces", "tri_faces", "face_tris", "face_tags",
                         "face_normals", "face_lengths"):
                assert getattr(new, name).dtype == old[name].dtype, name
                assert getattr(new, name).tobytes() == old[name].tobytes(), \
                    name


class TestFaceTableSort:
    """The one unstable sort of the face table against ``np.unique``."""

    @given(domain=st.sampled_from(["square", "lshape"]), data=st.data())
    @hyp_settings(max_examples=40, deadline=None)
    def test_matches_unique_oracle(self, domain, data):
        """Bitwise on random NVB meshes, also with the triangles shuffled
        and the vertices of each triangle cyclically rotated, so equal keys
        meet in every order."""
        mesh = nvb_chain(domain, data)[-1]
        m = mesh.n_triangles
        perm = np.array(data.draw(st.permutations(range(m)), label="perm"))
        shift = np.array(data.draw(st.lists(st.integers(0, 2), min_size=m,
                                            max_size=m), label="shift"))
        rot = (np.arange(3) + shift[:, None]) % 3
        edge_tags = mesh.face_tags[mesh.tri_faces]
        for tri, tags in (
                (mesh.triangles, edge_tags),
                (np.take_along_axis(mesh.triangles[perm], rot, axis=1),
                 np.take_along_axis(edge_tags[perm], rot, axis=1))):
            new = Mesh(mesh.vertices, tri, tags)
            old = unique_face_table(tri, tags, mesh.n_vertices)
            for name, arr in old.items():
                assert getattr(new, name).dtype == arr.dtype, name
                assert getattr(new, name).tobytes() == arr.tobytes(), name


def _same_mesh(mesh):
    """A new mesh object with the arrays of ``mesh``."""
    return Mesh(mesh.vertices, mesh.triangles,
                mesh.face_tags[mesh.tri_faces], mesh.vertex_parents,
                mesh.level, mesh.root)


class TestNvbClosure:
    @given(domain=st.sampled_from(["square", "lshape"]), data=st.data())
    @hyp_settings(max_examples=40, deadline=None)
    def test_count_and_faces_match_bisect(self, domain, data):
        """The child count is the refined mesh's, and the cut faces are the
        parent edges of the new vertices, for markings with repeats."""
        mesh = nvb_chain(domain, data)[-1]
        marked = data.draw(st.lists(st.integers(0, mesh.n_triangles - 1),
                                    min_size=1, max_size=2 * mesh.n_triangles),
                           label="marked")
        split, n_fine = nvb_closure(mesh, marked)
        fine = bisect(_same_mesh(mesh), marked)
        assert n_fine == fine.n_triangles
        assert np.array_equal(fine.vertex_parents[mesh.n_vertices:],
                              mesh.faces[split])

    @given(domain=st.sampled_from(["square", "lshape"]), data=st.data())
    @hyp_settings(max_examples=20, deadline=None)
    def test_kept_closure_only_for_its_marking(self, domain, data):
        """A bisection after the closure of another marking equals one on a
        fresh mesh object."""
        mesh = nvb_chain(domain, data)[-1]
        first, second = (data.draw(st.lists(
            st.integers(0, mesh.n_triangles - 1), min_size=1,
            max_size=mesh.n_triangles), label=label)
            for label in ("first", "second"))
        nvb_closure(mesh, first)
        fine, fresh = bisect(mesh, second), bisect(_same_mesh(mesh), second)
        assert np.array_equal(fine.triangles, fresh.triangles)
        assert np.array_equal(fine.vertices, fresh.vertices)
        assert nvb_closure(mesh, second[::-1])[1] == fresh.n_triangles

    def test_empty_marking(self, lshape_mesh):
        split, n_fine = nvb_closure(lshape_mesh, [])
        assert not split.any() and n_fine == lshape_mesh.n_triangles

    def test_result_read_only(self, square_mesh):
        split, _ = nvb_closure(square_mesh, [0])
        with pytest.raises(ValueError):
            split[0] = False

    def test_out_of_range(self, square_mesh):
        with pytest.raises(MeshError, match="out of range"):
            nvb_closure(square_mesh, [0, -1])

    @pytest.mark.parametrize("refine", [nvb_closure, bisect])
    def test_mask_and_floats_rejected(self, square_mesh, refine):
        """A boolean mask of the last three of 32 triangles would refine
        triangles 0 and 1, and floats would be truncated to ids."""
        mesh = square_mesh
        for _ in range(4):
            mesh = bisect(mesh, np.arange(mesh.n_triangles))
        mask = np.arange(mesh.n_triangles) >= mesh.n_triangles - 3
        for bad, dtype in ((mask, "bool"), ([1.7, 3.2], "float64")):
            with pytest.raises(MeshError, match=f"integers, got dtype {dtype}"):
                refine(mesh, bad)
        for ids in ([], np.flatnonzero(mask).astype(np.int16),
                    np.flatnonzero(mask).astype(np.uint64)):
            refine(mesh, ids)
        assert nvb_closure(mesh, np.flatnonzero(mask))[1] == 38


def square_edge_tags(square_mesh):
    """Edge tags of the two-triangle square ``(1, 3, 0), (2, 0, 3)``:
    diagonal, bottom, right and diagonal, top, left."""
    tags = square_mesh.face_tags[square_mesh.tri_faces].copy()
    assert square_mesh.triangles.tolist() == [[1, 3, 0], [2, 0, 3]]
    assert tags.tolist() == [[0, 2, 1], [0, 1, 1]]
    return tags


def square_with(square_mesh, *tags):
    return Mesh(square_mesh.vertices, square_mesh.triangles, *tags)


class TestMeshErrors:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("coord", [0, 1])
    def test_non_finite_vertex_rejected(self, value, coord):
        """A NaN area passes a ``<= 0`` test and an infinite one is
        positive, so the coordinates are checked first."""
        vertices = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        vertices[2, coord] = value
        tags = [[BoundaryTag.GAMMA_A, BoundaryTag.GAMMA_A,
                 BoundaryTag.GAMMA_I]]
        with pytest.raises(MeshError, match="vertex coordinates must be "
                           "finite"):
            Mesh(vertices, [(0, 1, 2)], tags)

    def test_non_manifold_face(self):
        """Three triangles on the edge (0, 1)."""
        vertices = [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.5, -1.0),
                    (0.5, 2.0)]
        triangles = [(0, 1, 2), (1, 0, 3), (0, 1, 4)]
        with pytest.raises(MeshError, match=r"non-manifold.*\[\[0, 1\]\]"):
            Mesh(vertices, triangles, [[1, 1, 0]] * 3)

    @pytest.mark.parametrize("shape", ["columns", "rows", "flat", "float",
                                       "labels"])
    def test_edge_tags_wrong_shape(self, square_mesh, shape):
        """Also an ``(m,)`` array of refinement-edge labels passed before
        the tags, as the constructor once took them."""
        tags = square_edge_tags(square_mesh)
        bad = {"columns": (tags[:, :2],), "rows": (tags[:1],),
               "flat": (tags.ravel(),), "float": (tags.astype(float),),
               "labels": ([0, 0], tags)}[shape]
        with pytest.raises(MeshError, match=r"edge_tags must be an \(2, 3\)"):
            square_with(square_mesh, *bad)

    @pytest.mark.parametrize("value", [3, -1])
    def test_edge_tag_outside_enum(self, square_mesh, value):
        tags = square_edge_tags(square_mesh)
        tags[0, 2] = value
        with pytest.raises(MeshError, match=r"outside BoundaryTag: "
                           r"\[\[1, 3\]\] \(1 in all\)"):
            square_with(square_mesh, tags)

    def test_boundary_edge_tagged_interior(self, square_mesh):
        tags = square_edge_tags(square_mesh)
        tags[0, 1] = int(BoundaryTag.INTERIOR)
        with pytest.raises(MeshError, match=r"without a GammaA/GammaI tag: "
                           r"\[\[0, 1\]\]"):
            square_with(square_mesh, tags)

    @pytest.mark.parametrize("edge", [(0, 0), (1, 0)])
    @pytest.mark.parametrize("tag", [BoundaryTag.GAMMA_A, BoundaryTag.GAMMA_I])
    def test_interior_edge_tagged_boundary(self, square_mesh, edge, tag):
        """Either triangle's copy of the diagonal (0, 3) may carry the tag."""
        tags = square_edge_tags(square_mesh)
        tags[edge] = int(tag)
        with pytest.raises(MeshError, match=r"interior faces tagged "
                           r"GammaA/GammaI: \[\[0, 3\]\]"):
            square_with(square_mesh, tags)

    @pytest.mark.parametrize("shape", [(3, 2), (4, 3), (8,)])
    def test_vertex_parents_wrong_shape(self, square_mesh, shape):
        with pytest.raises(MeshError, match=r"vertex_parents must be an "
                           r"\(4, 2\) array, got shape"):
            square_with(square_mesh, square_edge_tags(square_mesh),
                        np.full(shape, -1))

    def test_pinched_path_rejected(self):
        """Two triangles touching at vertex 2: four GammaA faces meet there."""
        vertices = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.5), (0.0, 1.0),
                    (1.0, 1.0)]
        mesh = Mesh(vertices, [(0, 1, 2), (2, 4, 3)], [[1, 1, 2], [2, 1, 1]])
        with pytest.raises(MeshError, match="not a union of open paths"):
            boundary_arclength(mesh, BoundaryTag.GAMMA_A)
        assert arclength_chains(mesh, BoundaryTag.GAMMA_I) == [[0, 1], [3, 4]]

    def test_closed_loop_path_rejected(self, square_mesh):
        tags = square_edge_tags(square_mesh)
        tags[tags == int(BoundaryTag.GAMMA_I)] = int(BoundaryTag.GAMMA_A)
        mesh = square_with(square_mesh, tags)
        with pytest.raises(MeshError, match="closed loop"):
            boundary_arclength(mesh, BoundaryTag.GAMMA_A)


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
                       mesh.face_tags[mesh.tri_faces].copy())
        assert np.array_equal(rebuilt.faces, mesh.faces)
        assert np.array_equal(rebuilt.face_tris, mesh.face_tris)
        assert np.array_equal(rebuilt.face_tags, mesh.face_tags)
        assert np.allclose(rebuilt.face_normals, mesh.face_normals)

    @given(domain=st.sampled_from(["square", "lshape"]),
           gamma_i=st.sampled_from([("bottom",), ("left", "right"),
                                    ("top", "bottom", "right")]),
           data=st.data())
    @hyp_settings(max_examples=40, deadline=None)
    def test_paths_match_dict_walk(self, domain, gamma_i, data):
        """Chains and their order equal the adjacency-dict walk's."""
        mesh = build_initial_mesh(domain, gamma_i)
        for _ in range(data.draw(st.integers(0, 5), label="levels")):
            mesh = bisect(mesh, data.draw(st.lists(
                st.integers(0, mesh.n_triangles - 1), min_size=1,
                max_size=max(1, mesh.n_triangles // 2)), label="marked"))
        for tag in (BoundaryTag.GAMMA_A, BoundaryTag.GAMMA_I):
            want = dict_boundary_paths(mesh, tag)
            assert arclength_chains(mesh, tag) == want

    def test_gamma_i_path_ordered(self, refined_square):
        paths = arclength_chains(refined_square, BoundaryTag.GAMMA_I)
        assert len(paths) == 1
        pts = refined_square.vertices[paths[0]]
        assert np.allclose(pts[:, 1], 0.0)
        assert np.all(np.diff(pts[:, 0]) > 0)
