import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from competefem.discretization import (
    DomainMesh,
    LevelMismatchError,
    MeshError,
    build_hierarchy,
    grad_norm_p,
    interval_mesh,
    interval_mesh_from_nodes,
    prolongate,
    sample,
    triangle_mesh,
    unit_square_mesh,
)
from competefem.discretization import (
    _grad_force,
    _grad_integral,
    _gradients,
    _qp_values,
    _value_integral,
    _value_load,
)

import oracles
from oracles import lebesgue_norm


@pytest.fixture(scope="module")
def square_hierarchy():
    """Unit square, 5 levels (225 free dofs on the finest)."""
    return build_hierarchy(unit_square_mesh(), 5)


def irregular_mesh():
    """Four triangles around an off-centre interior vertex of a skewed quadrilateral."""
    verts = np.array([[0.0, 0.0], [1.0, 0.1], [1.2, 0.9], [0.1, 1.0], [0.55, 0.45]])
    tris = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
    return triangle_mesh(verts, tris)


SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
# (vertices, triangles, message) of unit squares that once built a hierarchy:
# a NaN vertex and a vertex in no triangle made the stiffness matrix
# singular, a repeated triangle doubled the area and freed corner 1, and
# two triangles on one side of their shared edge overlap; a vertex hanging
# on the diagonal was solved as a slit domain with no dof on the diagonal
INVALID_SQUARES = [
    (SQUARE[:3] + [[0.0, np.nan]], [[0, 1, 2], [0, 2, 3]], "finite"),
    (SQUARE + [[0.5, 0.5]], [[0, 1, 2], [0, 2, 3]], "no cell"),
    (SQUARE, [[0, 1, 2], [0, 2, 3], [0, 1, 2]], "overlap"),
    (SQUARE, [[0, 1, 2], [0, 1, 3]], "overlap"),
    (SQUARE + [[0.5, 0.5]], [[0, 1, 2], [0, 4, 3], [4, 2, 3]], "hanging"),
]


class TestBuildHierarchy:
    def test_free_dims_interval(self):
        h = build_hierarchy(interval_mesh(0.0, 1.0, 2), 3)
        assert [lvl.n_free for lvl in h.levels] == [1, 3, 7]

    def test_single_level_single_hat(self):
        h = build_hierarchy(interval_mesh(0.0, 1.0, 2), 1)
        assert [lvl.n_free for lvl in h.levels] == [1]
        lvl = h.level(1)
        assert lvl.mesh.vertices[lvl.free[0], 0] == pytest.approx(0.5)

    def test_dims_strictly_increasing(self):
        h = build_hierarchy(interval_mesh(0.0, 1.0, 3), 5)
        dims = [lvl.n_free for lvl in h.levels]
        assert all(a < b for a, b in zip(dims, dims[1:]))

    def test_unit_square_euler_count(self):
        # oracle: enumerate the refined triangulation combinatorially and
        # count interior vertices through the boundary-edge criterion
        h = build_hierarchy(unit_square_mesh(), 3)
        for lvl in h.levels:
            tris = lvl.mesh.cells
            edges = np.sort(
                np.vstack([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]), axis=1
            )
            uniq, counts = np.unique(edges, axis=0, return_counts=True)
            V = len(lvl.mesh.vertices)
            E = len(uniq)
            F = len(tris)
            assert V - E + F == 1  # planar triangulation of a disk-like domain
            boundary_vertices = np.unique(uniq[counts == 1])
            assert lvl.n_free == V - len(boundary_vertices)
        assert [lvl.n_free for lvl in h.levels] == [0, 1, 9]

    def test_invalid_inputs(self):
        with pytest.raises(MeshError, match="strictly increasing"):
            interval_mesh_from_nodes(np.array([0.0, 0.5, 0.4, 1.0]))
        for nodes in ([0.0, 1e308, np.inf], [-np.inf, 0.0], [0.0, np.nan, 1.0]):
            with pytest.raises(MeshError, match="finite"):
                interval_mesh_from_nodes(np.array(nodes))
        with pytest.raises(MeshError, match="degenerate|negatively"):
            triangle_mesh(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
                          np.array([[0, 1, 2]]))
        for verts, tris, match in INVALID_SQUARES:
            with pytest.raises(MeshError, match=match):
                triangle_mesh(np.array(verts), np.array(tris))
        with pytest.raises(ValueError, match="levels"):
            build_hierarchy(interval_mesh(0.0, 1.0, 2), 0)

    def test_quadrature_weights_sum_to_measure(self):
        for h in (build_hierarchy(interval_mesh(0.0, 2.0, 3), 3),
                  build_hierarchy(unit_square_mesh(), 3)):
            for lvl in h.levels:
                np.testing.assert_allclose(
                    lvl.qp_weights.sum(axis=1), lvl.elem_measure, rtol=5e-16
                )
                assert np.all(lvl.qp_weights > 0)

    def test_measure_is_sum_of_elements(self):
        mesh = interval_mesh(0.0, 1.0, 7)
        assert mesh.measure == pytest.approx(np.sum(mesh.element_measures()), rel=1e-15)
        assert unit_square_mesh().measure == pytest.approx(1.0, rel=1e-15)


# every level uses one rule per dimension: 4-point Gauss-Legendre on intervals,
# the symmetric 6-point rule on triangles; (mesh, degree the rule is exact to)
QUADRATURE_MESHES = {
    "interval": (lambda: interval_mesh_from_nodes(np.array([-0.3, 0.1, 0.25, 1.4, 2.0])), 7),
    "triangle": (irregular_mesh, 4),
}


class TestQuadrature:
    @pytest.mark.parametrize("kind", sorted(QUADRATURE_MESHES))
    def test_rule_exact_to_its_degree(self, kind):
        # oracle: int_e prod_i lambda_i^a_i = |e| dim! prod_i a_i! / (sum a + dim)!
        # for the barycentric coordinates lambda_i, which the P1 basis is
        make_mesh, degree = QUADRATURE_MESHES[kind]
        for lvl in build_hierarchy(make_mesh(), 2).levels:
            nv = lvl.basis_at_qp.shape[1]
            for exps in itertools.product(range(degree + 1), repeat=nv):
                n = sum(exps)
                if n > degree:
                    continue
                vals = np.prod(lvl.basis_at_qp ** np.array(exps), axis=1)
                exact = (lvl.elem_measure * math.factorial(nv - 1)
                         * np.prod([math.factorial(a) for a in exps])
                         / math.factorial(n + nv - 1))
                np.testing.assert_allclose(lvl.qp_weights @ vals, exact, rtol=1e-13)

    @pytest.mark.parametrize("kind", sorted(QUADRATURE_MESHES))
    def test_points_sit_where_the_basis_puts_them(self, kind):
        # a point array of shape (n_el, n_q, dim) in 1D too, each point the
        # basis-weighted mean of its element's vertices
        lvl = build_hierarchy(QUADRATURE_MESHES[kind][0](), 2).level(2)
        n_q = lvl.basis_at_qp.shape[0]
        assert lvl.qp_points.shape == (len(lvl.mesh.cells), n_q, lvl.mesh.dim)
        assert lvl.qp_weights.shape == (len(lvl.mesh.cells), n_q)
        assert np.all(lvl.basis_at_qp > 0)
        verts = lvl.mesh.vertices[lvl.mesh.cells]
        np.testing.assert_allclose(
            lvl.qp_points, np.einsum("qk,ekd->eqd", lvl.basis_at_qp, verts), rtol=0, atol=1e-15)


class TestProlongate:
    def test_zero_stays_zero(self, unit_hierarchy):
        u = oracles.zero(unit_hierarchy, 1)
        v = prolongate(u, 4)
        assert np.all(v.coeffs == 0.0)

    def test_hat_coefficients(self):
        h = build_hierarchy(interval_mesh(0.0, 1.0, 2), 2)
        u = h.function(1, [1.0])
        v = prolongate(u, 2)
        lvl = h.level(2)
        np.testing.assert_allclose(lvl.mesh.vertices[lvl.free, 0], [0.25, 0.5, 0.75])
        np.testing.assert_allclose(v.coeffs, [0.5, 1.0, 0.5])

    def test_downward_prolongation_rejected(self, unit_hierarchy):
        u = oracles.zero(unit_hierarchy, 3)
        with pytest.raises(LevelMismatchError):
            prolongate(u, 2)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), start=st.integers(1, 3))
    def test_norms_preserved(self, unit_hierarchy, square_hierarchy, seed, start):
        # the square's base level has no interior node, so it starts one level up
        for h, first in ((unit_hierarchy, start), (square_hierarchy, start + 1)):
            rng = np.random.default_rng(seed)
            u = h.function(first, rng.standard_normal(h.level(first).n_free))
            v = prolongate(u, 5)
            for p in (2.0, 3.0, 4.5):
                assert grad_norm_p(v, p) == pytest.approx(grad_norm_p(u, p), rel=1e-12)
            # |u|^2 is elementwise polynomial regardless of sign changes
            assert lebesgue_norm(v, 2.0) == pytest.approx(lebesgue_norm(u, 2.0), rel=1e-12)
            # odd powers are elementwise polynomial only for sign-definite u
            w = h.function(first, np.abs(u.coeffs))
            wv = prolongate(w, 5)
            for r in (1.0, 2.0, 3.0):
                assert lebesgue_norm(wv, r) == pytest.approx(lebesgue_norm(w, r), rel=1e-12)


def _same_csr(a, b) -> bool:
    """Bitwise equal sparse matrices: shape, structure and stored values."""
    a, b = a.tocsr(), b.tocsr()
    return (a.shape == b.shape and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices) and np.array_equal(a.data, b.data))


class TestRefinement:
    """Refinement and prolongation against the dictionary-numbered references."""

    @pytest.mark.parametrize("base,levels", [(unit_square_mesh, 6), (irregular_mesh, 5)],
                             ids=["square", "irregular"])
    def test_triangles_bitwise(self, base, levels):
        h = build_hierarchy(base(), levels)
        for coarse, fine in zip(h.levels, h.levels[1:]):
            verts, tris, _ = oracles.refine_triangles(coarse.mesh.vertices, coarse.mesh.cells)
            assert np.array_equal(fine.mesh.vertices, verts)
            assert np.array_equal(fine.mesh.cells, tris)
            assert _same_csr(fine.prolongation, oracles.prolongation(coarse, fine))

    def test_interval_bitwise(self, unit_hierarchy):
        for coarse, fine in zip(unit_hierarchy.levels, unit_hierarchy.levels[1:]):
            x = coarse.mesh.vertices[:, 0]
            nodes = np.empty(2 * coarse.mesh.n_nodes - 1)
            nodes[0::2] = x
            nodes[1::2] = 0.5 * (x[:-1] + x[1:])
            assert np.array_equal(fine.mesh.vertices[:, 0], nodes)
            assert _same_csr(fine.prolongation, oracles.prolongation(coarse, fine))


class TestGradNorm:
    def test_zero(self, unit_hierarchy):
        assert grad_norm_p(oracles.zero(unit_hierarchy, 3), 3.0) == 0.0

    def test_parabola_limit(self):
        # int_0^1 |1-2x|^3 dx = 1/4 by hand, so the norm tends to (1/4)^(1/3)
        target = 0.25 ** (1.0 / 3.0)
        prev = None
        for m in (16, 64, 256):
            h = build_hierarchy(interval_mesh(0.0, 1.0, m), 1)
            u = h.interpolate(1, lambda x: x * (1 - x))
            err = abs(grad_norm_p(u, 3.0) - target)
            if prev is not None:
                assert err < prev
            prev = err
        assert prev < 1e-4

    def test_single_hat_is_two_for_every_p(self):
        h = build_hierarchy(interval_mesh(0.0, 1.0, 2), 1)
        u = h.function(1, [1.0])
        for p in (1.5, 2.0, 2.5, 3.0, 7.0):
            assert grad_norm_p(u, p) == pytest.approx(2.0, rel=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(-50, 50), seed=st.integers(0, 2**31 - 1))
    def test_absolute_homogeneity(self, unit_hierarchy, c, seed):
        h = unit_hierarchy
        rng = np.random.default_rng(seed)
        u = h.function(3, rng.standard_normal(h.level(3).n_free))
        cu = h.function(3, c * u.coeffs)
        assert grad_norm_p(cu, 3.0) == pytest.approx(abs(c) * grad_norm_p(u, 3.0),
                                                     rel=1e-12, abs=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_holder_consistency(self, unit_hierarchy, seed):
        # ||u||_q <= |Omega|^{(p-q)/(pq)} ||u||_p for q < p on a unit domain
        h = unit_hierarchy
        rng = np.random.default_rng(seed)
        u = h.function(4, rng.standard_normal(h.level(4).n_free))
        for q, p in ((1.0, 2.0), (2.0, 3.0), (2.0, 6.0)):
            lhs = lebesgue_norm(u, q)
            rhs = h.measure ** ((p - q) / (p * q)) * lebesgue_norm(u, p)
            assert lhs <= rhs * (1 + 1e-12)


def _close(actual, expected, rel=1e-13):
    """Agreement to ``rel`` relative to the largest entry of ``expected``."""
    scale = np.max(np.abs(expected))
    np.testing.assert_allclose(actual, expected, rtol=rel, atol=rel * scale)


class TestLevelOperators:
    """grad_op / qp_op against the element loops they replace."""

    @pytest.fixture(params=["interval", "square"])
    def case(self, request):
        if request.param == "interval":
            h = build_hierarchy(interval_mesh(0.0, 1.0, 4), 4)
        else:
            h = build_hierarchy(unit_square_mesh(), 3)
        return h, h.n_levels

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reproduce_element_data_and_norms(self, case, seed):
        h, n = case
        lvl = h.level(n)
        u = h.function(n, np.random.default_rng(seed).standard_normal(lvl.n_free))
        grads = oracles.element_gradients(lvl, u.coeffs)
        vals = oracles.values_at_qp(lvl, u.coeffs)
        _close(u.element_gradients(), grads)
        _close(u.values_at_qp(), vals)
        mag = np.sqrt(np.sum(grads**2, axis=-1))
        for r in (1.5, 2.0, 3.0, 6.0):
            g = np.sum(lvl.elem_measure * mag**r) ** (1.0 / r)
            v = np.sum(lvl.qp_weights * np.abs(vals) ** r) ** (1.0 / r)
            assert grad_norm_p(u, r) == pytest.approx(g, rel=1e-13)
            assert lebesgue_norm(u, r) == pytest.approx(v, rel=1e-13)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_transposes_give_free_force_and_load(self, case, seed):
        h, n = case
        lvl = h.level(n)
        u = h.function(n, np.random.default_rng(seed).standard_normal(lvl.n_free))
        block = u.coeffs[:, None]
        grads = oracles.element_gradients(lvl, u.coeffs)
        vals = oracles.values_at_qp(lvl, u.coeffs)
        for r in (1.5, 2.0, 3.0):
            force = oracles.gradient_force(grads, r, lvl)[lvl.free]
            _close(_grad_force(lvl, _gradients(lvl, block), r)[:, 0], force)
            load = oracles.load_vector(np.sign(vals) * np.abs(vals) ** (r - 1.0), lvl)[lvl.free]
            _close(_value_load(lvl, _qp_values(lvl, block), r)[:, 0], load)

    def test_block_columns_match_single_vectors(self, case):
        h, n = case
        lvl = h.level(n)
        block = np.random.default_rng(7).standard_normal((lvl.n_free, 5))
        grads, vals = _gradients(lvl, block), _qp_values(lvl, block)
        for j in range(block.shape[1]):
            col = block[:, j:j + 1]
            g1, v1 = _gradients(lvl, col), _qp_values(lvl, col)
            _close(grads[..., j], g1[..., 0])
            _close(vals[:, j], v1[:, 0])
            for r in (1.2, 3.0):
                _close(_grad_integral(lvl, grads, r)[j], _grad_integral(lvl, g1, r)[0])
                _close(_value_integral(lvl.qp_weights, vals, r)[j],
                       _value_integral(lvl.qp_weights, v1, r)[0])
                _close(_grad_force(lvl, grads, r)[:, j], _grad_force(lvl, g1, r)[:, 0])
                _close(_value_load(lvl, vals, r)[:, j], _value_load(lvl, v1, r)[:, 0])


class TestLebesgueNorm:
    def test_zero(self, unit_hierarchy):
        assert lebesgue_norm(oracles.zero(unit_hierarchy, 2), 2.0) == 0.0

    def test_parabola_l2(self):
        h = build_hierarchy(interval_mesh(0.0, 1.0, 256), 1)
        u = h.interpolate(1, lambda x: x * (1 - x))
        assert lebesgue_norm(u, 2.0) == pytest.approx((1.0 / 30.0) ** 0.5, abs=1e-5)

    def test_hat_l1(self):
        h = build_hierarchy(interval_mesh(0.0, 1.0, 2), 1)
        u = h.function(1, [1.0])
        assert lebesgue_norm(u, 1.0) == pytest.approx(0.5, rel=1e-14)


class TestSample:
    def test_zero(self, unit_hierarchy):
        s = sample(oracles.zero(unit_hierarchy, 2))
        assert np.all(s.values == 0.0)
        assert np.all(s.gradients == 0.0)

    def test_hat_gradients(self):
        h = build_hierarchy(interval_mesh(0.0, 1.0, 2), 1)
        s = sample(h.function(1, [1.0]))
        np.testing.assert_allclose(s.gradients[0, :, 0], 2.0)
        np.testing.assert_allclose(s.gradients[1, :, 0], -2.0)

    def test_identity_interpolant(self):
        # the zero trace forces u = x only away from the right boundary element
        h = build_hierarchy(interval_mesh(0.0, 1.0, 8), 1)
        u = h.interpolate(1, lambda x: x)
        s = sample(u)
        interior = slice(0, 7)  # all elements except the last one
        np.testing.assert_allclose(s.values[interior], u.lvl.qp_points[interior, :, 0],
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(s.gradients[interior, :, 0], 1.0, atol=1e-13)


class TestMeshJson:
    def test_square_from_dict(self):
        mesh = unit_square_mesh()
        again = DomainMesh.from_json_dict(json.loads(
            '{"dim": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],'
            ' "triangles": [[0, 1, 2], [0, 2, 3]]}'))
        np.testing.assert_allclose(again.vertices, mesh.vertices)
        np.testing.assert_array_equal(again.cells, mesh.cells)

    def test_one_layout_in_every_dimension(self):
        # a 1D mesh is increasing vertices of shape (n, 1) and the cells
        # [i, i + 1] on every level; both dimensions keep only these fields
        assert [f.name for f in dataclasses.fields(DomainMesh)] == ["vertices", "cells"]
        for lvl in build_hierarchy(interval_mesh_from_nodes([0.0, 0.2, 0.45, 1.0]), 4).levels:
            n = lvl.mesh.n_nodes
            assert lvl.mesh.vertices.shape == (n, 1)
            assert np.all(np.diff(lvl.mesh.vertices[:, 0]) > 0)
            assert np.array_equal(lvl.mesh.cells, np.column_stack([np.arange(n - 1),
                                                                   np.arange(1, n)]))
            assert np.array_equal(lvl.mesh.boundary_nodes(), [0, n - 1])
        for lvl in build_hierarchy(irregular_mesh(), 3).levels:
            assert lvl.mesh.vertices.shape == (lvl.mesh.n_nodes, 2)
            assert lvl.mesh.cells.shape == (lvl.mesh.n_elements, 3)

    def test_interpolate_passes_points_and_takes_one_value_each(self):
        h = build_hierarchy(interval_mesh(0.0, 1.0, 4), 2)
        lvl = h.level(2)
        x = lvl.mesh.vertices[lvl.free, 0]
        assert np.array_equal(h.interpolate(2, lambda p: p * (1 - p)).coeffs, x * (1 - x))
        with pytest.raises(ValueError):
            h.interpolate(2, lambda p: np.hstack([p, p]))

    def test_bad_dim_rejected(self):
        with pytest.raises(MeshError, match="dim"):
            DomainMesh.from_json_dict({"dim": 3})
