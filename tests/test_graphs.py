import numpy as np
import pytest

import consensuslab as cl
from consensuslab import _kernels
from consensuslab.errors import DimensionMismatch, UnbalancedGraph
from consensuslab.graphs import (algebraic_connectivity_unchecked,
                                 check_entries, dirichlet_energies, pair_indices,
                                 pair_squared_distances, unbalanced)

from oracles import (dirichlet_energies_loop, lambda2_eigh,
                     lambda2_householder, lambda2_rayleigh_grid,
                     pair_squares_indexed, scrambling_broadcast,
                     scrambling_direct)


def adj(entries):
    return cl.AdjacencyMatrix.from_entries(np.asarray(entries, dtype=float))


def config(positions):
    return cl.Configuration.from_positions(np.asarray(positions, dtype=float))


def random_grid_adjacency(rng, n):
    entries = rng.choice([0.0, 0.5, 1.0], size=(n, n))
    np.fill_diagonal(entries, 1.0)
    return entries


def random_balanced_adjacency(rng, n):
    # symmetric matrices are balanced; mix in a directed cycle to cover
    # balanced-but-asymmetric graphs
    entries = random_grid_adjacency(rng, n)
    entries = np.minimum(1.0, 0.5 * (entries + entries.T))
    if n >= 2 and rng.random() < 0.5:
        perm = rng.permutation(n)
        weight = rng.choice([0.5, 1.0])
        for a, b in zip(perm, np.roll(perm, -1)):
            if a != b:
                entries[a, b] = weight
                entries[b, a] = 0.0 if rng.random() < 0.5 else entries[b, a]
    np.fill_diagonal(entries, 1.0)
    if not cl.is_balanced(adj(entries)):
        entries = np.minimum(1.0, 0.5 * (entries + entries.T))
        np.fill_diagonal(entries, 1.0)
    return entries


class TestAdjacencyMatrix:
    def test_validates_range(self):
        with pytest.raises(ValueError):
            adj([[1.0, 1.5], [0.0, 1.0]])

    def test_validates_diagonal(self):
        with pytest.raises(ValueError):
            adj([[0.5, 0.0], [0.0, 1.0]])

    def test_entries_read_only(self):
        a = cl.AdjacencyMatrix.ones(3)
        with pytest.raises(ValueError):
            a.entries[0, 1] = 0.0

    def test_json_round_trip(self):
        a = adj([[1.0, 0.25], [0.75, 1.0]])
        assert cl.AdjacencyMatrix.from_json_dict(a.to_json_dict()) == a


class TestCheckEntries:
    """Broadcast views are range-checked on the array under them first."""

    def test_rotating_star_hub_view_passes(self):
        stack = cl.gen_rotating_star(64, 0.1).piece_stack
        assert stack.base.size < stack.size
        check_entries(stack)

    def test_out_of_range_base_outside_the_view_passes(self):
        base = np.ones((4, 4))
        base[3, 3] = 5.0
        base[0, 3] = np.nan
        check_entries(np.broadcast_to(base[:3, :3], (10, 3, 3)))

    @pytest.mark.parametrize("bad", (np.nan, np.inf, 1.5, -0.5))
    def test_bad_value_inside_the_view_raises(self, bad):
        base = np.ones((4, 4))
        base[1, 2] = bad
        with pytest.raises(ValueError, match="finite and lie in"):
            check_entries(np.broadcast_to(base[:3, :3], (10, 3, 3)))

    @pytest.mark.parametrize("word, offset", ((0x3FE000007FF00000, 0),
                                              (0x7FF000003FE00000, 4)),
                             ids=("unaligned_view", "unaligned_base"))
    def test_view_across_two_base_floats_is_checked_on_its_entries(self, word,
                                                                   offset):
        # the view starts 4 bytes into its base, so one of the two is
        # unaligned and each entry reads halves of two base floats: here
        # every base float is 0.5 and a bit, and every entry a NaN
        raw = np.full(10, word, dtype=np.int64).tobytes()
        base = np.frombuffer(raw, np.float64, count=9, offset=offset)
        assert 0.5 <= base.min() <= base.max() <= 1.0
        view = np.ndarray((5, 2, 2), np.float64, buffer=base, offset=4,
                          strides=(0, 16, 8))
        assert view.base is base
        assert base.flags.aligned != view.flags.aligned
        assert np.isnan(view).all()
        with pytest.raises(ValueError, match="finite and lie in"):
            check_entries(view)


class TestScrambling:
    def test_all_ones(self):
        assert cl.scrambling(cl.AdjacencyMatrix.ones(2)) == 1.0

    def test_identity(self):
        assert cl.scrambling(cl.AdjacencyMatrix.identity(2)) == 0.0

    def test_star_three(self):
        # minimizing pair is the two leaves, sharing only the hub weight
        star = cl.AdjacencyMatrix.star(3, 0)
        assert cl.scrambling(star) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert scrambling_direct(star.entries) == pytest.approx(1.0 / 3.0)

    def test_half_coupled_pair(self):
        a = adj([[1.0, 0.5], [0.5, 1.0]])
        assert cl.scrambling(a) == pytest.approx(0.5, abs=1e-15)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = rng.integers(1, 6)
            entries = random_grid_adjacency(rng, n)
            assert cl.scrambling(adj(entries)) == scrambling_direct(entries)

    def test_range_and_monotonicity(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = rng.integers(1, 7)
            lo = rng.random((n, n))
            hi = np.minimum(1.0, lo + rng.random((n, n)) * (1.0 - lo))
            np.fill_diagonal(lo, 1.0)
            np.fill_diagonal(hi, 1.0)
            s_lo, s_hi = cl.scrambling(adj(lo)), cl.scrambling(adj(hi))
            assert 0.0 <= s_lo <= 1.0
            assert s_lo <= s_hi + 1e-12

    def test_concavity(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = rng.integers(2, 6)
            a, b = random_grid_adjacency(rng, n), random_grid_adjacency(rng, n)
            theta = rng.random()
            mixed = cl.scrambling(adj(theta * a + (1 - theta) * b))
            split = theta * cl.scrambling(adj(a)) + (1 - theta) * cl.scrambling(adj(b))
            assert mixed >= split - 1e-12


class TestDegreesAndBalance:
    def test_all_ones(self):
        in_deg, out_deg = cl.degrees(cl.AdjacencyMatrix.ones(2))
        assert np.array_equal(in_deg, [2.0, 2.0])
        assert np.array_equal(out_deg, [2.0, 2.0])

    def test_directed_cycle(self):
        entries = np.eye(3)
        entries[0, 1] = entries[1, 2] = entries[2, 0] = 1.0
        in_deg, out_deg = cl.degrees(adj(entries))
        assert np.array_equal(in_deg, [2.0, 2.0, 2.0])
        assert np.array_equal(out_deg, [2.0, 2.0, 2.0])
        assert cl.is_balanced(adj(entries))

    def test_single_arrow(self):
        entries = [[1.0, 1.0], [0.0, 1.0]]
        in_deg, out_deg = cl.degrees(adj(entries))
        assert np.array_equal(out_deg, [2.0, 1.0])
        assert np.array_equal(in_deg, [1.0, 2.0])
        assert not cl.is_balanced(adj(entries), tol=0.5)

    @pytest.mark.parametrize("tol", [np.nan, -1.0])
    def test_bad_tol_rejected(self, tol):
        # a NaN tol used to call the identity unbalanced
        with pytest.raises(ValueError, match="tol"):
            unbalanced(np.eye(3)[None], tol)
        with pytest.raises(ValueError, match="tol"):
            cl.is_balanced(cl.AdjacencyMatrix.identity(3), tol)

    def test_symmetric_always_balanced(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = rng.integers(1, 7)
            entries = rng.random((n, n))
            entries = 0.5 * (entries + entries.T)
            np.fill_diagonal(entries, 1.0)
            assert cl.is_balanced(adj(entries))


class TestLaplacian:
    def test_all_ones_two(self):
        lap = cl.laplacian(cl.AdjacencyMatrix.ones(2))
        assert np.allclose(lap.entries, 0.5 * np.array([[1, -1], [-1, 1]]))
        assert np.array_equal(lap.degrees, [2.0, 2.0])

    def test_identity_is_zero(self):
        lap = cl.laplacian(cl.AdjacencyMatrix.identity(4))
        assert np.array_equal(lap.entries, np.zeros((4, 4)))

    def test_directed_cycle(self):
        entries = np.eye(3)
        entries[0, 1] = entries[1, 2] = entries[2, 0] = 1.0
        lap = cl.laplacian(adj(entries))
        assert np.allclose(lap.entries, (2.0 * np.eye(3) - entries) / 3.0)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            n = rng.integers(1, 8)
            entries = rng.random((n, n))
            np.fill_diagonal(entries, 1.0)
            lap = cl.laplacian(adj(entries))
            assert np.abs(lap.entries.sum(axis=1)).max() <= 1e-12

    def test_balanced_columns_sum_to_zero(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            n = rng.integers(2, 7)
            entries = random_balanced_adjacency(rng, n)
            lap = cl.laplacian(adj(entries))
            assert np.abs(lap.entries.sum(axis=0)).max() <= 1e-9


class TestAlgebraicConnectivity:
    def test_all_ones_any_n(self):
        for n in (2, 3, 5, 9):
            assert cl.algebraic_connectivity(cl.AdjacencyMatrix.ones(n)) == \
                pytest.approx(1.0, abs=1e-12)

    def test_identity_zero(self):
        assert cl.algebraic_connectivity(cl.AdjacencyMatrix.identity(5)) == 0.0

    def test_directed_cycle_half(self):
        entries = np.eye(3)
        entries[0, 1] = entries[1, 2] = entries[2, 0] = 1.0
        lam = cl.algebraic_connectivity(adj(entries))
        assert lam == pytest.approx(0.5, abs=1e-12)
        assert lambda2_rayleigh_grid(entries) == pytest.approx(0.5, abs=1e-6)

    def test_unbalanced_raises(self):
        with pytest.raises(UnbalancedGraph):
            cl.algebraic_connectivity(adj([[1.0, 1.0], [0.0, 1.0]]))

    def test_matches_eigensolver_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = rng.integers(1, 8)
            entries = random_balanced_adjacency(rng, n)
            lam = cl.algebraic_connectivity(adj(entries))
            assert lam == pytest.approx(lambda2_eigh(entries), abs=1e-10)
        for n in (8, 16, 40, 64):
            for _ in range(3):
                entries = random_balanced_adjacency(rng, n)
                lam = cl.algebraic_connectivity(adj(entries))
                assert lam == pytest.approx(lambda2_eigh(entries), abs=1e-10)

    def test_matches_rayleigh_grid_small(self):
        rng = np.random.default_rng(18)
        for n in (2, 3, 4, 5):
            for _ in range(6):
                entries = random_balanced_adjacency(rng, n)
                lam = cl.algebraic_connectivity(adj(entries))
                assert lam == pytest.approx(lambda2_rayleigh_grid(entries),
                                            abs=1e-6)

    def test_concavity_on_balanced_pairs(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            n = rng.integers(2, 6)
            a = random_balanced_adjacency(rng, n)
            b = random_balanced_adjacency(rng, n)
            theta = rng.random()
            mixed = cl.algebraic_connectivity(adj(theta * a + (1 - theta) * b))
            split = (theta * cl.algebraic_connectivity(adj(a))
                     + (1 - theta) * cl.algebraic_connectivity(adj(b)))
            assert mixed >= split - 1e-9


# agent counts at the edges of a row sum of n terms: one and two agents, and
# either side of the multiples of 8 that numpy's pairwise sum unrolls by
SUM_EDGE_NS = (1, 2, 15, 16, 17, 33)


def random_symmetric_stack(rng, m, n):
    """(m, n, n) symmetric adjacencies with zeros, ties and generic values."""
    entries = rng.random((m, n, n)) * (rng.random((m, n, n)) < 0.7)
    ties = rng.random((m, n, n)) < 0.3
    entries[ties] = np.round(entries[ties] * 4) / 4
    entries = 0.5 * (entries + entries.swapaxes(1, 2))
    entries[:, np.arange(n), np.arange(n)] = 1.0
    return entries


class TestBatchedMetrics:
    @pytest.mark.parametrize("n", SUM_EDGE_NS)
    @pytest.mark.parametrize("m", (1, 6, 16, 17))  # one row of m matrices a pass
    def test_scrambling_matches_broadcast(self, n, m):
        rng = np.random.default_rng(100 + n + m)
        stacks = [random_symmetric_stack(rng, m, n),
                  rng.random((m, n, n)) * (rng.random((m, n, n)) < 0.7)]
        for stack in stacks:
            got = _kernels.scrambling_min(stack)
            assert got.shape == (m,)
            assert np.array_equal(got, [scrambling_broadcast(a) for a in stack])

    @pytest.mark.parametrize("n", SUM_EDGE_NS)
    @pytest.mark.parametrize("m", (1, 6))
    def test_connectivity_matches_per_matrix(self, n, m):
        rng = np.random.default_rng(200 + n + m)
        stacks = [random_symmetric_stack(rng, m, n),
                  np.stack([random_balanced_adjacency(rng, n) for _ in range(m)])]
        for stack in stacks:
            got = algebraic_connectivity_unchecked(stack)
            assert got.shape == (m,)
            assert np.array_equal(got, [lambda2_householder(a) for a in stack])

    def test_one_unbalanced_matrix_raises(self):
        rng = np.random.default_rng(300)
        stack = random_symmetric_stack(rng, 5, 6)
        stack[3, 0, 1] = 0.0 if stack[3, 1, 0] else 1.0
        assert np.array_equal(unbalanced(stack), [False] * 3 + [True, False])
        with pytest.raises(UnbalancedGraph):
            cl.algebraic_connectivity(cl.AdjacencyMatrix(6, stack[3]))
        for entries in np.delete(stack, 3, axis=0):
            assert cl.algebraic_connectivity(cl.AdjacencyMatrix(6, entries)) == \
                algebraic_connectivity_unchecked(entries[None])[0]


class TestPairSquaredDistances:
    def test_equals_per_sample_indexed_gather(self):
        # bit for bit, C-ordered, whatever the batch shape, in the order
        # of one read-only index pair per n that every call reuses
        rng = np.random.default_rng(26)
        for _ in range(300):
            n, d = int(rng.integers(1, 40)), int(rng.integers(1, 5))
            batch = tuple(rng.integers(1, 5, size=int(rng.integers(0, 3))))
            positions = rng.normal(size=batch + (n, d))
            got = pair_squared_distances(positions)
            assert got.flags.c_contiguous
            assert np.array_equal(got, pair_squares_indexed(positions))
            pairs = pair_indices(n)
            assert pair_indices(n) is pairs
            for idx, want in zip(pairs, np.triu_indices(n, 1)):
                assert np.array_equal(idx, want) and not idx.flags.writeable


class TestDirichletEnergy:
    def test_coincident_zero(self):
        x = config(np.zeros((4, 2)))
        assert cl.dirichlet_energy(cl.AdjacencyMatrix.ones(4), x) == 0.0

    def test_two_agent_quarter(self):
        x = config([0.0, 1.0])
        assert cl.dirichlet_energy(cl.AdjacencyMatrix.ones(2), x) == \
            pytest.approx(0.25, abs=1e-15)

    def test_identity_any_positions(self):
        rng = np.random.default_rng(20)
        x = config(rng.normal(size=(2, 3)))
        assert cl.dirichlet_energy(cl.AdjacencyMatrix.identity(2), x) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cl.dirichlet_energy(cl.AdjacencyMatrix.ones(3), config([0.0, 1.0]))

    def test_energy_is_batch_of_one(self):
        # one matrix and configuration, alone and inside stacks of them
        rng = np.random.default_rng(23)
        for _ in range(300):
            n, d = int(rng.integers(1, 30)), int(rng.integers(1, 4))
            entries = rng.random((3, n, n)) * (rng.random((3, n, n)) < 0.6)
            entries[:, np.arange(n), np.arange(n)] = 1.0
            positions = rng.normal(size=(3, n, d))
            batch = dirichlet_energies(entries, positions)
            for k in range(3):
                got = cl.dirichlet_energy(adj(entries[k]), config(positions[k]))
                assert got == dirichlet_energies(entries[k], positions[k]) \
                    == batch[k]

    def test_energies_equal_per_sample_loop(self):
        # bit for bit the per-sample sum, for stacks of entries and of
        # positions, one matrix against many positions, and one of each
        rng = np.random.default_rng(25)
        for _ in range(300):
            n, d = int(rng.integers(1, 30)), int(rng.integers(1, 5))
            entries = rng.random((3, n, n)) * (rng.random((3, n, n)) < 0.6)
            entries[:, np.arange(n), np.arange(n)] = 1.0
            positions = rng.normal(size=(3, n, d))
            for a in (entries, entries[0]):
                assert np.array_equal(dirichlet_energies(a, positions),
                                      dirichlet_energies_loop(a, positions))
            got = cl.dirichlet_energy(adj(entries[0]), config(positions[0]))
            assert got == dirichlet_energies_loop(entries[0], positions[0])

    def test_energy_on_hub_view_pieces(self):
        # the rotating star's pieces are strided views of one hub pattern
        rng = np.random.default_rng(24)
        sig = cl.gen_rotating_star(33, 0.1)
        positions = rng.normal(size=(33, 33, 2))
        batch = dirichlet_energies(sig.piece_stack, positions)
        for k, piece in enumerate(sig.pieces):
            dense = np.array(piece.entries)
            assert not piece.entries.flags.c_contiguous
            got = cl.dirichlet_energy(piece, config(positions[k]))
            assert got == dirichlet_energies(dense, positions[k]) == batch[k]

    def test_energy_variance_bound(self):
        # energy >= lambda2 * variance for every configuration, with equality
        # achieved by the minimizing eigenvector
        rng = np.random.default_rng(21)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            entries = random_balanced_adjacency(rng, n)
            a = adj(entries)
            lam = cl.algebraic_connectivity(a)
            for _ in range(3):
                x = config(rng.normal(size=(n, int(rng.integers(1, 4)))))
                energy = cl.dirichlet_energy(a, x)
                assert energy >= lam * cl.variance(x) - 1e-9

    def test_minimizing_eigenvector_achieves_equality(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            entries = random_balanced_adjacency(rng, n)
            a = adj(entries)
            lam = cl.algebraic_connectivity(a)
            sym = 0.5 * (cl.laplacian(a).entries + cl.laplacian(a).entries.T)
            shifted = sym + 3.0 * np.ones((n, n)) / n
            vals, vecs = np.linalg.eigh(shifted)
            x = config(vecs[:, 0])
            energy = cl.dirichlet_energy(a, x)
            target = lam * cl.variance(x)
            assert energy == pytest.approx(target, rel=1e-6, abs=1e-12)
