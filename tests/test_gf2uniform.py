import itertools
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from entmin import gf2uniform
from entmin.errors import CapacityError, ValidationError
from entmin.gf2uniform import (
    BitDistribution,
    fourier,
    gf2_rank,
    graph_reduced_density,
    inverse_fourier,
    is_k_uniform,
    is_maximally_uniform_graph,
    marginal_distribution,
    min_stabilizer_weight,
    parity_constrained_uniform,
    search_maximally_uniform,
    walsh_transform,
)
from entmin.hilbert import partial_trace
from entmin.states import GraphSpec, graph_state, hexacode_graph

from conftest import (
    NoNumpy,
    deficient_cut_oracle,
    fourier_oracle,
    gf2_rank_oracle,
    graph_reduced_density_oracle,
    k_uniform_oracle,
    maximally_uniform_search_oracle,
    pauli_dense,
    stabilizer_weight_oracle,
)


def random_dist(n, rng):
    p = rng.random(2**n)
    return BitDistribution(n, p / p.sum())


def random_graph(v, rng):
    adj = np.zeros((v, v), dtype=np.uint8)
    for i in range(v):
        for j in range(i + 1, v):
            adj[i, j] = adj[j, i] = rng.integers(0, 2)
    return GraphSpec(v, adj)


def test_bitdistribution_validation():
    with pytest.raises(ValidationError):
        BitDistribution(2, np.array([0.5, 0.5, 0.5, 0.5]))
    with pytest.raises(ValidationError):
        BitDistribution(2, np.array([1.2, -0.2, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        BitDistribution(2, np.array([1.0, 0.0]))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
def test_fourier_matches_direct_character_sum(n, rng):
    dist = random_dist(n, rng)
    assert np.allclose(fourier(dist), fourier_oracle(dist.p), atol=1e-12)


@pytest.mark.parametrize("n", range(1, 13))
def test_fourier_roundtrip(n, rng):
    dist = random_dist(n, rng)
    back = inverse_fourier(fourier(dist), n)
    assert np.max(np.abs(back.p - dist.p)) < 1e-12


def test_walsh_transform_is_an_involution_up_to_scale(rng):
    v = rng.standard_normal(16)
    assert np.allclose(walsh_transform(walsh_transform(v)) / 16.0, v)


@pytest.mark.parametrize("n", range(0, 11))
def test_walsh_transform_matches_dense_hadamard(n, rng):
    v = rng.standard_normal(1 << n)
    before = v.copy()
    h = reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * n, np.ones((1, 1)))
    w = walsh_transform(v)
    assert np.max(np.abs(w - h @ v)) < 1e-12
    assert np.array_equal(v, before)  # the input is not modified
    assert np.max(np.abs(walsh_transform(w) / (1 << n) - v)) < 1e-12


@pytest.mark.parametrize("n", range(0, 7))
def test_walsh_transform_of_rows_and_stacks_matches_the_character_sum(n, rng):
    row = rng.standard_normal(1 << n)
    assert np.max(np.abs(walsh_transform(row) - fourier_oracle(row))) <= 1e-12
    stack = rng.standard_normal((2, 3, 1 << n))
    oracle = np.array([[fourier_oracle(r) for r in block] for block in stack])
    assert np.max(np.abs(walsh_transform(stack) - oracle)) <= 1e-12


def test_k_uniform_two_paths_agree(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        # mix toward uniform so some cases pass at low k
        lam = rng.random()
        p = lam * random_dist(n, rng).p + (1 - lam) / 2**n
        dist = BitDistribution(n, p)
        for k in range(1, n):
            assert is_k_uniform(dist, k) == k_uniform_oracle(dist.p, n, k)


@pytest.mark.parametrize("bits", list(range(13)) + [18])
def test_hamming_weights_are_popcounts(bits):
    idx = np.arange(1 << bits)
    want = np.zeros(1 << bits, dtype=np.int64)
    for b in range(bits):
        want += (idx >> b) & 1
    got = gf2uniform._hamming_weights(bits)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_parity_constrained_uniform():
    dist = parity_constrained_uniform(6, ((1, 2, 3, 4), (3, 4, 5, 6)))
    nz = np.flatnonzero(dist.p > 0)
    assert nz.size == 16
    assert np.allclose(dist.p[nz], 1 / 16)
    for x in nz:
        b = [(int(x) >> (5 - i)) & 1 for i in range(6)]
        assert (b[0] + b[1] + b[2] + b[3]) % 2 == 0
        assert (b[2] + b[3] + b[4] + b[5]) % 2 == 0
    assert is_k_uniform(dist, 3)
    assert not is_k_uniform(dist, 4)


def test_marginal_distribution(rng):
    dist = random_dist(4, rng)
    m = marginal_distribution(dist, (2, 4))
    p = dist.p.reshape((2,) * 4)
    assert np.allclose(m.p.reshape(2, 2), p.sum(axis=(0, 2)), atol=1e-14)


def test_gf2_rank_against_oracle(rng):
    for _ in range(40):
        r = int(rng.integers(1, 7))
        c = int(rng.integers(1, 7))
        arr = rng.integers(0, 2, size=(r, c))
        assert gf2_rank(arr) == gf2_rank_oracle(arr.tolist())
    # no rows, and rows past 64 columns, which no machine word holds; the
    # low-rank products reach deficient ranks
    for r, c in ((0, 5), (5, 64), (64, 65), (70, 130), (130, 70)):
        inner = max(1, min(r, c) // 2)
        low = (rng.integers(0, 2, size=(r, inner)) @ rng.integers(0, 2, size=(inner, c))) % 2
        for arr in (rng.integers(0, 2, size=(r, c)), low):
            assert gf2_rank(arr) == gf2_rank_oracle(arr.tolist())


def test_gf2_rank_of_the_prism_cross_block():
    adj = hexacode_graph().adj
    white, black = [0, 1, 2], [3, 4, 5]
    # white side {1,2,3} is a triangle; the cross block pairs 1-4, 2-5, 3-6
    assert np.array_equal(adj[np.ix_(white, white)], 1 - np.eye(3, dtype=np.uint8))
    a_bw = adj[np.ix_(black, white)]
    assert np.array_equal(a_bw, np.eye(3, dtype=np.uint8))
    assert gf2_rank(a_bw) == 3


def test_is_maximally_uniform_graph():
    assert is_maximally_uniform_graph(hexacode_graph())
    path6 = GraphSpec.from_edges(6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6)))
    assert not is_maximally_uniform_graph(path6)
    with pytest.raises(ValidationError):
        is_maximally_uniform_graph(GraphSpec.from_edges(3, ((1, 2),)))


def all_graphs(v):
    pairs = list(itertools.combinations(range(v), 2))
    for mask in range(2 ** len(pairs)):
        adj = np.zeros((v, v), dtype=np.uint8)
        for b, (i, j) in enumerate(pairs):
            if (mask >> b) & 1:
                adj[i, j] = adj[j, i] = 1
        yield GraphSpec(v, adj)


def quantum_maximally_uniform(g):
    """Oracle: every balanced bipartition's reduced state is I/2^m."""
    m = g.v // 2
    psi = graph_state(g)
    eye = np.eye(2**m) / 2**m
    for rest in itertools.combinations(range(2, g.v + 1), m - 1):
        w = (1,) + rest
        if np.max(np.abs(partial_trace(psi, w).mat - eye)) > 1e-12:
            return False
    return True


def test_gf2_criterion_matches_quantum_oracle_v4():
    for g in all_graphs(4):
        assert is_maximally_uniform_graph(g) == quantum_maximally_uniform(g)


def test_gf2_criterion_matches_quantum_oracle_v6_sample(rng):
    graphs = [hexacode_graph()] + [random_graph(6, rng) for _ in range(30)]
    for g in graphs:
        assert is_maximally_uniform_graph(g) == quantum_maximally_uniform(g)


def test_search_m1_and_m2():
    hits = search_maximally_uniform(1)
    assert len(hits) == 1
    assert hits[0].edges() == ((1, 2),)
    assert search_maximally_uniform(2) == []


def test_search_m3_exhaustive_hits():
    hits = search_maximally_uniform(3)
    assert len(hits) == 132
    assert all(is_maximally_uniform_graph(g) for g in hits)
    assert all(quantum_maximally_uniform(g) for g in hits)
    prism = hexacode_graph()
    assert any(np.array_equal(g.adj, prism.adj) for g in hits)


def test_search_capacity_cap():
    with pytest.raises(CapacityError):
        search_maximally_uniform(5)
    # graphs are held as int64 neighbour masks, one bit per vertex, so 126
    # vertices is too many
    matching = GraphSpec.from_edges(126, [(2 * i + 1, 2 * i + 2) for i in range(63)])
    with pytest.raises(CapacityError):
        is_maximally_uniform_graph(matching)


def test_balanced_cut_cap_fires_before_allocating(monkeypatch):
    matching = GraphSpec.from_edges(126, [(2 * i + 1, 2 * i + 2) for i in range(63)])
    monkeypatch.setattr(gf2uniform, "np", NoNumpy())
    with pytest.raises(CapacityError):
        is_maximally_uniform_graph(matching)


def test_balanced_cut_cap_boundary(monkeypatch):
    # 62 vertices fit the int64 neighbour masks: the perfect matching fails
    # its first cut at once, out of C(61, 30) ~ 2.3e17
    matching = GraphSpec.from_edges(62, [(2 * i + 1, 2 * i + 2) for i in range(31)])
    assert not is_maximally_uniform_graph(matching)
    # 64 vertices would need bit 63, the int64 sign bit
    wide = GraphSpec.from_edges(64, [(2 * i + 1, 2 * i + 2) for i in range(32)])
    monkeypatch.setattr(gf2uniform, "np", NoNumpy())
    with pytest.raises(CapacityError):
        is_maximally_uniform_graph(wide)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_search_exhaustive_matches_reference(m):
    hits = search_maximally_uniform(m)
    ref = maximally_uniform_search_oracle(m)
    assert len(hits) == len(ref)
    for g, adj in zip(hits, ref):
        assert g.adj.dtype == adj.dtype and np.array_equal(g.adj, adj)


def pack_rows(blocks):
    """(G, r, c) 0/1 blocks -> (r, G) int64: row i of every block in
    entry i, column 0 most significant."""
    c = blocks.shape[2]
    packed = blocks.astype(np.int64) @ (1 << np.arange(c - 1, -1, -1, dtype=np.int64))
    return np.ascontiguousarray(packed.T)


@pytest.mark.parametrize("m", range(1, 9))
def test_batched_gf2_ranks_against_oracle(m):
    rng = np.random.default_rng([77, m])
    blocks = [np.zeros((m, m), dtype=np.uint8), np.eye(m, dtype=np.uint8)]
    repeated = rng.integers(0, 2, size=(m, m), dtype=np.uint8)
    repeated[-1] = repeated[0]
    blocks.append(repeated)
    # low-rank products reach every rank, not only the likely ones
    for r in range(m + 1):
        for _ in range(5):
            a = rng.integers(0, 2, size=(m, r))
            b = rng.integers(0, 2, size=(r, m))
            blocks.append(((a @ b) % 2).astype(np.uint8))
    blocks += list(rng.integers(0, 2, size=(200, m, m), dtype=np.uint8))
    stack = np.array(blocks)
    want = [gf2_rank_oracle(b.tolist()) for b in stack]
    assert gf2uniform._gf2_ranks(pack_rows(stack)).tolist() == want
    assert want[:2] == [0, m] and (m == 1 or want[2] < m)


def test_batched_cut_test_matches_per_graph_oracle(rng):
    # every m = 3 hit, the empty graph and random graphs: one batch whose
    # graphs drop out at many different cuts
    v = 6
    pairs = list(itertools.combinations(range(v), 2))
    adjs = maximally_uniform_search_oracle(3)
    adjs += [np.zeros((v, v), dtype=np.uint8)]
    adjs += [random_graph(v, rng).adj for _ in range(400)]
    stack = np.array(adjs)
    first_bad = [deficient_cut_oracle(a) for a in stack]
    want = np.array([k is None for k in first_bad])
    assert len({k for k in first_bad if k is not None}) >= 5
    # a graph's neighbour masks are the same from its adjacency, alone or
    # in a stack, and from its upper-triangle edge bits
    upper = np.array([[a[i, j] for i, j in pairs] for a in stack])
    nbr = upper @ gf2uniform._edge_rows(v)
    assert np.array_equal(nbr, [gf2uniform._neighbour_masks(a) for a in stack])
    assert np.array_equal(nbr, gf2uniform._neighbour_masks(stack))
    # axis j sits at bit v - 1 - j, so that bit of axis i's mask is adj[i, j]
    assert all(((nbr[:, i] >> (v - 1 - j)) & 1 == stack[:, i, j]).all()
               for i in range(v) for j in range(v))
    assert np.array_equal([g.adj for g in gf2uniform._graph_specs(nbr)], stack)
    cuts = list(gf2uniform._balanced_cuts(v))
    assert np.array_equal(gf2uniform._all_cuts_full_rank(nbr, cuts), want)
    assert [is_maximally_uniform_graph(GraphSpec(v, a)) for a in stack] == want.tolist()


def test_stabilizer_generators_fix_the_state(rng):
    # the generator at vertex a is X on a and Z on each neighbour of a
    for g in (hexacode_graph(), random_graph(5, rng)):
        psi = graph_state(g)
        for a in range(g.v):
            factors = "".join("X" if j == a else ("Z" if g.adj[a, j] else "I")
                              for j in range(g.v))
            assert np.allclose(pauli_dense(factors) @ psi.amp, psi.amp, atol=1e-12)


def test_min_stabilizer_weight_against_xor_oracle():
    assert min_stabilizer_weight(GraphSpec(5, np.zeros((5, 5), dtype=np.uint8))) == 1
    assert min_stabilizer_weight(hexacode_graph()) == 4
    assert min_stabilizer_weight(GraphSpec.from_edges(2, ((1, 2),))) == 2
    graphs = []
    for v in range(2, 9):
        graphs.append(GraphSpec(v, 1 - np.eye(v, dtype=np.uint8)))
        graphs.append(GraphSpec.from_edges(v, [(i, i + 1) for i in range(1, v)]))
    for v in range(5, 9):
        graphs.append(GraphSpec.from_edges(v, [(i, i % v + 1) for i in range(1, v + 1)]))
    rng = np.random.default_rng(20261018)
    # 14 and 16 vertices reach the high half of the split tables
    graphs += [random_graph(v, rng) for v in (*range(1, 13), 14, 16)]
    for g in graphs:
        assert min_stabilizer_weight(g) == stabilizer_weight_oracle(g.adj), g.edges()


def test_min_stabilizer_weight_caps_before_allocating(monkeypatch):
    g = GraphSpec(25, np.zeros((25, 25), dtype=np.uint8))

    def unreachable(*args, **kwargs):
        raise AssertionError("np.arange used before the capacity check")

    monkeypatch.setattr(np, "arange", unreachable)
    with pytest.raises(CapacityError):
        min_stabilizer_weight(g)


def test_graph_reduced_density_matches_partial_trace(rng):
    for _ in range(25):
        v = int(rng.integers(2, 8))
        g = random_graph(v, rng)
        psi = graph_state(g)
        size = int(rng.integers(1, v))
        w = tuple(sorted(rng.choice(np.arange(1, v + 1), size=size,
                                    replace=False).tolist()))
        a = graph_reduced_density(g, w).mat
        b = partial_trace(psi, w).mat
        assert np.max(np.abs(a - b)) < 1e-12


@pytest.mark.parametrize("v, k", [(2, 1), (6, 3), (9, 2), (12, 6), (16, 8), (18, 5), (70, 3)])
def test_syndrome_codes_give_the_broadcast_matrix_bitwise(v, k):
    # 70 vertices: each syndrome has 67 bits, more than one int64 holds
    rng = np.random.default_rng([v, k])
    for _ in range(3):
        g = random_graph(v, rng)
        w = tuple(sorted(rng.choice(np.arange(1, v + 1), size=k, replace=False).tolist()))
        want = graph_reduced_density_oracle(g, w)
        assert graph_reduced_density(g, w).mat.tobytes() == want.tobytes()


def test_syndrome_codes_for_rows_that_differ_only_past_bit_63():
    # kept vertices 1 and 3 each touch one dropped vertex, 64 places apart
    # in the dropped order (vertex 6 at place 2, vertex 70 at place 66)
    g = GraphSpec.from_edges(70, [(1, 70), (3, 6), (2, 5)])
    want = graph_reduced_density_oracle(g, (1, 2, 3))
    assert graph_reduced_density(g, (1, 2, 3)).mat.tobytes() == want.tobytes()


def test_graph_reduced_density_peak_stays_within_two_and_a_half_results():
    # the matrix and DensityMatrix's frozen copy: about 2.0x the result;
    # building the float outer product, the mask product and the complex
    # copy side by side read 3.7x here
    g = random_graph(16, np.random.default_rng([16, 8]))
    tracemalloc.start()
    try:
        rho = graph_reduced_density(g, tuple(range(1, 9)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rho.mat.nbytes == 16 << 16
    assert peak <= 2.5 * rho.mat.nbytes


def test_graph_reduced_density_requires_proper_subset():
    g = hexacode_graph()
    with pytest.raises(ValidationError):
        graph_reduced_density(g, (1, 2, 3, 4, 5, 6))
    with pytest.raises(ValidationError):
        graph_reduced_density(g, ())


def test_graph_reduced_density_caps_kept_block_before_allocating(monkeypatch):
    # a 13-vertex kept block would need about 2.1 GB, so the cap must fire
    # before any array is built: numpy is unreachable inside the call
    g = GraphSpec(14, np.zeros((14, 14), dtype=np.uint8))
    monkeypatch.setattr(gf2uniform, "np", NoNumpy())
    with pytest.raises(CapacityError):
        graph_reduced_density(g, tuple(range(1, 14)))


@pytest.mark.parametrize("n", range(0, 7))
def test_stacked_walsh_transform_equals_its_rows_bitwise(n, rng):
    stack = rng.standard_normal((3, 5, 1 << n))
    before = stack.copy()
    rows = np.array([[walsh_transform(row) for row in block] for block in stack])
    assert np.array_equal(walsh_transform(stack).view(np.int64), rows.view(np.int64))
    assert np.array_equal(stack, before)


def test_bitdistribution_rejects_nan():
    with pytest.raises(ValidationError, match="sum to nan"):
        BitDistribution(1, np.array([np.nan, 1.0]))


def test_checked_rows_raise_as_the_first_failing_row(rng):
    good = random_dist(2, rng).p
    off_sum = np.array([0.5, 0.25, 0.0, 0.0])
    negative = np.array([1.2, -0.2, 0.0, 0.0])
    for first, second in ((off_sum, negative), (negative, off_sum)):
        with pytest.raises(ValidationError) as single:
            BitDistribution(2, first)
        with pytest.raises(ValidationError) as stacked:
            gf2uniform._checked_rows(np.array([good, first, second]))
        assert str(stacked.value) == str(single.value)
    rows = gf2uniform._checked_rows(np.array([good, [0.5, 0.5, 0.0, -1e-12]]))
    assert not rows.flags.writeable
    assert np.array_equal(rows[1], [0.5, 0.5, 0.0, 0.0])


def test_k_uniform_rows_match_is_k_uniform(rng):
    dists = [parity_constrained_uniform(4, ((1, 2, 3),)), random_dist(4, rng),
             BitDistribution(4, np.full(16, 1 / 16))]
    stack = np.array([d.p for d in dists])
    for k in range(1, 5):
        want = [is_k_uniform(d, k) for d in dists]
        assert gf2uniform._k_uniform_rows(stack, k, 1e-10).tolist() == want
