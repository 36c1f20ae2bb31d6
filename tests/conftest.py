"""Shared independent oracles: deliberately slow, straight-line
reimplementations used to cross-check the library's fast paths."""

import itertools
import tracemalloc

import numpy as np
import pytest


class NoNumpy:
    """Stands in for the numpy module: any use fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} used before the capacity check")


def capacity_error_peak(call, *args):
    """call(*args) must raise CapacityError; returns the peak bytes that
    tracemalloc saw allocated meanwhile."""
    from entmin.errors import CapacityError

    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def product_column(mats, digits):
    """Kron chain of one basis column per party, party 1 most significant."""
    col = np.array([1.0 + 0.0j])
    for m, j in zip(mats, digits):
        col = np.kron(col, m[:, j])
    return col


def outcome_oracle(psi, basis):
    """Measurement probabilities via explicit product vectors, O(d^2n)."""
    p = np.empty(psi.d**psi.n)
    for k, digits in enumerate(itertools.product(range(psi.d), repeat=psi.n)):
        v = product_column(basis.u, digits)
        p[k] = abs(np.vdot(v, psi.amp)) ** 2
    return p


def fourier_oracle(p):
    """Direct character sum q(y) = sum_x (-1)^(x.y) p(x), O(4^n)."""
    size = p.size
    q = np.zeros(size)
    for y in range(size):
        for x in range(size):
            q[y] += p[x] * (-1.0) ** bin(x & y).count("1")
    return q


def k_uniform_oracle(p, n, k, tol=1e-10):
    """Every k-party marginal of a distribution on n bits is uniform."""
    t = np.asarray(p).reshape((2,) * n)
    for keep in itertools.combinations(range(n), k):
        drop = tuple(a for a in range(n) if a not in keep)
        if np.any(np.abs(t.sum(axis=drop) - 1.0 / 2**k) > tol):
            return False
    return True


def subset_bound_oracle(psi):
    """The subset scan one subset at a time: subset_lower_bound on every
    subset of size <= n/2, complements included, in size-then-lexicographic
    order; the first value above the best by more than 1e-12 wins."""
    from entmin.entopt import subset_lower_bound

    best, witness = 0.0, ()
    for size in range(1, psi.n // 2 + 1):
        for x in itertools.combinations(range(1, psi.n + 1), size):
            val = subset_lower_bound(psi, x)
            if val > best + 1e-12:
                best, witness = val, x
    return best, witness


def edge_sign_oracle(g):
    """The edge signs one edge at a time: three passes over all 2^v strings
    per edge, the phase flipped where both ends are set."""
    from entmin.indexing import mask_of_parties

    x = np.arange(1 << g.v)
    phase = np.zeros(1 << g.v, dtype=np.uint8)
    for edge in g.edges():
        both = mask_of_parties(edge, g.v)
        phase ^= (x & both) == both
    return np.where(phase, -1.0, 1.0)


def graph_reduced_density_oracle(g, w):
    """A graph state's reduced matrix on w with every (x, y) syndrome pair
    compared bit by bit: a (2^k, 2^k, v - k) boolean broadcast."""
    from entmin.states import GraphSpec

    keep = [t - 1 for t in sorted(w)]
    drop = [a for a in range(g.v) if a not in keep]
    k = len(keep)
    size = 1 << k
    bits = ((np.arange(size)[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.uint8)
    d = edge_sign_oracle(GraphSpec(k, g.adj[np.ix_(keep, keep)]))
    synd = (bits @ g.adj[np.ix_(drop, keep)].T) % 2
    same = np.all(synd[:, None, :] == synd[None, :, :], axis=2)
    return ((d[:, None] * d[None, :]) * same / size).astype(np.complex128)


def stabilizer_weight_oracle(adj):
    """Least support over all 2^v - 1 generator products: the product over
    a vertex set S has X on S and Z on the XOR of S's adjacency rows."""
    adj = np.asarray(adj, dtype=np.int64)
    v = len(adj)
    s = (np.arange(1, 1 << v)[:, None] >> np.arange(v)) & 1
    z = (s @ adj) % 2
    return int(np.min(np.sum(s | z, axis=1)))


def gf2_rank_oracle(rows):
    """Row-reduction rank over GF(2) on a list of 0/1 lists."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def deficient_cut_oracle(adj):
    """Index of the first balanced cut, vertex 1 white and cuts in
    combinations order, whose cross block A_bw is singular by
    gf2_rank_oracle; None when every block has full rank."""
    adj = np.asarray(adj)
    v = len(adj)
    m = v // 2
    for k, rest in enumerate(itertools.combinations(range(1, v), m - 1)):
        white = (0,) + rest
        black = [a for a in range(v) if a not in white]
        if gf2_rank_oracle(adj[np.ix_(black, white)].tolist()) != m:
            return k
    return None


def maximally_uniform_search_oracle(m):
    """The graph search one graph at a time: every edge mask in ascending
    order; a graph is a hit when no balanced cut block is singular.
    Returns the hits' adjacency matrices in candidate order."""
    v = 2 * m
    pairs = list(itertools.combinations(range(v), 2))

    def adjacency(bits):
        adj = np.zeros((v, v), dtype=np.uint8)
        for bit, (i, j) in zip(bits, pairs):
            adj[i, j] = adj[j, i] = bit
        return adj

    candidates = (adjacency([(mask >> b) & 1 for b in range(len(pairs))])
                  for mask in range(1 << len(pairs)))
    return [adj for adj in candidates if deficient_cut_oracle(adj) is None]


PAULI_MATS = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def pauli_dense(factors):
    """Dense matrix of a string of Pauli letters, party 1 most significant."""
    m = np.ones((1, 1), dtype=np.complex128)
    for f in factors:
        m = np.kron(m, PAULI_MATS[f])
    return m


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)
