"""GF(2) machinery: bit-string distributions and their parity transform,
k-uniformity tests, the minimum stabilizer weight of a graph state, the
closed-form reduced density matrix of a graph state, and the balanced-rank
search for maximally uniform graphs.

Bit strings use the same big-endian packing as flat state indices: party i
of n sits at bit n - i (indexing.mask_of_parties), so party 1 is the most
significant bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError
from .hilbert import DensityMatrix, _rotate_all
from .indexing import check_capacity, mask_of_parties, parties_to_axes
from .states import GraphSpec, _edge_signs

DIST_TOL = 1e-10

def _hamming_weights(bits: int) -> np.ndarray:
    """Popcounts of 0 .. 2**bits - 1; the parity of idx & mask is
    wt[idx & mask] & 1.  Built by doubling: the strings with top bit b
    weigh one more than those below 2**b."""
    w = np.zeros(1 << bits, dtype=np.int64)
    for b in range(bits):
        w[1 << b:2 << b] = w[:1 << b] + 1
    return w


# read-only 12-bit popcount table for min_stabilizer_weight; larger tables
# are built per call, since 2**18 entries would stay resident for good
_POPCOUNT12 = _hamming_weights(12)
_POPCOUNT12.flags.writeable = False


@dataclass(frozen=True, eq=False)
class BitDistribution:
    """Probability distribution over the 2**n strings of n bits."""

    n: int
    p: np.ndarray

    def __post_init__(self):
        check_capacity(self.n, 2)
        p = np.asarray(self.p, dtype=np.float64)
        if p.shape != (1 << self.n,):
            raise ValidationError(f"need {1 << self.n} probabilities, got shape {p.shape}")
        object.__setattr__(self, "p", _checked_rows(p))


def _checked_rows(p: np.ndarray) -> np.ndarray:
    """BitDistribution's checks on each row of a float stack (..., 2**n):
    no entry below -DIST_TOL and a total within DIST_TOL of 1 (a NaN total
    fails).  The first failing row raises the error a BitDistribution of
    it would.  Returns the rows clipped at 0, read-only."""
    negative = np.any(p < -DIST_TOL, axis=-1).reshape(-1)
    totals = p.sum(axis=-1).reshape(-1)
    bad = negative | ~(np.abs(totals - 1.0) <= DIST_TOL)
    if bad.any():
        row = int(np.argmax(bad))
        if negative[row]:
            raise ValidationError("negative probability")
        raise ValidationError(f"probabilities sum to {float(totals[row])!r}")
    p = np.clip(p, 0.0, None)
    p.setflags(write=False)
    return p


def walsh_transform(values: np.ndarray) -> np.ndarray:
    """Raw Walsh transform along the last axis, on a fresh float array;
    self-inverse up to the factor 2^n.  The rows are a stack of n-bit
    tensors against one operator set, the unnormalized Hadamard matrix on
    every bit, in the local-unitary kernel hilbert._rotate_all: ceil(n/3)
    passes, each one matmul with the 8 x 8 factor of three bits, so 8 * 2^n
    multiply-adds per pass and row.  A stack gives bitwise its rows' own
    transforms.  The last axis's length must be a power of two.
    """
    q = np.asarray(values, dtype=np.float64)
    n = q.shape[-1].bit_length() - 1
    ws = np.broadcast_to(np.array([[1.0, 1.0], [1.0, -1.0]]), (1, n, 2, 2))
    return _rotate_all(q, ws).reshape(q.shape) if n else q.copy()


def fourier(dist: BitDistribution) -> np.ndarray:
    """Parity transform q(y) = sum_x (-1)^(x . y) p(x); q[0] is always 1."""
    return walsh_transform(dist.p)


def inverse_fourier(q: np.ndarray, n: int) -> BitDistribution:
    """Rebuild the distribution from its parity transform."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (1 << n,):
        raise ValidationError(f"need {1 << n} coefficients, got shape {q.shape}")
    return BitDistribution(n, walsh_transform(q) / (1 << n))


def is_k_uniform(dist: BitDistribution, k: int, tol: float = DIST_TOL) -> bool:
    """True when every parity of weight 1 .. k is unbiased."""
    if not 0 <= k <= dist.n:
        raise ValidationError(f"k = {k} out of range for n = {dist.n}")
    if k == 0:
        return True
    return bool(_k_uniform_rows(dist.p, k, tol))


def _k_uniform_rows(p: np.ndarray, k: int, tol: float) -> np.ndarray:
    """is_k_uniform for each row of a stack of distributions (..., 2**n),
    1 <= k <= n: one Walsh transform over the stack."""
    w = _hamming_weights(p.shape[-1].bit_length() - 1)
    mask = (w >= 1) & (w <= k)
    return np.all(np.abs(walsh_transform(p)[..., mask]) <= tol, axis=-1)


def parity_constrained_uniform(n: int, checks) -> BitDistribution:
    """Uniform distribution on the strings with even parity on every check set.

    Each check is a collection of 1-based parties whose bits must XOR to
    zero.
    """
    check_capacity(n, 2)
    idx = np.arange(1 << n)
    wt = _hamming_weights(n)
    ok = np.ones(1 << n, dtype=bool)
    for parties in checks:
        ok &= (wt[idx & mask_of_parties(parties, n)] & 1) == 0
    count = int(ok.sum())
    if count == 0:
        raise ValidationError("parity checks are inconsistent")
    return BitDistribution(n, ok.astype(np.float64) / count)


# ---------------------------------------------------------------------------
# GF(2) linear algebra on adjacency blocks.

def gf2_rank(m) -> int:
    """Rank over GF(2) of a 0/1 array: _gf2_ranks on a 0-d stack of one
    block, rows packed as object-dtype Python ints so any width fits."""
    packed = np.packbits(np.asarray(m, dtype=np.uint8) & 1, axis=1)
    return int(_gf2_ranks([np.array(int.from_bytes(row.tobytes(), "big"), dtype=object)
                           for row in packed]))


# Graphs tested together: 8,192 rows of neighbour masks, 0.5 MB at 8
# vertices; the chunk's working copies scale with it, and so does the
# peak RSS of every search.
_GRAPH_CHUNK = 1 << 13


def _vertex_bits(v: int) -> np.ndarray:
    """Bit of each vertex, vertex i at bit v - i as in mask_of_parties.
    Neighbour masks are int64 rows of these bits, hence the cap: 62 is the
    largest even vertex count whose bits stay below the sign bit."""
    if v > 62:
        raise CapacityError(f"neighbour masks of {v} vertices are out of reach")
    return np.array([mask_of_parties((i,), v) for i in range(1, v + 1)], dtype=np.int64)


def _neighbour_masks(adj: np.ndarray) -> np.ndarray:
    """Neighbour mask of every vertex of a (..., v, v) adjacency."""
    return adj @ _vertex_bits(adj.shape[-1])


def _edge_rows(v: int) -> np.ndarray:
    """(C(v, 2), v) neighbour masks of each single-edge graph, edges in
    itertools.combinations(range(v), 2) order; a graph's masks are the
    XOR of its edges' rows."""
    bits = _vertex_bits(v)
    i, j = np.triu_indices(v, 1)  # row-major, the combinations order
    rows = np.zeros((len(i), v), dtype=np.int64)
    k = np.arange(len(i))
    rows[k, i], rows[k, j] = bits[j], bits[i]
    return rows


def _xor_table(rows: np.ndarray) -> np.ndarray:
    """XOR of every subset of rows, of any trailing shape: entry s is the
    XOR of rows[b] over the set bits b of s."""
    table = np.zeros((1 << len(rows),) + rows.shape[1:], dtype=np.int64)
    for b, row in enumerate(rows):
        np.bitwise_xor(table[:1 << b], row, out=table[1 << b:2 << b])
    return table


def _graph_specs(nbr: np.ndarray) -> list:
    """GraphSpecs from (G, v) neighbour masks."""
    v = nbr.shape[1]
    adj = ((nbr[:, :, None] & _vertex_bits(v)) != 0).astype(np.uint8)
    return [GraphSpec(v, a) for a in adj]


def _balanced_cuts(v: int):
    """Balanced cuts of v vertices with vertex 1 white, in combinations
    order, as (white mask, 0-based black axes) pairs; lazy, since the
    count grows as C(v - 1, v/2 - 1)."""
    for rest in itertools.combinations(range(2, v + 1), v // 2 - 1):
        white = (1,) + rest
        yield mask_of_parties(white, v), [a for a in range(v) if a + 1 not in white]


def _gf2_ranks(rows):
    """GF(2) ranks of a stack of G blocks with rows packed into integers:
    the one GF(2) elimination.

    ``rows`` holds one (G,) array per block row, or one 0-d array for a
    single block: entry g of rows[i] is row i of block g, as int64 or as
    object-dtype Python ints.  The rows are reduced in place: row i by the
    reduced rows before it with min(cur, cur ^ piv), which clears each
    earlier row's leading bit from cur.  A row that reduces to zero adds
    nothing to the rank and, as a later pivot, leaves every row unchanged.
    No rows give rank 0.
    """
    rank = 0
    for i, cur in enumerate(rows):
        for piv in rows[:i]:
            np.minimum(cur, cur ^ piv, out=cur)
        rank += cur != 0
    return rank


def _all_cuts_full_rank(nbr: np.ndarray, cuts) -> np.ndarray:
    """Which graphs of a stack have every balanced cut block A_bw of full
    rank over GF(2), as a bool array in stack order.

    ``nbr`` holds (G, v) neighbour masks; ``cuts`` yields (white mask,
    black axes) pairs as from _balanced_cuts.  Row b of A_bw is
    nbr[:, b] & white: its columns stay at their vertex bits, which does
    not change the rank.  A graph with an isolated vertex fails without a
    rank: its block has a zero row or, with the vertex pinned white, a
    zero column.  The rest are tested one cut at a time in one batched
    elimination, and graphs whose block is deficient drop out, so a graph
    stops at its first deficient block.
    """
    cols = np.ascontiguousarray(nbr.T)  # vertex-major: column gathers are contiguous
    alive = np.flatnonzero(cols.all(axis=0))
    for white, blacks in cuts:
        if not alive.size:
            break
        rank = _gf2_ranks([cols[b][alive] & white for b in blacks])
        alive = alive[rank == len(blacks)]
    ok = np.zeros(len(nbr), dtype=bool)
    ok[alive] = True
    return ok


def is_maximally_uniform_graph(g: GraphSpec) -> bool:
    """True when every balanced bipartition block is nondegenerate over GF(2).

    Vertex 1 is pinned to the white side: complementary bipartitions share
    a block up to transpose, so C(2m, m)/2 representatives cover all cases.
    """
    if g.v % 2 != 0:
        raise ValidationError(f"vertex count {g.v} is odd")
    return bool(_all_cuts_full_rank(_neighbour_masks(g.adj)[None], _balanced_cuts(g.v))[0])


def search_maximally_uniform(m: int) -> list:
    """Find every maximally uniform graph on 2m vertices.

    Tests all 2^C(2m,2) edge sets in ascending edge-mask order, bit k the
    k-th vertex pair: the neighbour masks of a chunk are one row of an XOR
    table over the high edges XORed onto the table over the low ones.  The
    2m <= 8 cap keeps that countable (2m = 8, 2^28 graphs, takes about
    20 s); beyond it no qubit state has every m-qubit block maximally
    mixed anyway (see verify.graphs_suite).  Hits come back as GraphSpec
    objects in candidate order.
    """
    if m < 1:
        raise ValidationError(f"need m >= 1, got {m}")
    v = 2 * m
    n_pairs = v * (v - 1) // 2
    if v > 8:
        raise CapacityError(f"exhaustive search over 2^{n_pairs} graphs is out of reach")
    edge_rows = _edge_rows(v)
    lo = min(n_pairs, _GRAPH_CHUNK.bit_length() - 1)
    low = _xor_table(edge_rows[:lo])
    cuts = list(_balanced_cuts(v))
    hits = []
    for high in _xor_table(edge_rows[lo:]):
        nbr = low ^ high
        hits += _graph_specs(nbr[_all_cuts_full_rank(nbr, cuts)])
    return hits


# ---------------------------------------------------------------------------
# Stabilizers.

def min_stabilizer_weight(g: GraphSpec) -> int:
    """Smallest support among the 2^v - 1 nonidentity stabilizer elements.

    The product over a generator subset S has X-part S and Z-part the XOR
    of the adjacency rows of S, so the support mask is their union; signs
    do not move the support.  The Z-part is linear in S, so with S split
    into its low 12 bits and the rest it is zlo[lo] ^ zhi[hi] from two XOR
    tables; each high part is one numpy step over the 4,096 low parts,
    and weights are read from a 12-bit popcount table.
    """
    if g.v > 24:
        raise CapacityError(f"2^{g.v} stabilizer elements is out of reach")
    lo = min(g.v, 12)
    # Z row of the generator at X bit b (vertex v - b): its neighbour mask
    zrows = _neighbour_masks(g.adj)[::-1]
    zlo = _xor_table(zrows[:lo])
    xlo = np.arange(1 << lo)
    best = g.v
    for hi, zhi in enumerate(_xor_table(zrows[lo:]).tolist()):
        support = (xlo | (hi << lo)) | (zlo ^ zhi)
        w = _POPCOUNT12[support & 0xFFF] + _POPCOUNT12[support >> 12]
        if hi == 0:
            w[0] = g.v  # the identity
        best = min(best, int(w.min()))
    return best


def graph_reduced_density(g: GraphSpec, w) -> DensityMatrix:
    """Reduced density matrix of a graph state on the kept vertex subset w.

    In the standard basis of the kept block,
        <x| rho |y> = (-1)^(a(x) + a(y)) 2^(-|w|) [A_bw (x xor y) = 0]
    with a the edge quadratic form of w's induced subgraph (its signs from
    states._edge_signs) and A_bw the block from the dropped set to w.
    Entries are grouped by the syndrome A_bw x rather than testing every
    (x, y) pair; this must agree with the partial-trace path through the
    state vector.
    """
    keep_axes = parties_to_axes(w, g.v)
    if not 0 < len(keep_axes) < g.v:
        raise ValidationError("kept subset must be a nonempty proper subset of the vertices")
    # peak memory grows as 4^k, about twice the 16 * 4^k byte result (the
    # matrix and DensityMatrix's frozen copy): tracemalloc read 33.6 MB at
    # k = 10 and 134 MB at k = 11, so about 0.54 GB at k = 12 and 2.1 GB
    # at k = 13
    if len(keep_axes) > 12:
        raise CapacityError(f"kept block of {len(keep_axes)} vertices is out of reach")
    k = len(keep_axes)
    size = 1 << k
    x = np.arange(size)
    bits = ((x[:, None] & _vertex_bits(k)) != 0).astype(np.uint8)
    d = _edge_signs(GraphSpec(k, g.adj[np.ix_(keep_axes, keep_axes)]))

    drop_axes = [a for a in range(g.v) if a not in set(keep_axes)]
    block = g.adj[np.ix_(drop_axes, keep_axes)]
    synd = (bits @ block.T) % 2
    # each row's index among the distinct syndromes: one int64 code per
    # row, whatever the syndrome width, equal exactly where the rows are
    code = np.unique(synd, axis=0, return_inverse=True)[1].reshape(-1)
    # one complex matrix: the outer product of d / 2^k and d in its real
    # part, times 0 where the codes differ (so a zero keeps the sign of
    # d_x d_y); only the boolean mask, 1/16 of its size, lives beside it
    mat = np.zeros((size, size), dtype=np.complex128)
    re = mat.real
    np.multiply.outer(d / size, d, out=re)
    np.multiply(re, code[:, None] == code[None, :], out=re)
    return DensityMatrix(size, mat)
