"""GF(2) machinery: bit-string distributions and their parity transform,
k-uniformity tests, graph-state stabilizers, the closed-form reduced density
matrix of a graph state, and the balanced-rank search for maximally uniform
graphs.

Bit strings use the same big-endian packing as flat state indices: party i
of n sits at bit n - i (indexing.mask_of_parties), so party 1 is the most
significant bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError
from .hilbert import DensityMatrix, PureState
from .indexing import check_capacity, mask_of_parties, parties_to_axes
from .states import GraphSpec

DIST_TOL = 1e-10

_PAULI_LETTERS = ("I", "X", "Y", "Z")

# P * Q = i**t R, keyed by (P, Q) -> (t, R)
_PAULI_TABLE = {
    ("I", "I"): (0, "I"), ("I", "X"): (0, "X"), ("I", "Y"): (0, "Y"), ("I", "Z"): (0, "Z"),
    ("X", "I"): (0, "X"), ("X", "X"): (0, "I"), ("X", "Y"): (1, "Z"), ("X", "Z"): (3, "Y"),
    ("Y", "I"): (0, "Y"), ("Y", "X"): (3, "Z"), ("Y", "Y"): (0, "I"), ("Y", "Z"): (1, "X"),
    ("Z", "I"): (0, "Z"), ("Z", "X"): (1, "Y"), ("Z", "Y"): (3, "X"), ("Z", "Z"): (0, "I"),
}


def _hamming_weights(size: int, bits: int) -> np.ndarray:
    """Vector of popcounts for 0 .. size-1."""
    idx = np.arange(size)
    w = np.zeros(size, dtype=np.int64)
    for b in range(bits):
        w += (idx >> b) & 1
    return w


def _masked_parity(idx: np.ndarray, mask: int) -> np.ndarray:
    """Parity of idx & mask, vectorized over an index array."""
    par = np.zeros(idx.size, dtype=np.int64)
    b = 0
    while mask >> b:
        if (mask >> b) & 1:
            par ^= (idx >> b) & 1
        b += 1
    return par


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
        if np.any(p < -DIST_TOL):
            raise ValidationError("negative probability")
        total = float(p.sum())
        if abs(total - 1.0) > DIST_TOL:
            raise ValidationError(f"probabilities sum to {total!r}")
        p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        object.__setattr__(self, "p", p)

    @classmethod
    def from_state(cls, psi: PureState) -> "BitDistribution":
        """Standard-basis outcome distribution of a qubit state."""
        if psi.d != 2:
            raise ValidationError("bit distributions need d = 2")
        return cls(psi.n, np.abs(psi.amp) ** 2)


def walsh_transform(values: np.ndarray) -> np.ndarray:
    """Raw Walsh butterfly on a fresh float copy, O(n 2^n); self-inverse
    up to the factor 2^n.

    Level h views the array as (blocks, 2, h): every block's halves a, b
    become a + b, a - b in one vectorized step, so there are n numpy steps
    and no loop over blocks.  The length must be a power of two.
    """
    q = np.array(values, dtype=np.float64)
    buf = np.empty(q.size // 2)  # the a halves, reused at every level
    h = 1
    while h < q.size:
        v = q.reshape(-1, 2, h)
        a = buf.reshape(-1, h)
        np.copyto(a, v[:, 0])
        v[:, 0] += v[:, 1]
        np.subtract(a, v[:, 1], out=v[:, 1])
        h *= 2
    return q


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
    q = fourier(dist)
    w = _hamming_weights(q.size, dist.n)
    mask = (w >= 1) & (w <= k)
    return bool(np.all(np.abs(q[mask]) <= tol))


def marginal_distribution(dist: BitDistribution, parties) -> BitDistribution:
    """Marginal over a subset of parties (1-based, ascending order kept)."""
    axes = parties_to_axes(parties, dist.n)
    keep = set(axes)
    drop = tuple(a for a in range(dist.n) if a not in keep)
    marg = dist.p.reshape((2,) * dist.n).sum(axis=drop).reshape(-1)
    return BitDistribution(len(axes), marg)


def parity_constrained_uniform(n: int, checks) -> BitDistribution:
    """Uniform distribution on the strings with even parity on every check set.

    Each check is a collection of 1-based parties whose bits must XOR to
    zero.
    """
    check_capacity(n, 2)
    idx = np.arange(1 << n)
    ok = np.ones(1 << n, dtype=bool)
    for parties in checks:
        ok &= _masked_parity(idx, mask_of_parties(parties, n)) == 0
    count = int(ok.sum())
    if count == 0:
        raise ValidationError("parity checks are inconsistent")
    return BitDistribution(n, ok.astype(np.float64) / count)


# ---------------------------------------------------------------------------
# GF(2) linear algebra on adjacency blocks.

@dataclass(frozen=True, eq=False)
class Gf2Matrix:
    """Dense bit matrix over GF(2)."""

    rows: int
    cols: int
    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        if bits.shape != (self.rows, self.cols):
            raise ValidationError(f"bit block shape {bits.shape} != ({self.rows}, {self.cols})")
        if np.any(bits > 1):
            raise ValidationError("entries must be 0/1")
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_array(cls, arr) -> "Gf2Matrix":
        arr = np.asarray(arr, dtype=np.uint8)
        return cls(arr.shape[0], arr.shape[1], arr)


def _rank_int_rows(rows: list) -> int:
    """GF(2) rank of rows packed as ints (destructive on the list)."""
    rank = 0
    for row in rows:
        cur = row
        for piv in rows[:rank]:
            cur = min(cur, cur ^ piv)
        if cur:
            rows[rank] = cur
            rank += 1
    return rank


def gf2_rank(m) -> int:
    """Rank over GF(2) of a Gf2Matrix or a 0/1 array, rows packed as ints."""
    bits = m.bits if isinstance(m, Gf2Matrix) else np.asarray(m, dtype=np.uint8)
    packed = np.packbits(bits & 1, axis=1)
    return _rank_int_rows([int.from_bytes(row.tobytes(), "big") for row in packed])


def bipartition_blocks(g: GraphSpec, w) -> tuple:
    """Adjacency blocks (A_ww, A_bw) for a white vertex subset w.

    A_ww is the |w| x |w| block inside the white set, A_bw the |b| x |w|
    block from the complement to the white set; vertices ascend in both.
    """
    white_axes = parties_to_axes(w, g.v)
    black_axes = [a for a in range(g.v) if a not in set(white_axes)]
    if not white_axes or not black_axes:
        raise ValidationError("subset must leave both sides nonempty")
    a_ww = g.adj[np.ix_(white_axes, white_axes)]
    a_bw = g.adj[np.ix_(black_axes, white_axes)]
    return Gf2Matrix.from_array(a_ww), Gf2Matrix.from_array(a_bw)


_CUT_CHUNK = 4096

# Graphs tested together: 2^19 adjacency entries' worth, 0.5 MB as a
# uint8 stack (8,192 graphs at 8 vertices).  Larger chunks speed up the
# 2^28-graph search a little but raise the peak RSS of every search.
_GRAPH_CHUNK_ENTRIES = 1 << 19


def _cut_width(v: int) -> int:
    """Columns of a balanced cut block, v // 2.  Blocks are packed into
    int64 rows of that many bits, hence the cap."""
    m = v // 2
    if m > 62:
        raise CapacityError(f"balanced cuts of {v} vertices are out of reach")
    return m


def _balanced_cuts(v: int):
    """Balanced cuts of v vertices with vertex 1 white, in chunks.

    Yields (whites, blacks) axis arrays of shape (cuts, v // 2), ascending
    within each row, in combinations order.  Chunks keep memory bounded at
    large v, where the cut count grows as C(v - 1, v/2 - 1).
    """
    m = _cut_width(v)
    rests = itertools.combinations(range(1, v), m - 1)
    while chunk := [(0,) + rest for rest in itertools.islice(rests, _CUT_CHUNK)]:
        whites = np.array(chunk, dtype=np.intp)
        black = np.ones((len(chunk), v), dtype=bool)
        black[np.arange(len(chunk))[:, None], whites] = False
        yield whites, np.nonzero(black)[1].reshape(len(chunk), m)


def _gf2_ranks(rows) -> np.ndarray:
    """GF(2) ranks of a stack of G blocks with rows packed into int64.

    ``rows`` holds one (G,) array per block row: entry g of rows[i] is
    row i of block g.  The batched form of _rank_int_rows, and like it
    destructive: row i is reduced in place by the reduced rows before it
    with min(cur, cur ^ piv), which clears each earlier row's leading bit
    from cur.  A row that reduces to zero adds nothing to the rank and,
    as a later pivot, leaves every row unchanged.
    """
    rank = np.zeros(len(rows[0]), dtype=np.int64)
    for i, cur in enumerate(rows):
        for piv in rows[:i]:
            np.minimum(cur, cur ^ piv, out=cur)
        rank += cur != 0
    return rank


def _pair_positions(v: int) -> np.ndarray:
    """(v, v) bit positions of the edges in an edge mask: bit k is the k-th
    pair of itertools.combinations(range(v), 2); the diagonal reads 0."""
    pos = np.zeros((v, v), dtype=np.int64)
    iu = np.triu_indices(v, 1)  # row-major, the combinations order
    pos[iu] = pos.T[iu] = np.arange(len(iu[0]))
    return pos


def _adjacency_stack(upper: np.ndarray, v: int) -> np.ndarray:
    """(G, v, v) uint8 adjacencies from (G, C(v, 2)) 0/1 rows, one entry
    per pair of itertools.combinations(range(v), 2)."""
    i, j = np.triu_indices(v, 1)
    adj = np.zeros((len(upper), v, v), dtype=np.uint8)
    adj[:, i, j] = adj[:, j, i] = upper
    return adj


def _all_cuts_full_rank(graphs: np.ndarray, v: int, cuts) -> np.ndarray:
    """Which graphs of a stack have every balanced cut block A_bw of full
    rank over GF(2), as a bool array in stack order.

    ``graphs`` is either a 1-D array of edge masks (bits as in
    _pair_positions, so v <= 11) or a (G, v, v) adjacency stack;
    ``cuts`` yields (whites, blacks) chunks as from _balanced_cuts.  A
    graph with an isolated vertex fails without a rank: its block has a
    zero row or, with the vertex pinned white, a zero column.  The rest
    are tested one cut at a time: every surviving graph's block is packed
    into int64 rows, all of them go through one batched elimination, and
    graphs whose block is deficient drop out, so a graph stops at its
    first deficient block.
    """
    m = _cut_width(v)
    graphs = np.asarray(graphs)
    if graphs.ndim == 1:
        masks = graphs.astype(np.int64, copy=False)
        pos = _pair_positions(v)
        incident = np.bitwise_or.reduce(np.where(np.eye(v, dtype=bool), 0, 1 << pos), axis=1)
        keep = np.ones(len(masks), dtype=bool)
        for inc in incident.tolist():
            keep &= (masks & inc) != 0
        alive = np.flatnonzero(keep)

        # rows are built one (G,) array at a time: a (G, m, m) int64 block
        # would multiply the search's peak memory
        def block_rows(idx, blacks, whites):
            g = masks[idx]
            rows = []
            for b in blacks:
                row = np.zeros_like(g)
                for c, p in enumerate(pos[b, whites].tolist()):
                    row |= ((g >> p) & 1) << (m - 1 - c)
                rows.append(row)
            return rows
    else:
        alive = np.flatnonzero(np.all(graphs.any(axis=1), axis=1))
        weights = 1 << np.arange(m - 1, -1, -1, dtype=np.int64)

        def block_rows(idx, blacks, whites):
            return (graphs[idx[:, None, None], blacks[:, None], whites] @ weights).T
    for whites, blacks in itertools.chain.from_iterable(zip(w, b) for w, b in cuts):
        if not alive.size:
            break
        alive = alive[_gf2_ranks(block_rows(alive, blacks, whites)) == m]
    ok = np.zeros(len(graphs), dtype=bool)
    ok[alive] = True
    return ok


def is_maximally_uniform_graph(g: GraphSpec) -> bool:
    """True when every balanced bipartition block is nondegenerate over GF(2).

    Vertex 1 is pinned to the white side: complementary bipartitions share
    a block up to transpose, so C(2m, m)/2 representatives cover all cases.
    """
    if g.v % 2 != 0:
        raise ValidationError(f"vertex count {g.v} is odd")
    return bool(_all_cuts_full_rank(g.adj[None], g.v, _balanced_cuts(g.v))[0])


def search_maximally_uniform(m: int, mode: str = "exhaustive", budget: int = 100_000,
                             seed: int = 0) -> list:
    """Find maximally uniform graphs on 2m vertices.

    Exhaustive mode tests all 2^C(2m,2) edge sets as edge masks, in
    ascending chunks; the 2m <= 8 cap keeps that countable (2m = 8, 2^28
    graphs, takes under a minute).  Random mode samples `budget` graphs
    with edge probability 1/2, one draw per graph, and deduplicates.  Hits
    come back as GraphSpec objects in candidate order.
    """
    if m < 1:
        raise ValidationError(f"need m >= 1, got {m}")
    v = 2 * m
    n_pairs = v * (v - 1) // 2
    chunk = max(1, _GRAPH_CHUNK_ENTRIES // (v * v))

    hits = []
    if mode == "exhaustive":
        if v > 8:
            raise CapacityError(f"exhaustive search over 2^{n_pairs} graphs is out of reach")
        cuts = list(_balanced_cuts(v))
        for start in range(0, 1 << n_pairs, chunk):
            masks = np.arange(start, min(start + chunk, 1 << n_pairs), dtype=np.int64)
            found = masks[_all_cuts_full_rank(masks, v, cuts)]
            upper = (found[:, None] >> np.arange(n_pairs)) & 1
            hits += [GraphSpec(v, adj) for adj in _adjacency_stack(upper, v)]
    elif mode == "random":
        _cut_width(v)  # fail before drawing
        rng = np.random.default_rng(seed)
        seen = set()
        for start in range(0, budget, chunk):
            fresh = []
            for _ in range(min(chunk, budget - start)):
                upper = rng.integers(0, 2, size=n_pairs, dtype=np.uint8)
                key = upper.tobytes()
                if key not in seen:
                    seen.add(key)
                    fresh.append(upper)
            adj = _adjacency_stack(np.array(fresh, dtype=np.uint8).reshape(-1, n_pairs), v)
            ok = _all_cuts_full_rank(adj, v, _balanced_cuts(v))
            hits += [GraphSpec(v, a) for a in adj[ok]]
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    return hits


# ---------------------------------------------------------------------------
# Stabilizers.

@dataclass(frozen=True, eq=False)
class PauliString:
    """sign times a tensor product of single-qubit factors I, X, Y, Z.

    Only Hermitian strings are representable (sign +1 or -1); composing
    two anticommuting strings raises instead of producing a +/-i phase.
    """

    sign: int
    factors: tuple

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValidationError(f"sign {self.sign!r} must be +1 or -1")
        if not self.factors or any(f not in _PAULI_LETTERS for f in self.factors):
            raise ValidationError(f"bad factor string {self.factors!r}")
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def n(self) -> int:
        return len(self.factors)

    def weight(self) -> int:
        return sum(f != "I" for f in self.factors)

    def compose(self, other: "PauliString") -> "PauliString":
        """Product self * other; raises if the result is anti-Hermitian."""
        if other.n != self.n:
            raise ValidationError("length mismatch")
        phase = 0 if self.sign == 1 else 2
        phase += 0 if other.sign == 1 else 2
        out = []
        for a, b in zip(self.factors, other.factors):
            t, r = _PAULI_TABLE[(a, b)]
            phase += t
            out.append(r)
        phase %= 4
        if phase % 2:
            raise ValidationError("product has an imaginary overall phase")
        return PauliString(1 if phase == 0 else -1, tuple(out))

    def apply(self, psi: PureState) -> PureState:
        """Act on a qubit state."""
        if psi.d != 2 or psi.n != self.n:
            raise ValidationError("state shape does not match the operator")
        n = self.n
        xmask = mask_of_parties([i for i, f in enumerate(self.factors, 1) if f in "XY"], n)
        zymask = mask_of_parties([i for i, f in enumerate(self.factors, 1) if f in "ZY"], n)
        n_y = self.factors.count("Y")
        idx = np.arange(1 << n)
        signs = np.where(_masked_parity(idx, zymask), -1.0, 1.0)
        coef = self.sign * (1j) ** (n_y % 4)
        out = np.empty_like(psi.amp)
        out[idx ^ xmask] = coef * signs * psi.amp
        return PureState(n, 2, out)


def stabilizer_generators(g: GraphSpec) -> tuple:
    """One generator per vertex: X there, Z on each neighbor, sign +1."""
    gens = []
    for i in range(1, g.v + 1):
        nbrs = set(g.neighbors(i))
        factors = tuple("X" if j == i else ("Z" if j in nbrs else "I")
                        for j in range(1, g.v + 1))
        gens.append(PauliString(1, factors))
    return tuple(gens)


def _xor_table(rows: np.ndarray) -> np.ndarray:
    """XOR of every subset of rows: entry s is the XOR of rows[b] over the
    set bits b of s."""
    table = np.zeros(1, dtype=np.int64)
    for row in rows.tolist():
        table = np.concatenate((table, table ^ row))
    return table


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
    # Z row of the generator at X bit b (vertex v - b): the OR of its
    # neighbours' bits
    bits = np.array([mask_of_parties((i,), g.v) for i in range(1, g.v + 1)])
    zrows = (g.adj @ bits)[::-1]
    zlo = _xor_table(zrows[:lo])
    xlo = np.arange(1 << lo)
    popcount = _hamming_weights(1 << 12, 12)
    best = g.v
    for hi, zhi in enumerate(_xor_table(zrows[lo:]).tolist()):
        support = (xlo | (hi << lo)) | (zlo ^ zhi)
        w = popcount[support & 0xFFF] + popcount[support >> 12]
        if hi == 0:
            w[0] = g.v  # the identity
        best = min(best, int(w.min()))
    return best


def graph_reduced_density(g: GraphSpec, w) -> DensityMatrix:
    """Reduced density matrix of a graph state on the kept vertex subset w.

    In the standard basis of the kept block,
        <x| rho |y> = (-1)^(a(x) + a(y)) 2^(-|w|) [A_bw (x xor y) = 0]
    with a the edge quadratic form inside w and A_bw the block from the
    dropped set to w.  Entries are grouped by the syndrome A_bw x rather
    than testing every (x, y) pair; this must agree with the partial-trace
    path through the state vector.
    """
    keep_axes = parties_to_axes(w, g.v)
    if not 0 < len(keep_axes) < g.v:
        raise ValidationError("kept subset must be a nonempty proper subset of the vertices")
    # peak memory grows as 4^k: measured 57 MB at k = 10, so about 0.9 GB
    # at k = 12 and 3.6 GB at k = 13
    if len(keep_axes) > 12:
        raise CapacityError(f"kept block of {len(keep_axes)} vertices is out of reach")
    k = len(keep_axes)
    size = 1 << k
    x = np.arange(size)
    party_bits = [mask_of_parties((t,), k) for t in range(1, k + 1)]
    bits = ((x[:, None] & party_bits) != 0).astype(np.uint8)

    a_ww = np.zeros(size, dtype=np.uint8)
    for s in range(k):
        for t in range(s + 1, k):
            if g.adj[keep_axes[s], keep_axes[t]]:
                a_ww ^= bits[:, s] & bits[:, t]
    d = np.where(a_ww, -1.0, 1.0)

    drop_axes = [a for a in range(g.v) if a not in set(keep_axes)]
    block = g.adj[np.ix_(drop_axes, keep_axes)]
    synd = (bits @ block.T) % 2
    same = np.all(synd[:, None, :] == synd[None, :, :], axis=2)
    mat = (d[:, None] * d[None, :]) * same / size
    return DensityMatrix(size, mat.astype(np.complex128))
