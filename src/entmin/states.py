"""Constructors for the named states: GHZ, determinant-type and graph states.

Graphs are plain adjacency matrices over GF(2) with 1-based vertex labels;
the 6-vertex triangular-prism graph used to define the hexacode state is
provided with a startup self-check so a transcription slip fails loudly.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError
from .hilbert import PureState
from .indexing import check_capacity, flat_from_digits, mask_of_parties


@dataclass(frozen=True, eq=False)
class GraphSpec:
    """Unoriented graph as a symmetric 0/1 adjacency matrix, zero diagonal."""

    v: int
    adj: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adj, dtype=np.uint8)
        if adj.shape != (self.v, self.v):
            raise ValidationError(f"adjacency shape {adj.shape} != ({self.v}, {self.v})")
        if np.any(adj > 1):
            raise ValidationError("adjacency entries must be 0/1")
        if np.any(adj != adj.T):
            raise ValidationError("adjacency matrix must be symmetric")
        if np.any(np.diag(adj) != 0):
            raise ValidationError("adjacency diagonal must be zero")
        adj.setflags(write=False)
        object.__setattr__(self, "adj", adj)

    @classmethod
    def from_edges(cls, v: int, edges) -> "GraphSpec":
        """Build from 1-based (i, j) pairs."""
        adj = np.zeros((v, v), dtype=np.uint8)
        for i, j in edges:
            if not (1 <= i <= v and 1 <= j <= v) or i == j:
                raise ValidationError(f"bad edge ({i}, {j}) for {v} vertices")
            adj[i - 1, j - 1] = adj[j - 1, i - 1] = 1
        return cls(v, adj)

    def edges(self) -> tuple:
        """Sorted 1-based edge pairs."""
        idx = np.argwhere(np.triu(self.adj, 1))
        return tuple((int(i) + 1, int(j) + 1) for i, j in idx)

    def neighbors(self, vertex: int) -> tuple:
        """1-based neighbor labels of a 1-based vertex."""
        if not 1 <= vertex <= self.v:
            raise ValidationError(f"vertex {vertex} out of range")
        return tuple(int(j) + 1 for j in np.flatnonzero(self.adj[vertex - 1]))

    def degree(self, vertex: int) -> int:
        return len(self.neighbors(vertex))


@dataclass(frozen=True, eq=False)
class CodeMap:
    """Bijection from the integers [1, d**p] to length-p digit strings base d."""

    p: int
    d: int
    table: tuple

    def __post_init__(self):
        if len(self.table) != self.d**self.p:
            raise ValidationError(f"table has {len(self.table)} entries, expected {self.d}**{self.p}")
        if len(set(self.table)) != len(self.table):
            raise ValidationError("table is not a bijection")
        for word in self.table:
            if len(word) != self.p or any(not 0 <= x < self.d for x in word):
                raise ValidationError(f"bad code word {word!r}")

    @classmethod
    def lexicographic(cls, d: int, p: int) -> "CodeMap":
        """k -> digits of k-1 in base d, p digits, most significant first."""
        return cls(p, d, tuple(itertools.product(range(d), repeat=p)))

    def word(self, k: int) -> tuple:
        """Digit string for an integer k in [1, d**p]."""
        if not 1 <= k <= self.d**self.p:
            raise ValidationError(f"index {k} out of range [1, {self.d}**{self.p}]")
        return self.table[k - 1]


def ghz(n: int, d: int) -> PureState:
    """Uniform superposition of the d all-equal product strings, n parties."""
    if n < 2 or d < 2:
        raise ValidationError(f"need n >= 2 and d >= 2, got ({n}, {d})")
    check_capacity(n, d)
    amp = np.zeros(d**n, dtype=np.complex128)
    for k in range(d):
        amp[flat_from_digits([k] * n, d)] = 1.0 / math.sqrt(d)
    return PureState(n, d, amp)


def _permutation_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def determinant_state(n: int) -> PureState:
    """Totally antisymmetric state of n parties with d = n levels.

    Amplitude on the multi-index (i_1, ..., i_n) is sign of the permutation
    over sqrt(n!) when the indices are a permutation of all n levels, zero
    otherwise.  This is generalized_determinant(n, 1).
    """
    if n < 2 or n > 7:
        raise CapacityError(f"supported range is 2 <= n <= 7, got {n}")
    return generalized_determinant(n, 1)


def log2_factorial(m: int) -> float:
    """log2(m!) by direct summation; exact in double precision at this scale."""
    return float(sum(math.log2(k) for k in range(2, m + 1)))


def _level_digits(d: int, p: int, code: CodeMap | None) -> list:
    """Each level's p-digit code word as one base-d**p digit of a flat index."""
    if code is None:
        code = CodeMap.lexicographic(d, p)
    elif (code.d, code.p) != (d, p):
        raise ValidationError("code map dimensions do not match (d, p)")
    return [flat_from_digits(code.word(k), d) for k in range(1, d**p + 1)]


def generalized_determinant(d: int, p: int, code: CodeMap | None = None) -> PureState:
    """Antisymmetric state of d**p levels re-encoded into p * d**p parties of dim d.

    Each level index is spelled out as its p-digit code word, so the state
    has (d**p)! equal-magnitude nonzero amplitudes.  The full amplitude
    vector only exists within capacity (d = 2 needs p <= 2); beyond that use
    :func:`generalized_determinant_support`.
    """
    if d < 2 or p < 1:
        raise ValidationError(f"need d >= 2 and p >= 1, got ({d}, {p})")
    n = p * d**p
    check_capacity(n, d)
    digits = _level_digits(d, p, code)
    amp = np.zeros(d**n, dtype=np.complex128)
    # a permutation of the levels has the sign of its digit sequence times
    # the sign of the code's own digit order
    norm = _permutation_sign(digits) / math.sqrt(math.factorial(d**p))
    for spelled in itertools.permutations(digits):
        amp[flat_from_digits(spelled, d**p)] = _permutation_sign(spelled) * norm
    return PureState(n, d, amp)


def generalized_determinant_support(d: int, p: int, code: CodeMap | None = None):
    """Support of the standard-basis outcome distribution, without the state.

    Returns (flat_indices, probability): the (d**p)! outcome strings, each
    carrying probability 1/(d**p)!.  Usable beyond full-amplitude capacity
    as long as the factorial itself is enumerable.
    """
    if d < 2 or p < 1:
        raise ValidationError(f"need d >= 2 and p >= 1, got ({d}, {p})")
    levels = d**p
    if math.factorial(levels) > 1_000_000:
        raise CapacityError(f"({d}**{p})! outcomes is beyond enumeration capacity")
    idx = [flat_from_digits(spelled, levels)
           for spelled in itertools.permutations(_level_digits(d, p, code))]
    return np.array(sorted(idx), dtype=np.int64), 1.0 / math.factorial(levels)


def _edge_signs(g: GraphSpec) -> np.ndarray:
    """(-1)^(edge quadratic form) of every v-bit string, in flat order: the
    one edge-form loop, shared with the graph-state reduced densities."""
    x = np.arange(1 << g.v)
    phase = np.zeros(1 << g.v, dtype=np.uint8)
    for edge in g.edges():
        both = mask_of_parties(edge, g.v)
        phase ^= (x & both) == both
    return np.where(phase, -1.0, 1.0)


def graph_state(g: GraphSpec) -> PureState:
    """Qubit state with amplitudes (-1)^(edge quadratic form) / 2^(v/2)."""
    check_capacity(g.v, 2)
    amp = _edge_signs(g) / math.sqrt(1 << g.v)
    return PureState(g.v, 2, amp.astype(np.complex128))


_HEXACODE_EDGES = ((1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (1, 4), (2, 5), (3, 6))


@functools.cache
def hexacode_graph() -> GraphSpec:
    """The triangular-prism graph on 6 vertices behind the hexacode state.

    Inner triangle {12, 13, 23}, outer triangle {45, 46, 56}, spokes
    {14, 25, 36}.  The edge list is validated on first use: the graph must
    be maximally uniform and its stabilizer group must have minimal weight
    4, otherwise construction fails.
    """
    from . import gf2uniform  # deferred: gf2uniform imports GraphSpec from here

    g = GraphSpec.from_edges(6, _HEXACODE_EDGES)
    if not gf2uniform.is_maximally_uniform_graph(g):
        raise ValidationError("prism edge list failed the balanced-bipartition rank check")
    if gf2uniform.min_stabilizer_weight(g) != 4:
        raise ValidationError("prism edge list failed the stabilizer-weight check")
    return g


def hexacode_state() -> PureState:
    """Graph state of the validated prism graph."""
    return graph_state(hexacode_graph())


# ---------------------------------------------------------------------------
# Edge-list files: one "i j" pair per line, 1-based vertices.

def save_graph(g: GraphSpec, path) -> None:
    with open(path, "w") as fh:
        for i, j in g.edges():
            fh.write(f"{i} {j}\n")


def load_graph(path) -> GraphSpec:
    """Read an edge-list file; the vertex count is the largest label."""
    edges = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValidationError(f"bad edge line {line!r}")
            edges.append((int(parts[0]), int(parts[1])))
    if not edges:
        raise ValidationError("empty edge list")
    return GraphSpec.from_edges(max(max(e) for e in edges), edges)
