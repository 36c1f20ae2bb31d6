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
from .indexing import check_capacity, flat_from_digits


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
    otherwise.
    """
    if n < 2 or n > 7:
        raise CapacityError(f"supported range is 2 <= n <= 7, got {n}")
    amp = np.zeros(n**n, dtype=np.complex128)
    norm = 1.0 / math.sqrt(math.factorial(n))
    for perm in itertools.permutations(range(n)):
        amp[flat_from_digits(perm, n)] = _permutation_sign(perm) * norm
    return PureState(n, n, amp)


def log2_factorial(m: int) -> float:
    """log2(m!) by direct summation; exact in double precision at this scale."""
    return float(sum(math.log2(k) for k in range(2, m + 1)))


def generalized_determinant(d: int, p: int) -> PureState:
    """Antisymmetric state of d**p levels re-encoded into p * d**p parties of dim d.

    Level k is spelled out as the p base-d digits of k, most significant
    first, so the amplitude vector is that of determinant_state(d**p) read
    as p * d**p parties of dimension d: (d**p)! equal-magnitude nonzero
    amplitudes.  It only exists within capacity (d = 2 needs p <= 2);
    beyond that use :func:`generalized_determinant_support`.
    """
    if d < 2 or p < 1:
        raise ValidationError(f"need d >= 2 and p >= 1, got ({d}, {p})")
    if p > 4:  # then p * d**p > 22 parties, so d**p is never built
        raise CapacityError(f"{p} * {d}**{p} parties of local dimension {d} "
                            f"need more amplitudes than the cap of 2**22")
    n = p * d**p
    check_capacity(n, d)
    return PureState(n, d, determinant_state(d**p).amp)


def generalized_determinant_support(d: int, p: int):
    """Support of the standard-basis outcome distribution, without the state.

    Returns (flat_indices, probability): the (d**p)! outcome strings, each
    carrying probability 1/(d**p)!.  Usable beyond full-amplitude capacity
    as long as the factorial itself is enumerable.
    """
    if d < 2 or p < 1:
        raise ValidationError(f"need d >= 2 and p >= 1, got ({d}, {p})")
    # 10! > 1e6 and d**p >= 2**p, so no big integer is built to reject
    if p > 3 or d**p > 9:
        raise CapacityError(f"({d}**{p})! outcomes is beyond enumeration capacity")
    levels = d**p
    idx = [flat_from_digits(perm, levels) for perm in itertools.permutations(range(levels))]
    return np.array(sorted(idx), dtype=np.int64), 1.0 / math.factorial(levels)


def _edge_signs(g: GraphSpec) -> np.ndarray:
    """(-1)^(edge quadratic form) of every v-bit string, in flat order,
    shared with the graph-state reduced densities.

    Vertex i sits at bit v - i (mask_of_parties).  Built by doubling: a
    string x whose top set bit is b has the sign of y = x - 2**b, flipped
    by the parity of y & N_b, where N_b masks the neighbours of the vertex
    at bit b among the lower bits.  That parity is itself a table over
    y < 2**b built by doubling, so the vertex at bit b costs two passes
    over 2**b entries and the whole table O(2**v), whatever the edge count.
    """
    v = g.v
    # reversing both axes puts the vertex at bit b in row and column b
    by_bit = g.adj[::-1, ::-1]
    phase = np.zeros(1 << v, dtype=np.uint8)
    for b in range(v):
        half = phase[1 << b:2 << b]
        for c in range(b):
            half[1 << c:2 << c] = half[:1 << c] ^ by_bit[b, c]
        half ^= phase[:1 << b]
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
