"""Reference checks computed apart from entmin.

Everything here uses numpy (and scipy for the polytope) only; nothing is
imported from entmin or from its test suite, so a fault in the package
cannot hide itself by being reused in its own check.  Conventions match the
package's public data: a state is a flat complex vector of length d**n with
party 1 as the most significant digit, and column j of a party's basis
matrix is its j-th measurement vector.  Each check raises CheckFailed with
the measured and expected values when it does not hold.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

WITNESS_TOL = 1e-9
UNITARY_TOL = 1e-10
SCHMIDT_GAP_TOL = 1e-4
UNDERCUT_TOL = 1e-9
DIST_TOL = 1e-10

# Normalized entropies log2((2^p)!) / (p 2^p) as printed in the paper.
PAPER_TABLE1 = {1: 0.50, 2: 0.57, 3: 0.64, 4: 0.69, 5: 0.74, 10: 0.86}

# The triangular prism behind the hexacode state, 1-based vertices.
PRISM_EDGES = ((1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (1, 4), (2, 5), (3, 6))


class CheckFailed(Exception):
    """A benchmark output disagrees with its reference value."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def shannon_bits(p) -> float:
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def log2_factorial(n: int) -> float:
    return math.lgamma(n + 1) / math.log(2.0)


def schmidt_entropy(amp, d: int) -> float:
    """Entropy of the squared singular values of the d x d amplitude matrix."""
    s = np.linalg.svd(np.asarray(amp).reshape(d, d), compute_uv=False)
    return shannon_bits(s**2)


def _cut_matrix(amp, n: int, d: int, subset) -> np.ndarray:
    axes = [x - 1 for x in subset]
    rest = [a for a in range(n) if a not in axes]
    t = np.asarray(amp).reshape((d,) * n).transpose(axes + rest)
    return t.reshape(d ** len(axes), -1)


def subset_entropy(amp, n: int, d: int, subset) -> float:
    """Entanglement entropy of a 1-based party subset, from an SVD."""
    s = np.linalg.svd(_cut_matrix(amp, n, d, subset), compute_uv=False)
    return shannon_bits(s**2)


def max_subset_entropy(amp, n: int, d: int) -> float:
    """Largest subset entropy over all subsets of at most n // 2 parties,
    from the spectra of the cut matrices' Gram matrices in batches."""
    best = 0.0
    for size in range(1, n // 2 + 1):
        subsets = list(itertools.combinations(range(1, n + 1), size))
        for start in range(0, len(subsets), 256):
            mats = np.stack([_cut_matrix(amp, n, d, x)
                             for x in subsets[start:start + 256]])
            lam = np.linalg.eigvalsh(mats @ mats.conj().transpose(0, 2, 1))
            lam = np.clip(lam, 0.0, None)
            logs = np.log2(np.where(lam > 0.0, lam, 1.0))
            best = max(best, float(np.max(-np.sum(lam * logs, axis=1))))
    return best


def gf2_rank(rows) -> int:
    """Rank over GF(2) of rows given as integer bit masks."""
    basis = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(basis)


def max_cut_rank(adj) -> int:
    """Largest subset entropy of a graph state, in bits: the GF(2) rank of
    the adjacency block between a subset and the rest, maximized over
    subsets of at most v // 2 vertices."""
    adj = np.asarray(adj, dtype=np.int64)
    v = adj.shape[0]
    best = 0
    for size in range(1, v // 2 + 1):
        for x in itertools.combinations(range(v), size):
            rest = [a for a in range(v) if a not in x]
            block = adj[np.ix_(rest, list(x))]
            rows = block @ (np.int64(1) << np.arange(size, dtype=np.int64))
            best = max(best, gf2_rank(int(r) for r in rows))
    return best


def outcome_probabilities(amp, n: int, d: int, us) -> np.ndarray:
    """|<b_1 .. b_n|psi>|^2 by one matrix product per party."""
    t = np.asarray(amp, dtype=np.complex128)
    for axis, u in enumerate(us):
        t = t.reshape(d**axis, d, d ** (n - axis - 1))
        t = np.einsum("kj,akb->ajb", np.asarray(u).conj(), t)
    return np.abs(t.reshape(-1)) ** 2


def check_unitary(us, d: int) -> None:
    for i, u in enumerate(us):
        u = np.asarray(u)
        require(u.shape == (d, d), f"basis {i + 1} has shape {u.shape}")
        dev = float(np.max(np.abs(u.conj().T @ u - np.eye(d))))
        require(dev <= UNITARY_TOL, f"basis {i + 1} is not unitary: |u'u - 1| = {dev:.3g}")


def check_upper_witness(amp, n: int, d: int, us, s_upper: float) -> None:
    """The witness basis is unitary and its outcome entropy is s_upper."""
    check_unitary(us, d)
    h = shannon_bits(outcome_probabilities(amp, n, d, us))
    require(abs(h - s_upper) <= WITNESS_TOL,
            f"witness basis gives {h!r}, reported s_upper {s_upper!r}")


def parse_subset_witness(text: str) -> tuple:
    """Party tuple named by a 'subset (1, 2)' witness; () for 'none'."""
    if text == "none":
        return ()
    m = re.fullmatch(r"subset \(([\d, ]+)\)", text)
    require(m is not None, f"unexpected lower-bound witness {text!r}")
    return tuple(int(x) for x in m.group(1).split(",") if x.strip())


def check_lower_witness(amp, n: int, d: int, subset, s_lower: float,
                        max_entropy: float | None = None) -> None:
    """s_lower is the entropy of the named subset and no more than the
    benchmark's own maximum over subsets of at most n // 2 parties."""
    value = subset_entropy(amp, n, d, subset) if subset else 0.0
    require(abs(value - s_lower) <= WITNESS_TOL,
            f"subset {subset} has entropy {value!r}, reported s_lower {s_lower!r}")
    if max_entropy is None:
        max_entropy = max_subset_entropy(amp, n, d)
    require(s_lower <= max_entropy + WITNESS_TOL,
            f"s_lower {s_lower!r} exceeds the largest subset entropy {max_entropy!r}")


def check_schmidt(amp, d: int, s_upper: float) -> float:
    """Two-party claim: s_upper matches the Schmidt entropy, never below it."""
    exact = schmidt_entropy(amp, d)
    require(abs(s_upper - exact) <= SCHMIDT_GAP_TOL,
            f"s_upper {s_upper!r} vs Schmidt entropy {exact!r}")
    require(exact - s_upper <= UNDERCUT_TOL,
            f"s_upper {s_upper!r} undercuts the Schmidt entropy {exact!r}")
    return exact


def check_bracket(s_lower: float, s_upper: float) -> None:
    require(s_lower <= s_upper + WITNESS_TOL,
            f"bracket [{s_lower!r}, {s_upper!r}] is inverted")


def check_exact_target(name: str, s_upper: float, target: float,
                       above_tol: float) -> None:
    """A known value S: s_upper may not undercut it and lies within above_tol."""
    require(s_upper >= target - UNDERCUT_TOL,
            f"{name}: s_upper {s_upper!r} below the exact value {target!r}")
    require(s_upper <= target + above_tol,
            f"{name}: s_upper {s_upper!r} above {target!r} + {above_tol:g}")


def is_k_uniform_ref(p, n: int, k: int, tol: float = DIST_TOL) -> bool:
    """Every k-bit marginal is uniform, from direct marginal sums."""
    t = np.asarray(p, dtype=np.float64).reshape((2,) * n)
    flat = 1.0 / (1 << k)
    for keep in itertools.combinations(range(n), k):
        drop = tuple(a for a in range(n) if a not in keep)
        if np.max(np.abs(t.sum(axis=drop) - flat)) > tol:
            return False
    return True


def adjacency(v: int, edges) -> np.ndarray:
    """0/1 adjacency matrix of 1-based edge pairs."""
    adj = np.zeros((v, v), dtype=np.int64)
    for i, j in edges:
        adj[i - 1, j - 1] = adj[j - 1, i - 1] = 1
    return adj


def min_stabilizer_weight_ref(adj) -> int:
    """Smallest support over all 2^v - 1 nontrivial generator products.

    The product over a generator subset S has X-part S and Z-part the XOR
    of the adjacency rows in S; both parts are built for every S at once.
    """
    adj = np.asarray(adj, dtype=np.int64)
    v = adj.shape[0]
    rows = adj @ (np.int64(1) << np.arange(v, dtype=np.int64))
    zpart = np.zeros(1, dtype=np.int64)
    for r in rows:
        zpart = np.concatenate((zpart, zpart ^ r))
    support = np.arange(1 << v, dtype=np.int64) | zpart
    return int(np.min(np.bitwise_count(support[1:])))


def _parity_signs(n: int, ys) -> np.ndarray:
    x = np.arange(1 << n)[:, None]
    par = np.bitwise_count(x & np.asarray(ys)[None, :]) & 1
    return 1.0 - 2.0 * par


def p53_vertices_ref() -> np.ndarray:
    """Vertices of the 3-uniform 5-bit polytope as rows of probabilities.

    Free coordinates are the parity coefficients q_y of weight 4 and 5;
    p(x) = (1 + sum_y (-1)^(x.y) q_y) / 32 >= 0 gives 32 half-spaces whose
    intersection scipy enumerates from the interior point q = 0.
    """
    from scipy.spatial import HalfspaceIntersection

    ys = [y for y in range(32) if bin(y).count("1") >= 4]
    signs = _parity_signs(5, ys)
    halfspaces = np.hstack((-signs, -np.ones((32, 1))))
    hs = HalfspaceIntersection(halfspaces, np.zeros(len(ys)))
    verts = np.unique(np.round(hs.intersections, 9), axis=0)
    return (1.0 + verts @ signs.T) / 32.0


def check_distribution_vertex(p, n: int, k: int) -> None:
    p = np.asarray(p, dtype=np.float64)
    require(float(p.min()) >= -1e-12, f"negative probability {float(p.min())!r}")
    require(abs(float(p.sum()) - 1.0) <= 1e-9, f"probabilities sum to {float(p.sum())!r}")
    require(is_k_uniform_ref(p, n, k, 1e-9), f"vertex is not {k}-uniform")


def check_vertex_sets(found, reference) -> None:
    """Same vertex set up to order, within 1e-9 per probability."""
    found = np.asarray(found, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    require(found.shape == reference.shape,
            f"{found.shape[0]} vertices found, reference has {reference.shape[0]}")
    dist = np.max(np.abs(found[:, None, :] - reference[None, :, :]), axis=2)
    require(float(np.max(np.min(dist, axis=1))) <= 1e-9
            and float(np.max(np.min(dist, axis=0))) <= 1e-9,
            "vertex sets differ")
