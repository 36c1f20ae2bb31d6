"""Polytopes P_n^k of k-uniform bit distributions in Fourier coordinates.

A distribution is k-uniform iff its parity transform vanishes on weights
1..k, so P_n^k lives in the span of the weight > k coefficients, cut out by
the 2^n half-spaces p(x) >= 0.  The Shannon entropy is concave, hence its
minimum over a polytope sits at a vertex; vertices come from a
double-description enumeration (Motzkin; Fukuda & Prodon 1996), whose
extreme rays of the homogenized cone, scaled to s = 1, are the vertices
themselves (a face p(x) = 0 enters as its row taken both ways), plus a
closed-form construction for the 5-bit 3-uniform case restricted to the
p(00000) = 0 face.  Both routes turn free coefficients into distributions
the same way: one batched inverse parity transform (_distributions).

Coordinates for that face: q_i is the weight-4 coefficient omitting party i,
q the weight-5 one.  On the face q = -1 - sum(q_i) and the remaining
constraints reduce to q_i + q_j <= 0 and sum(q_i) >= -1; the face polytope
is the cone {q_i + q_j <= 0} (apex at 0, two families of extreme rays) cut
by the plane sum(q_i) = -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ValidationError
from .gf2uniform import (
    BitDistribution,
    _checked_rows,
    _hamming_weights,
    _k_uniform_rows,
    is_k_uniform,
    parity_constrained_uniform,
    walsh_transform,
)
from .hilbert import _entropy_bits, shannon_entropy

# entry below which a vertex's p(x) counts as negative
VERTEX_TOL = 1e-12
MAX_FREE_DIM = 8
# bound on the rays kept and on the (plus, minus) ray pairs tested in one
# double-description step
MAX_DD_PAIRS = 4_000_000
# residual norm below which a row adds no rank; slack below which a ray is
# on a row's hyperplane
DD_TOL = 1e-9
# random P_6^3 members spot-checked by link (b) of the inf6 chain, and their seed
CHAIN_SAMPLES = 25
CHAIN_SEED = 11

TYPE3_ENTROPY = 17.0 / 6.0 + math.log2(3.0)


@dataclass(frozen=True, eq=False)
class PolytopeSpec:
    """P_n^k as a linear system over the free (weight > k) coefficients.

    zero_faces lists outcome strings x pinned to p(x) = 0, restricting to
    a face.  Inequalities are -(sum over free y of (-1)^(x.y) q_y) <= 1,
    one per x; the all-zero point (the uniform distribution) is feasible
    whenever no face equalities are imposed.
    """

    n: int
    k: int
    zero_faces: tuple = ()

    free_ys: tuple = field(init=False)
    ineq_a: np.ndarray = field(init=False)
    ineq_b: np.ndarray = field(init=False)

    def __post_init__(self):
        if not 2 <= self.n <= 12:
            raise ValidationError(f"bit count {self.n} out of range")
        if not 0 <= self.k <= self.n:
            raise ValidationError(f"uniformity order {self.k} out of range")
        size = 1 << self.n
        wt = _hamming_weights(self.n)
        free = tuple(int(y) for y in np.flatnonzero(wt > self.k))
        if len(free) > MAX_FREE_DIM:
            raise CapacityError(f"{len(free)} free coefficients exceeds {MAX_FREE_DIM}")
        idx = np.arange(size)
        signs = np.ones((size, len(free)))
        for col, y in enumerate(free):
            signs[:, col] = np.where(wt[idx & y] & 1, -1.0, 1.0)
        faces = tuple(int(x) for x in self.zero_faces)
        if any(not 0 <= x < size for x in faces):
            raise ValidationError(f"zero face out of range: {faces}")
        if faces:
            # p(x) = 0 reads signs[x] q = -1
            eq_a = signs[list(faces)]
            sol = np.linalg.lstsq(eq_a, -np.ones(len(faces)), rcond=None)[0]
            if np.max(np.abs(eq_a @ sol + 1.0)) > 1e-9:
                raise ValidationError("face equalities are inconsistent")
        object.__setattr__(self, "zero_faces", faces)
        object.__setattr__(self, "free_ys", free)
        object.__setattr__(self, "ineq_a", -signs)
        object.__setattr__(self, "ineq_b", np.ones(size))


def _distributions(spec: PolytopeSpec, rows: np.ndarray) -> list:
    """The distributions of spec whose free coefficients are the rows of
    an (m, len(spec.free_ys)) stack: each row's full coefficient vector is
    1 at string 0, the row at spec.free_ys and 0 elsewhere, and one batched
    walsh_transform, divided by 2^n, inverts them all.  The first row with
    an entry below -VERTEX_TOL, or a NaN, raises."""
    q = np.zeros((len(rows), 1 << spec.n))
    q[:, 0] = 1.0
    q[:, spec.free_ys] = rows
    p = walsh_transform(q) / (1 << spec.n)
    low = p.min(axis=1)
    dips = np.flatnonzero(~(low >= -VERTEX_TOL))
    if dips.size:
        raise ValidationError(f"induced p(x) dips to {float(low[dips[0]])!r}")
    return [BitDistribution(spec.n, row) for row in p]


def _p53_face_coords() -> np.ndarray:
    """The qi of the eleven face vertices as (11, 5) rows, apex first; see
    enumerate_vertices_p53."""
    eye = np.eye(5)
    # np.diag keeps +0.0 off the diagonal, where -eye would put -0.0
    return np.concatenate((np.zeros((1, 5)), np.diag(np.full(5, -1.0)), (2.0 * eye - 1.0) / 3.0))


def enumerate_vertices_p53() -> list:
    """The eleven extreme points of the p(00000) = 0 face, by construction,
    as distributions.

    The cone {q_i + q_j <= 0} has apex 0 and ten extreme rays: -e_i, and
    e_i - sum of the other four (both keep every pair sum <= 0).  Both
    ray sums are negative (-1 and -3), so cutting with sum(q_i) = -1 turns
    every ray into a point: -e_i and (e_i - sum of the others) / 3.  The
    apex comes first, as the eleventh vertex.  The face's free_ys are the
    five single-omission strings, party 1's first, then 11111, so each
    vertex's free coefficients are (qi, -1 - sum(qi)).
    """
    qi = _p53_face_coords()
    return _distributions(PolytopeSpec(5, 3, zero_faces=(0,)),
                          np.column_stack((qi, -1.0 - qi.sum(axis=1))))


def _greedy_basis(mat: np.ndarray) -> np.ndarray:
    """The first basis of mat's row space among its rows, taking each row
    in order when it raises the rank: one Gram-Schmidt step per row, a row
    counting when its residual norm exceeds DD_TOL.  Returns the chosen
    row indices in increasing order."""
    dim = mat.shape[1]
    basis = np.zeros((dim, dim))
    picks = []
    for j, row in enumerate(mat):
        res = row - (basis @ row) @ basis
        norm = np.linalg.norm(res)
        if norm > DD_TOL:
            basis[len(picks)] = res / norm
            picks.append(j)
            if len(picks) == dim:
                break
    return np.array(picks, dtype=np.intp)


def _adjacent_pairs(zero_plus: np.ndarray, zero_minus: np.ndarray,
                    zero_all: np.ndarray, need: int) -> tuple:
    """(plus, minus) index pairs of adjacent extreme rays, by the
    combinatorial test: the common zero set holds at least `need` rows and
    no third ray's zero set contains it.  Zero sets are boolean rows;
    counts come from float32 products, exact far beyond any row count."""
    common = zero_plus.astype(np.float32) @ zero_minus.T.astype(np.float32)
    ip, iq = np.nonzero(common >= need)
    size = common[ip, iq]
    # the containment test builds (pairs, rows) and (pairs, rays) arrays:
    # chunk the pairs to keep those within the budget
    step = max(1, MAX_DD_PAIRS // (zero_all.shape[0] + zero_all.shape[1]))
    zero_all = zero_all.T.astype(np.float32)
    keep = np.zeros(ip.size, dtype=bool)
    for lo in range(0, ip.size, step):
        sl = slice(lo, lo + step)
        common_set = (zero_plus[ip[sl]] & zero_minus[iq[sl]]).astype(np.float32)
        holders = np.sum(common_set @ zero_all == size[sl, None], axis=1)
        keep[sl] = holders == 2  # the pair itself and no third ray
    return ip[keep], iq[keep]


def _extreme_rays(h: np.ndarray) -> np.ndarray:
    """Extreme rays of the pointed cone {x : h x <= 0}, as rows.
    h must have full column rank, which makes the cone pointed.

    Double description (Motzkin; Fukuda & Prodon, "Double description
    method revisited", 1996).  The first dim independent rows of h give a
    simplicial cone whose rays are the columns of -h_S^-1; every other row
    is then added in order.  Rays with zero or negative slack on the new
    row stay, and each adjacent pair of a positive and a negative ray is
    combined into a ray on the new row's hyperplane.  Raises
    CapacityError before a step whose rays or ray pairs exceed
    MAX_DD_PAIRS.
    """
    rows, dim = h.shape
    sel = _greedy_basis(h)
    rays = -np.linalg.inv(h[sel]).T
    rays /= np.max(np.abs(rays), axis=1, keepdims=True)
    zero = np.zeros((dim, rows), dtype=bool)
    zero[:, sel] = True
    zero[np.arange(dim), sel] = False
    for j in np.setdiff1d(np.arange(rows), sel):
        slack = rays @ h[j]
        plus = slack > DD_TOL
        minus = slack < -DD_TOL
        zero[~plus & ~minus, j] = True
        if not plus.any():
            continue
        pairs = int(plus.sum()) * int(minus.sum())
        if pairs > MAX_DD_PAIRS:
            raise CapacityError(f"{pairs} ray pairs in one step exceeds {MAX_DD_PAIRS}")
        ip, iq = _adjacent_pairs(zero[plus], zero[minus], zero, dim - 2)
        ip, iq = np.flatnonzero(plus)[ip], np.flatnonzero(minus)[iq]
        count = int(np.sum(~plus)) + ip.size
        if count > MAX_DD_PAIRS:
            raise CapacityError(f"{count} rays exceeds {MAX_DD_PAIRS}")
        new = slack[ip, None] * rays[iq] - slack[iq, None] * rays[ip]
        new /= np.max(np.abs(new), axis=1, keepdims=True)
        new_zero = zero[ip] & zero[iq]
        new_zero[:, j] = True
        rays = np.concatenate([rays[~plus], new])
        zero = np.concatenate([zero[~plus], new_zero])
    return rays


def enumerate_vertices_generic(spec: PolytopeSpec) -> list:
    """Vertex enumeration by double description.

    The homogenized cone {(q, s) : a q <= b s, s >= 0}, with the row of
    each zero face also taken reversed so that it holds with equality, is
    pointed (the polytope is bounded).  Its extreme rays with s > DD_TOL,
    scaled to s = 1, are the vertices, in the order the double description
    leaves them.  Returns distributions.
    """
    dim = len(spec.free_ys)
    ineqs = np.column_stack((spec.ineq_a, -spec.ineq_b))
    # row 0 is s >= 0, row 1 + x is a[x] q - b[x] s <= 0, then the face rows reversed
    h = np.concatenate([np.zeros((1, dim + 1)), ineqs, -ineqs[list(spec.zero_faces)]])
    h[0, dim] = -1.0
    rays = _extreme_rays(h)
    rays = rays[rays[:, dim] > DD_TOL]
    return _distributions(spec, rays[:, :dim] / rays[:, dim, None])


def min_entropy_over_polytope(spec: PolytopeSpec) -> float:
    """Entropy minimum over the polytope: concavity puts it at a vertex."""
    verts = enumerate_vertices_generic(spec)
    if not verts:
        raise ValidationError("polytope has no vertices")
    return min(shannon_entropy(v.p) for v in verts)


def _p63_members(rng: np.random.Generator, count: int) -> np.ndarray:
    """count random members of P_6^3 as (count, 64) rows, from one draw of
    rng: project each random distribution onto the 3-uniform span, then mix
    it with uniform just enough to stay nonnegative.  Each row is checked
    as a BitDistribution."""
    raw = rng.random((count, 64))
    raw /= raw.sum(axis=1, keepdims=True)
    q = walsh_transform(_checked_rows(raw))
    wt = _hamming_weights(6)
    q[:, (wt >= 1) & (wt <= 3)] = 0.0
    proj = walsh_transform(q) / 64.0
    m = proj.min(axis=1, keepdims=True)
    u = 1.0 / 64.0
    # rows with m >= 0 keep proj; the others get lam < 1
    lam = 0.95 * u / (u - np.minimum(m, 0.0))
    p = np.where(m >= 0.0, proj, (1.0 - lam) * u + lam * proj)
    p = np.clip(p, 0.0, None)
    return _checked_rows(p / p.sum(axis=1, keepdims=True))


def verify_inf6_chain() -> dict:
    """Check the three links behind inf entropy = 4 over P_6^3.

    (a) The two-parity-check distribution is a member with entropy 4, so
    the infimum is at most 4.  (b) Dropping bit 6 maps members into P_5^3
    without raising entropy (spot-checked on CHAIN_SAMPLES random members).
    (c) The face vertices of P_5^3 bottom out at entropy 4.  Together: 4
    exactly.

    The chain takes no input and is recomputed on every call, about 1 ms.
    Links (b) and (c) each run as one array pass: (b) draws, projects,
    marginalizes and tests 3-uniformity on (CHAIN_SAMPLES, 64) and
    (CHAIN_SAMPLES, 32) stacks, (c) reads the eleven face vertices that
    enumerate_vertices_p53 returns, one batched inverse transform.  Only the
    entropies are taken row by row.  Link (b) then reads its samples in
    order and stops at the first whose marginal is not 3-uniform or gains
    more than 1e-12 bits; its
    worst_entropy_gap is the largest gap among the samples read, None if
    sample 0's marginal is not 3-uniform.  Both facts the link samples
    hold for every distribution, so its gaps sit far below 0 (the largest
    is about -0.884 bits): the link checks the code, not the claim.
    """
    report = {"links": {}, "inf6": None, "passed": False}

    best = parity_constrained_uniform(6, ((1, 2, 3, 4), (3, 4, 5, 6)))
    h_best = shannon_entropy(best.p)
    link_a = is_k_uniform(best, 3, 1e-12) and abs(h_best - 4.0) <= 1e-12
    report["links"]["a"] = {
        "name": "two-check distribution lies in P_6^3 with entropy 4",
        "entropy": h_best,
        "passed": bool(link_a),
    }

    members = _p63_members(np.random.default_rng(CHAIN_SEED), CHAIN_SAMPLES)
    margs = _checked_rows(members.reshape(CHAIN_SAMPLES, 32, 2).sum(axis=-1))
    uniform = _k_uniform_rows(margs, 3, 1e-9)
    gaps = []
    for member, marg, ok in zip(members, margs, uniform):
        if not ok:
            break
        gaps.append(_entropy_bits(marg) - _entropy_bits(member))
        if gaps[-1] > 1e-12:
            break
    link_b = len(gaps) == CHAIN_SAMPLES and max(gaps) <= 1e-12
    report["links"]["b"] = {
        "name": "bit-6 marginal stays 3-uniform and does not gain entropy",
        "samples": CHAIN_SAMPLES,
        "worst_entropy_gap": max(gaps, default=None),
        "passed": bool(link_b),
    }

    verts = enumerate_vertices_p53()
    entropies = sorted(_entropy_bits(v.p) for v in verts)
    link_c = len(verts) == 11 and abs(entropies[0] - 4.0) <= 1e-12
    report["links"]["c"] = {
        "name": "face vertices of P_5^3: eleven points, entropy floor 4",
        "vertex_count": len(verts),
        "min_entropy": entropies[0],
        "passed": bool(link_c),
    }

    if link_a and link_b and link_c:
        report["inf6"] = 4.0
        report["passed"] = True
    return report
