"""Polytopes P_n^k of k-uniform bit distributions in Fourier coordinates.

A distribution is k-uniform iff its parity transform vanishes on weights
1..k, so P_n^k lives in the span of the weight > k coefficients, cut out by
the 2^n half-spaces p(x) >= 0.  The Shannon entropy is concave, hence its
minimum over a polytope sits at a vertex; vertices come from a brute-force
active-set enumeration, plus a closed-form construction for the 5-bit
3-uniform case restricted to the p(00000) = 0 face.

Coordinates for that face: q_i is the weight-4 coefficient omitting party i,
q the weight-5 one.  On the face q = -1 - sum(q_i) and the remaining
constraints reduce to q_i + q_j <= 0 and sum(q_i) >= -1; the face polytope
is the cone {q_i + q_j <= 0} (apex at 0, two families of extreme rays) cut
by the plane sum(q_i) = -1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ValidationError
from .gf2uniform import (
    BitDistribution,
    _hamming_weights,
    _masked_parity,
    fourier,
    inverse_fourier,
    is_k_uniform,
    marginal_distribution,
    parity_constrained_uniform,
    walsh_transform,
)
from .hilbert import shannon_entropy

QPOINT_TOL = 1e-12
DEDUP_DECIMALS = 9
MAX_FREE_DIM = 8
MAX_ACTIVE_SETS = 10_000_000
ACTIVE_SET_CHUNK = 20_000

TYPE3_ENTROPY = 17.0 / 6.0 + math.log2(3.0)


@dataclass(frozen=True, eq=False)
class QPoint53:
    """Free Fourier coordinates of a 3-uniform 5-bit distribution.

    qi[i-1] is the weight-4 coefficient omitting party i; q the weight-5
    coefficient.  The induced p(x) must be nonnegative within 1e-12.
    """

    q: float
    qi: tuple

    def __post_init__(self):
        if len(self.qi) != 5:
            raise ValidationError(f"need 5 single-omission coefficients, got {len(self.qi)}")
        object.__setattr__(self, "qi", tuple(float(v) for v in self.qi))
        object.__setattr__(self, "q", float(self.q))
        p = _qpoint_probabilities(self)
        if np.any(p < -QPOINT_TOL):
            raise ValidationError(f"induced p(x) dips to {float(p.min())!r}")


def _qpoint_probabilities(pt: QPoint53) -> np.ndarray:
    x = np.arange(32)
    wt = _hamming_weights(32, 5)
    bracket = np.full(32, pt.q, dtype=np.float64)
    for i in range(1, 6):
        xi = (x >> (5 - i)) & 1  # party i at bit 5 - i
        bracket += pt.qi[i - 1] * np.where(xi, -1.0, 1.0)
    return (1.0 + np.where(wt % 2, -1.0, 1.0) * bracket) / 32.0


def qpoint_to_distribution(pt: QPoint53) -> BitDistribution:
    """The induced 32-outcome distribution; 3-uniform by construction."""
    return BitDistribution(5, _qpoint_probabilities(pt))


def enumerate_vertices_p53() -> list:
    """The eleven extreme points of the p(00000) = 0 face, by construction.

    The cone {q_i + q_j <= 0} has apex 0 and ten extreme rays: -e_i, and
    e_i - sum of the other four (both keep every pair sum <= 0).  Cutting
    with sum(q_i) = -1 turns each ray into a point; the apex survives as
    the eleventh vertex.  Points are deduplicated within 1e-9.
    """
    rays = []
    for i in range(5):
        e = np.zeros(5)
        e[i] = -1.0
        rays.append(e)
    for i in range(5):
        e = -np.ones(5)
        e[i] = 1.0
        rays.append(e)

    points = [np.zeros(5)]
    for ray in rays:
        total = ray.sum()
        if total < 0:  # the ray meets the plane sum = -1
            points.append(ray / (-total))

    out = []
    seen = set()
    for vec in points:
        key = tuple(np.round(vec, DEDUP_DECIMALS))
        if key in seen:
            continue
        seen.add(key)
        out.append(QPoint53(q=-1.0 - float(vec.sum()), qi=tuple(vec)))
    return out


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
    eq_a: np.ndarray = field(init=False)
    eq_b: np.ndarray = field(init=False)

    def __post_init__(self):
        if not 2 <= self.n <= 12:
            raise ValidationError(f"bit count {self.n} out of range")
        if not 0 <= self.k <= self.n:
            raise ValidationError(f"uniformity order {self.k} out of range")
        size = 1 << self.n
        wt = _hamming_weights(size, self.n)
        free = tuple(int(y) for y in np.flatnonzero(wt > self.k))
        if len(free) > MAX_FREE_DIM:
            raise CapacityError(f"{len(free)} free coefficients exceeds {MAX_FREE_DIM}")
        idx = np.arange(size)
        signs = np.ones((size, len(free)))
        for col, y in enumerate(free):
            signs[:, col] = np.where(_masked_parity(idx, y), -1.0, 1.0)
        faces = tuple(int(x) for x in self.zero_faces)
        if any(not 0 <= x < size for x in faces):
            raise ValidationError(f"zero face out of range: {faces}")
        eq_a = signs[list(faces)].reshape(len(faces), len(free))
        eq_b = -np.ones(len(faces))
        if faces:
            sol = np.linalg.lstsq(eq_a, eq_b, rcond=None)[0]
            if np.max(np.abs(eq_a @ sol - eq_b)) > 1e-9:
                raise ValidationError("face equalities are inconsistent")
        object.__setattr__(self, "zero_faces", faces)
        object.__setattr__(self, "free_ys", free)
        object.__setattr__(self, "ineq_a", -signs)
        object.__setattr__(self, "ineq_b", np.ones(size))
        object.__setattr__(self, "eq_a", eq_a)
        object.__setattr__(self, "eq_b", eq_b)

    def coeffs_to_distribution(self, t: np.ndarray) -> BitDistribution:
        """Free coefficients -> distribution via the inverse parity transform."""
        q = np.zeros(1 << self.n)
        q[0] = 1.0
        for col, y in enumerate(self.free_ys):
            q[y] = t[col]
        return inverse_fourier(q, self.n)


def _null_space(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space, as columns."""
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    rank = int(np.sum(s > 1e-10))
    return vh[rank:].T


def enumerate_vertices_generic(spec: PolytopeSpec) -> list:
    """Brute-force vertex enumeration over active constraint sets.

    Face equalities are eliminated first (min-norm particular solution plus
    an orthonormal null basis).  Then every D-subset of the inequality rows
    is solved, in chunks of ACTIVE_SET_CHUNK: each chunk's nonsingular
    systems are solved in one batch and its solutions tested against the
    whole system in one product, keeping only the feasible ones.  Degenerate
    vertices collapse in one 1e-9 dedup at the end, which keeps the first
    occurrence of each, in active-set order.  Returns distributions.
    """
    a = spec.ineq_a
    b = spec.ineq_b
    dim = a.shape[1]
    if spec.eq_a.size:
        t0 = np.linalg.lstsq(spec.eq_a, spec.eq_b, rcond=None)[0]
        nbasis = _null_space(spec.eq_a)
    else:
        t0 = np.zeros(dim)
        nbasis = np.eye(dim)
    r = nbasis.shape[1]
    rows = a.shape[0]
    if r > 0 and math.comb(rows, r) > MAX_ACTIVE_SETS:
        raise CapacityError(f"C({rows},{r}) active sets exceeds {MAX_ACTIVE_SETS}")

    a_red = a @ nbasis
    b_red = b - a @ t0

    # filtering each chunk as it is solved keeps memory at one chunk, not
    # every solved active set of the run
    kept = []
    if r == 0:
        kept.append(np.zeros((1, 0)))
    else:
        combos = itertools.combinations(range(rows), r)
        while True:
            flat = np.fromiter(
                itertools.chain.from_iterable(itertools.islice(combos, ACTIVE_SET_CHUNK)),
                dtype=np.intp)
            if flat.size == 0:
                break
            idx = flat.reshape(-1, r)
            mats = a_red[idx]                      # (B, r, r)
            good = np.flatnonzero(np.abs(np.linalg.det(mats)) > 1e-9)
            if good.size == 0:
                continue
            # trailing axis keeps the rhs a stack of vectors under numpy 2
            sols = np.linalg.solve(mats[good], b_red[idx[good]][..., None])[..., 0]
            feasible = np.all(sols @ a_red.T <= b_red + 1e-9, axis=1)
            kept.append(sols[feasible])
    t = t0 + np.concatenate(kept) @ nbasis.T
    _, first = np.unique(np.round(t, DEDUP_DECIMALS), axis=0, return_index=True)
    return [spec.coeffs_to_distribution(row) for row in t[np.sort(first)]]


def min_entropy_over_polytope(spec: PolytopeSpec) -> float:
    """Entropy minimum over the polytope: concavity puts it at a vertex."""
    verts = enumerate_vertices_generic(spec)
    if not verts:
        raise ValidationError("polytope has no vertices")
    return min(shannon_entropy(v.p) for v in verts)


def _sample_p63(rng: np.random.Generator) -> BitDistribution:
    """A random member of P_6^3: project a random distribution onto the
    3-uniform span, then mix with uniform just enough to stay nonnegative."""
    raw = rng.random(64)
    raw /= raw.sum()
    q = fourier(BitDistribution(6, raw))
    wt = _hamming_weights(64, 6)
    q[(wt >= 1) & (wt <= 3)] = 0.0
    proj = walsh_transform(q) / 64.0
    m = float(proj.min())
    if m >= 0.0:
        p = proj
    else:
        u = 1.0 / 64.0
        lam = 0.95 * u / (u - m)
        p = (1.0 - lam) * u + lam * proj
    p = np.clip(p, 0.0, None)
    return BitDistribution(6, p / p.sum())


def verify_inf6_chain(samples: int = 25, seed: int = 11) -> dict:
    """Check the three links behind inf entropy = 4 over P_6^3.

    (a) The two-parity-check distribution is a member with entropy 4, so
    the infimum is at most 4.  (b) Dropping bit 6 maps members into P_5^3
    without raising entropy (spot-checked on random members).  (c) The
    face vertices of P_5^3 bottom out at entropy 4.  Together: 4 exactly.
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

    rng = np.random.default_rng(seed)
    link_b = True
    worst_gap = 0.0
    for _ in range(samples):
        member = _sample_p63(rng)
        marg = marginal_distribution(member, (1, 2, 3, 4, 5))
        if not is_k_uniform(marg, 3, 1e-9):
            link_b = False
            break
        gap = shannon_entropy(marg.p) - shannon_entropy(member.p)
        worst_gap = max(worst_gap, gap)
        if gap > 1e-12:
            link_b = False
            break
    report["links"]["b"] = {
        "name": "bit-6 marginal stays 3-uniform and does not gain entropy",
        "samples": samples,
        "worst_entropy_gap": worst_gap,
        "passed": bool(link_b),
    }

    verts = enumerate_vertices_p53()
    entropies = sorted(shannon_entropy(qpoint_to_distribution(v).p) for v in verts)
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
