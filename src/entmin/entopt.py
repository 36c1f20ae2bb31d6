"""Minimization of the measurement-outcome Shannon entropy over product bases.

The objective for fixed bases is the entropy of |<j1..jn|Psi>|^2 over all
joint outcomes.  The search alternates over parties: with every other basis
frozen, the state contracts to a d x (d^(n-1)) matrix M and party i's
entropy is that of |u_i^dag M|^2 row by row, so single-party moves are cheap
to probe.  Moves are two-column plane rotations (the exponentials of the
elementary Hermitian generators; per-column phases drop out of the
objective), scored by value only with a parabolic refinement step.
Restarts run in lockstep, so each probe is one array operation over all of
them.

Upper bounds come from the search; rigorous lower bounds from subset von
Neumann entropies and from certificates that refuse what they cannot
prove: for 6-qubit states whose 3-qubit blocks are all maximally mixed,
the 3-uniform polytope floor, and for antisymmetric states, log2(n!).
minimize_entropy takes the highest of these once, stops once a restart
reaches it, and returns it as OptResult.floor.  The product-overlap bound
is heuristic unless the found overlap is corroborated by an analytic
value, so it is reported in its own field and never raises a rigorous one.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import kpolytope
from .errors import EntminError, ValidationError
from .hilbert import (
    ProductBasis,
    PureState,
    _clamped_spectrum,
    _entropy_bits,
    _reduced_states,
    _rotate_all,
    outcome_distribution,
    partial_trace,
    schmidt_decompose,
    shannon_entropy,
    von_neumann_entropy,
)
from .indexing import MAX_AMPLITUDES
from .states import log2_factorial

AGREE_TOL = 1e-6
# a search closes when its best entropy is within this of its floor
CLOSE_TOL = 1e-9
# stacked amplitudes per batched Gram product and eigvalsh in the subset
# scan; each subset's reshaped amplitude matrix holds d**n of them
SUBSET_STACK_AMPLITUDES = 1 << 16
_SIGNS = np.array([1.0, -1.0])[:, None, None]
# rows of cand_h holding (h_a, h_b) for candidates +step, -step, vertex
_CAND_ROWS = np.array(((0, 2), (1, 3), (4, 5)))
# coordinate-descent passes over one party's rotation planes per sweep
PARTY_PASSES = 2
# probe step of a restart (radians): it starts at STEP_MAX, and after a
# sweep that lowers its entropy it becomes STEP_FACTOR times the largest
# rotation the sweep accepted, clipped to [STEP_FLOOR, STEP_MAX].  Below
# the floor a probe changes the entropy by about step**2, too close to
# rounding for the parabola fit.  STEP_FACTOR 2 or 3 also closes hexacode
# in 5 sweeps but takes random (12,2) into a worse local minimum.
STEP_MAX = 0.6
STEP_FACTOR = 4.0
STEP_FLOOR = 1e-6


@dataclass(frozen=True)
class OptConfig:
    restarts: int = 24
    max_sweeps: int = 200
    tol: float = 1e-10
    seed: int = 7

    def __post_init__(self):
        if self.restarts < 1:
            raise ValidationError(f"restarts = {self.restarts} must be >= 1")
        if not self.tol > 0:  # a NaN tol would never let a start stall
            raise ValidationError(f"tol = {self.tol} must be positive")
        if self.max_sweeps < 1:
            raise ValidationError(f"max_sweeps = {self.max_sweeps} must be >= 1")


@dataclass(frozen=True, eq=False)
class OptResult:
    """Bracket [floor, s_upper] with the basis that attains s_upper.

    ``s_lower`` is the best subset bound and ``lower_bound_witness`` names
    its subset ("subset (1, 2)", or "none" when no subset has positive
    entropy).  ``floor`` is
    the highest rigorous floor: s_lower, or a certificate above it, which
    ``floor_witness`` names.

    ``converged`` is True when the best restart passed its own convergence
    test, or when the search closed: its best entropy came within
    CLOSE_TOL of the floor, so the basis is optimal to that
    tolerance, possibly after zero sweeps when a start already sat on the
    floor.  ``restarts_agreeing`` counts the starts within AGREE_TOL of
    the best among those evaluated: every start of the batches that ran,
    those of the closing batch at the entropies it closed with; a closed
    search skips the batches it had not started.
    """

    s_upper: float
    basis: ProductBasis
    s_lower: float
    lower_bound_witness: str
    floor: float
    floor_witness: str
    converged: bool
    restarts_agreeing: int
    seed: int
    # -log2 of the best product overlap found, when requested.  The search
    # can miss the true maximum overlap, which overstates the bound, so it
    # never enters s_lower.
    s_lower_heuristic: float | None = None

    def __post_init__(self):
        lower = max(self.s_lower, self.floor)
        if lower > self.s_upper + 1e-9:
            raise EntminError(
                f"lower bound {lower} exceeds upper bound {self.s_upper}")
        cap = self.basis.n * math.log2(self.basis.d)
        if not -1e-9 <= self.s_upper <= cap + 1e-9:
            raise EntminError(f"s_upper = {self.s_upper} outside [0, {cap}]")


def _plogp_rows(p: np.ndarray) -> np.ndarray:
    """Entropy in bits along the last axis of a stack of probability rows;
    0.0 - x rather than -x, so that a zero entropy is +0.0."""
    return 0.0 - np.add.reduce(p * np.log2(np.maximum(p, 1e-300)), axis=-1)


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def entropy_for_bases(psi: PureState, b: ProductBasis) -> float:
    """Outcome entropy of measuring psi in the product basis b."""
    if (psi.n, psi.d) != (b.n, b.d):
        raise ValidationError(f"state ({psi.n},{psi.d}) vs basis ({b.n},{b.d})")
    return shannon_entropy(outcome_distribution(psi, b))


def _optimize_party(y: np.ndarray, dq: int, step: np.ndarray):
    """Coordinate descent over plane rotations of one party's basis, for k
    starts at once.

    ``y`` (k, d, dq + d) is updated in place.  Per start, its first dq
    columns are the rotated amplitudes q = w M (rows indexed by the
    party's outcome) and its last d columns are w = u^dag, the party's
    basis as rows.  A rotation of the basis acts on rows of q and of w
    alike, so both are rotated as rows of y.  Returns the row entropies
    (k, d) and, per start, the largest |theta| it accepted (k,), 0 if it
    accepted none.

    A rotation in the (a, b) plane changes only outcome rows a and b, and
    their probabilities have a closed form in p_a, p_b and one cross
    vector, so probes run on real arrays without rebuilding amplitudes:
      p_a(theta) = cos^2 p_a + sin^2 p_b + 2 sin cos * cr
      p_b(theta) = p_a + p_b - p_a(theta)
    with cr = -Im(q_a conj(q_b)) for the phased rotation and +Re for the
    real one.  Each (a, b, kind) probe is one array operation over the
    starts; each start probes at its own step (the parabola's vertex may
    go up to twice that), accepts a move only if it lowers its own
    entropy, and stops after a pass that accepted nothing.
    """
    k, d, _ = y.shape
    q = y[:, :, :dq]
    p = _abs2(q)
    h = _plogp_rows(p)
    c = np.cos(step)
    s = np.sin(step)
    c2, s2, tcs = (c * c)[:, None], (s * s)[:, None], (2.0 * c * s)[:, None]
    half_step = 0.5 * step
    two_step = 2.0 * step
    # candidate angles +step, -step, parabola vertex, and their row entropies
    # [h_a(+), h_a(-), h_b(+), h_b(-), h_a(vertex), h_b(vertex)]
    cand_t = np.stack((step, -step, step))
    cand_h = np.empty((6, k))
    live = np.ones(k, dtype=bool)
    moved = np.zeros(k)
    for _ in range(PARTY_PASSES):
        improved = np.zeros(k, dtype=bool)
        for a, b in itertools.combinations(range(d), 2):
            ab = np.array((a, b))
            for kind in ("sym", "asym"):
                cross = q[:, a] * q[:, b].conj()
                cr = np.negative(cross.imag) if kind == "sym" else cross.real
                pa, pb = p[:, a], p[:, b]
                sum_ab = pa + pb
                f0 = h[:, a] + h[:, b]
                pm = (c2 * pa + s2 * pb) + _SIGNS * (tcs * cr)
                cand_h[:4] = _plogp_rows(np.concatenate((pm, sum_ab - pm)))
                f = cand_h[:2] + cand_h[2:4]
                curv = f[0] - 2.0 * f0 + f[1]
                fit = curv > 1e-15
                theta = half_step * (f[1] - f[0]) / np.where(fit, curv, 1.0)
                theta = np.minimum(np.maximum(theta, -two_step), two_step)
                abs_theta = np.abs(theta)
                fit &= abs_theta > 1e-12
                cf = np.cos(theta)[:, None]
                sf = np.sin(theta)[:, None]
                pa_r = ((cf * cf) * pa + (sf * sf) * pb + (2.0 * cf * sf) * cr)[None]
                cand_h[4:] = _plogp_rows(np.concatenate((pa_r, sum_ab - pa_r)))
                f_r = np.where(fit, cand_h[4] + cand_h[5], np.inf)
                # the least f wins, then the least |theta|, then the first
                sel = (f[1] < f[0]).astype(np.intp)
                f_best = np.minimum(f[0], f[1])
                take_r = (f_r < f_best) | ((f_r == f_best) & (abs_theta < step))
                acc = np.flatnonzero(live & (np.minimum(f_best, f_r) < f0 - 1e-14))
                if acc.size == 0:
                    continue
                sel[take_r] = 2
                sel = sel[acc]
                cand_t[2] = theta
                t_acc = cand_t[sel, acc]
                moved[acc] = np.maximum(moved[acc], np.abs(t_acc))
                t_best = t_acc[:, None, None]
                cb = np.cos(t_best)
                sb = np.sin(t_best)
                # rows (a, b) -> (c a - i s b, c b - i s a) for the phased
                # rotation and (c a + s b, c b - s a) for the real one
                pair = y[acc[:, None], ab]
                swap = pair[:, ::-1]
                if kind == "sym":
                    pair = cb * pair - 1j * sb * swap
                else:
                    pair = cb * pair + (sb * _SIGNS[:, 0]) * swap
                y[acc[:, None], ab] = pair
                p[acc[:, None], ab] = _abs2(pair[:, :, :dq])
                h[acc[:, None], ab] = cand_h[_CAND_ROWS[sel], acc[:, None]]
                improved[acc] = True
        live &= improved
        if not live.any():
            break
    return h, moved


def _haar_from_normals(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from standard normals g (..., 2, d, d), the real and
    imaginary parts of Ginibre matrices: one stacked QR, each column's
    phase fixed by R's diagonal."""
    q, r = np.linalg.qr(g[..., 0, :, :] + 1j * g[..., 1, :, :])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _haar_unitary(d: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """count Haar-random d x d unitaries (count, d, d) from one draw of rng."""
    return _haar_from_normals(rng.standard_normal((count, 2, d, d)))


def _marginal_eigenbases(psi: PureState) -> np.ndarray:
    """Eigenvectors of every one-party reduced state, from one batched eigh."""
    return np.linalg.eigh(_reduced_states(psi.tensor(), [(a,) for a in range(psi.n)]))[1]


def _initial_bases(psi: PureState, restarts: int, seed: int) -> np.ndarray:
    """Starting bases (restarts, n, d, d): identity bases, then the marginal
    eigenbases, then per restart r the Haar draws of rng([seed, 1, r]),
    all of them through one stacked QR."""
    n, d = psi.n, psi.d
    us = np.empty((restarts, n, d, d), dtype=np.complex128)
    us[0] = np.eye(d)
    if restarts > 1:
        us[1] = _marginal_eigenbases(psi)
    if restarts > 2:
        us[2:] = _haar_from_normals(np.stack([
            np.random.default_rng([seed, 1, r]).standard_normal((n, 2, d, d))
            for r in range(2, restarts)]))
    return us


def _batch_size(n: int, d: int, restarts: int) -> int:
    """Starts run together: their stacked tensors stay within MAX_AMPLITUDES."""
    return max(1, min(restarts, MAX_AMPLITUDES // d**n))


def _run_lockstep(t: np.ndarray, us: np.ndarray, cfg: OptConfig,
                  close_at: float = 0.0):
    """Alternating minimization from k starting bases us (k, n, d, d) at once.

    Each sweep rotates the tensor of every unconverged start once from
    psi, then updates the parties in turn.  A party update leaves q = u^dag M
    as the start's fully rotated tensor, so the next party reads its rows
    from it without contracting again.  Each start keeps its own step size,
    stall count and convergence flag, and leaves the batch when it
    converges, so its arithmetic does not depend on the other starts.
    The step starts at STEP_MAX.  After a sweep that lowers a start's
    entropy by at least cfg.tol, its step becomes STEP_FACTOR times the
    largest rotation angle it accepted in that sweep's party updates,
    clipped to [STEP_FLOOR, STEP_MAX], so the parabola is fitted at the
    scale of its recent moves; after a sweep that does not (a stall) the
    step is multiplied by 0.15, and three stalls in a row mean converged.
    close_at is a rigorous entropy floor.  The close test (best entropy
    within CLOSE_TOL of it) runs on the starting entropies and after each
    sweep, and the batch stops once it passes, so a batch whose best start
    already sits on the floor runs zero sweeps.  Returns per-start
    entropies (k,), bases (k, n, d, d), convergence flags, sweeps used,
    and whether the batch closed.
    """
    k, n, d = us.shape[:3]
    ws = us.conj().transpose(0, 1, 3, 2)
    h_cur = _plogp_rows(_abs2(_rotate_all(t, ws).reshape(k, d, -1))).sum(axis=-1)
    step = np.full(k, STEP_MAX)
    stalls = np.zeros(k, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    sweeps = np.zeros(k, dtype=np.int64)
    dq = d ** (n - 1)
    for _ in range(cfg.max_sweeps):
        act = np.flatnonzero(~converged)
        if act.size == 0 or h_cur.min() <= close_at + CLOSE_TOL:
            break
        w = ws[act]
        rot = _rotate_all(t, w)
        step_act = step[act]
        moved = np.zeros(act.size)
        for axis in range(n):
            q = np.moveaxis(rot, 1 + axis, 1).reshape(act.size, d, dq)
            y = np.concatenate((q, w[:, axis]), axis=-1)
            h, party_moved = _optimize_party(y, dq, step_act)
            np.maximum(moved, party_moved, out=moved)
            w[:, axis] = y[:, :, dq:]
            rot = np.moveaxis(y[:, :, :dq].reshape(rot.shape), 1, 1 + axis)
        ws[act] = w
        sweeps[act] += 1
        h_before = h_cur[act]
        h_cur[act] = h.sum(axis=-1)
        # parabolic probes already refine below the step scale, so a
        # couple of shrink-and-retry rounds is enough to call it done
        stall = h_before - h_cur[act] < cfg.tol
        stalls[act] = np.where(stall, stalls[act] + 1, 0)
        converged[act] = stalls[act] >= 3
        # a start that moved probes next at the scale of its largest move
        rescaled = np.clip(STEP_FACTOR * moved, STEP_FLOOR, STEP_MAX)
        step[act] = np.where(stall, step_act * 0.15, rescaled)
    closed = bool(h_cur.min() <= close_at + CLOSE_TOL)
    return h_cur, ws.conj().transpose(0, 1, 3, 2), converged, sweeps, closed


def _canonical_basis(psi_n: int, d: int, us) -> ProductBasis:
    """Fix per-column phases and column order for reproducible witnesses."""
    fixed = []
    for u in us:
        cols = []
        for j in range(d):
            col = u[:, j].copy()
            k = int(np.argmax(np.abs(col)))
            ph = col[k]
            col = col * (ph.conjugate() / abs(ph))
            first = int(np.flatnonzero(np.abs(col) > 1e-8)[0])
            key = (first,) + tuple(
                (round(float(z.real), 8), round(float(z.imag), 8)) for z in col)
            cols.append((key, col))
        cols.sort(key=lambda kc: kc[0])
        fixed.append(np.stack([c for _, c in cols], axis=1))
    return ProductBasis(psi_n, d, tuple(fixed))


def subset_lower_bound(psi: PureState, x) -> float:
    """Von Neumann entropy of the reduced state on a party subset x."""
    return von_neumann_entropy(partial_trace(psi, x))


def best_subset_lower_bound(psi: PureState):
    """Maximize the subset bound over subsets of size <= floor(n/2).

    Complementary subsets share a spectrum, so half sizes suffice, and at
    size n/2 only the subsets holding party 1 are scanned: each one's
    complement comes later in the scan order, so under the 1e-12 rule it
    could not win.  A state with real amplitudes (graph states, det(n),
    the hexacode state) is scanned in real arithmetic.  Each size's
    subsets are stacked in chunks of at most SUBSET_STACK_AMPLITUDES
    amplitudes, each chunk one _reduced_states stack (with DensityMatrix's
    checks) and one eigvalsh, clamped as in von_neumann_entropy.

    Returns (value, witness subset).  The witness is the first maximizer
    in size-then-lexicographic order: a subset replaces the best so far
    only if it beats it by more than 1e-12.  Size floor(n/2), where the
    maximum of a typical state sits, is scanned first; let T be its
    largest entropy.  A smaller size s with s log2 d < T - 1e-9 is never
    scanned, since none of its subsets can come within 1e-9 of T, so none
    can be the witness.  The rest are scanned in ascending order under the
    1e-12 rule, reusing the top size's entropies.  The answer is the full
    scan's unless a run of about a thousand subsets climbs the 1e-9 gap in
    steps of under 1e-12 each.

    A size s stops after the chunk in which the best so far reaches its
    capacity s log2 d less 1e-12: in exact arithmetic no entropy of size s
    exceeds s log2 d, so no later subset of that size could beat the best
    by more than 1e-12.  AME states and many graph states reach their
    capacity at the top size, often in the first chunk.  In floating
    point the answer is the full scan's unless a later subset's computed
    entropy rounds to more than the best plus 1e-12, above its capacity.
    When the top size stops early, T is within 1e-12 of its capacity, so
    every smaller size is skipped and the best so far there started from 0.
    """
    n = psi.n
    log_d = math.log2(psi.d)
    amp = psi.amp.real if not psi.amp.imag.any() else psi.amp
    t = amp.reshape((psi.d,) * n)
    per_chunk = max(1, SUBSET_STACK_AMPLITUDES // psi.dim)
    best = 0.0
    witness = ()

    def take(pairs):
        nonlocal best, witness
        for x, val in pairs:
            if val > best + 1e-12:
                best = val
                witness = tuple(a + 1 for a in x)

    def scan(size):
        """Take one size's (subset, entropy) pairs chunk by chunk until the
        best reaches the size's capacity; returns the pairs computed."""
        if 2 * size == n:
            subsets = ((0,) + rest
                       for rest in itertools.combinations(range(1, n), size - 1))
        else:
            subsets = itertools.combinations(range(n), size)
        cap = size * log_d - 1e-12
        pairs = []
        while best < cap and (chunk := list(itertools.islice(subsets, per_chunk))):
            lam = _clamped_spectrum(np.linalg.eigvalsh(_reduced_states(t, chunk)))
            fresh = list(zip(chunk, map(_entropy_bits, lam)))
            take(fresh)
            pairs += fresh
        return pairs

    top = n // 2
    top_vals = scan(top) if top else []
    cutoff = max((val for _, val in top_vals), default=0.0) - 1e-9
    lower = [size for size in range(1, top) if size * log_d >= cutoff]
    if lower:
        best, witness = 0.0, ()
        for size in lower:
            scan(size)
        take(top_vals)
    return best, witness


def polytope_floor(psi: PureState) -> float | None:
    """Entropy floor 4.0 of every product-basis measurement of psi, from
    the 3-uniform outcome polytope, or None.

    The floor holds for 6-qubit states whose twenty 3-qubit blocks are all
    within 1e-9 of I/8: then every product-basis outcome distribution is
    3-uniform, and the inf6 chain bounds those at 4.  Any other state, or
    a failing chain, gives None; the chain runs only for states that pass
    the block test.
    """
    if (psi.n, psi.d) != (6, 2):
        return None
    rho = _reduced_states(psi.tensor(), list(itertools.combinations(range(6), 3)))
    if not np.max(np.abs(rho - np.eye(8) / 8.0)) <= 1e-9:
        return None
    return kpolytope.verify_inf6_chain()["inf6"]


def antisymmetric_floor(psi: PureState) -> float | None:
    """Entropy floor log2(n!) of every product-basis measurement of an
    antisymmetric psi, or None.

    If psi changes sign under every swap of two parties, then for unit
    vectors phi_i, <phi_1..phi_n|psi> = <A phi|psi> with A the
    antisymmetrizer, and |A phi|^2 = det(Gram(phi_i)) / n! <= 1/n! by
    Hadamard's inequality.  So every outcome has probability at most
    |psi|^2 / n!, a share of at most 1/n! of the total, and the
    normalized distribution that entropy_for_bases measures has
    H >= -log2 max >= log2(n!), whatever |psi|^2 within NORM_TOL.  The
    adjacent swaps generate every permutation, so psi must equal minus
    its image under each of them exactly; the first nonzero defect gives
    None.  With d < n no nonzero state is antisymmetric, and None comes
    without any work.  The value is rounded down by 1e-12.
    """
    n = psi.n
    if psi.d < n:
        return None
    t = psi.tensor()
    neg = -t
    for a in range(n - 1):
        if not np.array_equal(np.swapaxes(t, a, a + 1), neg):
            return None
    # d >= n keeps n <= 7 under the amplitude cap, so log2_factorial sums
    # at most 6 terms below 3 bits, each within an ulp: 1e-12 covers them
    return log2_factorial(n) - 1e-12


def bipartite_exact(psi: PureState):
    """Exact two-party answer: Schmidt entropy and the diagonalizing bases."""
    if psi.n != 2:
        raise ValidationError(f"need exactly 2 parties, got {psi.n}")
    sd = schmidt_decompose(psi)
    value = shannon_entropy(sd.coeffs)
    basis = ProductBasis(2, psi.d, (sd.left_basis, sd.right_basis))
    check = entropy_for_bases(psi, basis)
    if abs(check - value) > 1e-10:
        raise EntminError(f"schmidt bases reproduce {check}, expected {value}")
    return value, basis


def max_product_overlap(psi: PureState, cfg: OptConfig = OptConfig(),
                        extra_seeds=None) -> float:
    """Best found |<Psi|phi_1 .. phi_n>|^2 over unit product vectors.

    Alternating exact updates: with the other factors fixed, the optimal
    phi_i is the normalized partial contraction, so sweeps are monotone.
    Restart 0 starts from the largest-amplitude basis string; extra_seeds
    adds caller-supplied starting product vectors.  The result is an
    empirical maximum: treat -log2 of it as heuristic unless corroborated.
    """
    t = psi.tensor()
    n, d = psi.n, psi.d

    def argmax_seed():
        j = int(np.argmax(np.abs(psi.amp)))
        digits = np.unravel_index(j, t.shape)
        vecs = []
        for i in range(n):
            e = np.zeros(d, dtype=np.complex128)
            e[digits[i]] = 1.0
            vecs.append(e)
        return vecs

    def run(vecs):
        vecs = [v.astype(np.complex128) / np.linalg.norm(v) for v in vecs]
        f_cur = 0.0
        for _ in range(cfg.max_sweeps):
            f_prev = f_cur
            for i in range(n):
                cur = t
                for axis in range(n - 1, -1, -1):
                    if axis != i:
                        cur = np.tensordot(cur, vecs[axis].conj(), axes=([axis], [0]))
                norm = float(np.linalg.norm(cur))
                if norm > 1e-15:
                    vecs[i] = cur / norm
                f_cur = norm**2
            if f_cur - f_prev < cfg.tol:
                break
        return f_cur

    starts = [argmax_seed()]
    for r in range(1, cfg.restarts):
        rng = np.random.default_rng([cfg.seed, 2, r])
        z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        starts.append([z[i] for i in range(n)])
    for seed_vec in extra_seeds or []:
        starts.append(list(seed_vec))
    return max(run(v) for v in starts)


def minimize_entropy(psi: PureState, cfg: OptConfig = OptConfig(),
                     include_overlap_bound: bool = False) -> OptResult:
    """Multi-restart alternating minimization of the outcome entropy.

    Restart 0 starts from identity bases, restart 1 from the marginal
    eigenbases (exact for two parties), the rest from seeded Haar draws.
    The restarts run in lockstep, as many at once as fit in MAX_AMPLITUDES
    stacked amplitudes; each follows its own step size and convergence
    test, so the result is deterministic given cfg.seed.  s_lower is the
    best subset bound, scanned before the search; include_overlap_bound
    adds the product-overlap bound as s_lower_heuristic.

    The floor is the highest of the subset bound, antisymmetric_floor and
    polytope_floor, each evaluated once (the inf6 chain runs only for
    6-qubit states whose 3-qubit blocks pass the I/8 test); a certificate
    replaces the subset bound only when it lies strictly above it.  The
    result returns it as floor and floor_witness.  A batch stops as soon
    as its best entropy is within CLOSE_TOL of the floor, before its first
    sweep if a start already is (det(n) from the identity basis, GHZ, any
    two-party state from its marginal eigenbases), and the batches not
    yet started are skipped.  The rule counts sweeps, not time, so results
    stay bitwise reproducible; a search that closes depends on the
    batching, which MAX_AMPLITUDES fixes.  A closed search reports
    converged = True, and restarts_agreeing counts the evaluated starts of
    the batches that ran, those of the closing batch at the entropies it
    closed with.
    """
    s_lower, subset = best_subset_lower_bound(psi)
    witness = f"subset {subset}" if subset else "none"
    floor, floor_witness = s_lower, witness
    for value, named in (
            (antisymmetric_floor(psi),
             f"antisymmetric state, entropy floor log2({psi.n}!)"),
            (polytope_floor(psi), "3-uniform outcome polytope, entropy floor 4")):
        if value is not None and value > floor:
            floor, floor_witness = value, named

    starts = _initial_bases(psi, cfg.restarts, cfg.seed)
    t = psi.tensor()
    batch = _batch_size(psi.n, psi.d, cfg.restarts)
    runs = []
    for i in range(0, cfg.restarts, batch):
        runs.append(_run_lockstep(t, starts[i:i + batch], cfg, floor))
        if runs[-1][4]:
            break
    h, us, converged = (np.concatenate([run[j] for run in runs]) for j in range(3))
    closed = runs[-1][4]
    best = int(np.argmin(h))
    agreeing = int(np.sum(h - h[best] <= AGREE_TOL))

    basis = _canonical_basis(psi.n, psi.d, us[best])
    s_upper = entropy_for_bases(psi, basis)

    heuristic = None
    if include_overlap_bound:
        p = outcome_distribution(psi, basis)
        j = int(np.argmax(p))
        digits = np.unravel_index(j, (psi.d,) * psi.n)
        seed_vecs = [tuple(basis.u[i][:, digits[i]] for i in range(psi.n))]
        m_star = max_product_overlap(psi, cfg, extra_seeds=seed_vecs)
        heuristic = -math.log2(max(m_star, 1e-300))
    return OptResult(s_upper, basis, s_lower, witness, floor, floor_witness,
                     bool(converged[best]) or closed, agreeing,
                     cfg.seed, heuristic)


def result_to_dict(res: OptResult) -> dict:
    """JSON-ready dict; basis as per-party [re, im] matrices, row-major."""
    basis = [[[[float(z.real), float(z.imag)] for z in row] for row in u]
             for u in res.basis.u]
    return {
        "s_upper": res.s_upper,
        "s_lower": res.s_lower,
        "lower_bound_witness": res.lower_bound_witness,
        "floor": res.floor,
        "floor_witness": res.floor_witness,
        "s_lower_heuristic": res.s_lower_heuristic,
        "basis": basis,
        "converged": res.converged,
        "restarts_agreeing": res.restarts_agreeing,
        "seed": res.seed,
    }


def result_to_json(res: OptResult) -> str:
    return json.dumps(result_to_dict(res), indent=2)
