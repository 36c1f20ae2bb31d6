"""Verification suites: every closed-form claim the library reproduces,
as named checks with measured values, targets and tolerances.

Each suite returns {"suite", "checks", "passed", "seconds"}; a check is
{"name", "measured", "target", "tol", "passed"}.  The CLI prints these
one per line and the acceptance tests assert on them, so the two surfaces
cannot drift apart.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from . import entopt, gf2uniform, kpolytope, states
from .entopt import OptConfig
from .hilbert import (
    ProductBasis,
    _reduced_states,
    _rotate_all,
    identity_basis,
    outcome_distribution,
    random_state,
    shannon_entropy,
)
from .indexing import parties_to_axes

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)

TABLE1_TARGETS = {1: 0.50, 2: 0.57, 3: 0.64, 4: 0.69, 5: 0.74, 10: 0.86}


def _close(name: str, measured: float, target: float, tol: float) -> dict:
    return {"name": name, "measured": float(measured), "target": float(target),
            "tol": float(tol), "passed": bool(abs(measured - target) <= tol)}


def _below(name: str, measured: float, limit: float) -> dict:
    return {"name": name, "measured": float(measured), "target": f"<= {limit}",
            "tol": 0.0, "passed": bool(measured <= limit)}


def _flag(name: str, passed: bool) -> dict:
    return {"name": name, "measured": bool(passed), "target": True, "tol": 0.0,
            "passed": bool(passed)}


def _wrap(suite: str, checks: list, t0: float, max_seconds: float | None = None) -> dict:
    """Suite report; with max_seconds, a last "runtime seconds" check gates
    the elapsed time."""
    seconds = time.perf_counter() - t0
    if max_seconds is not None:
        checks.append(_below("runtime seconds", seconds, max_seconds))
    return {"suite": suite, "checks": checks,
            "passed": all(c["passed"] for c in checks), "seconds": seconds}


def bipartite_suite() -> dict:
    """Optimizer vs the exact Schmidt answer on 50 random two-party states."""
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_below = 0.0
    for i in range(50):
        d = (2, 3, 4)[i % 3]
        psi = random_state(2, d, np.random.default_rng([101, i]))
        exact, _ = entopt.bipartite_exact(psi)
        # the marginal-eigenbasis start already sits on the exact optimum
        # for two parties, the subset bound, so the search closes before its
        # first sweep; the random restarts keep a modest budget all the same
        cfg = OptConfig(restarts=20, max_sweeps=30, tol=1e-12, seed=500 + i)
        res = entopt.minimize_entropy(psi, cfg)
        worst_gap = max(worst_gap, abs(res.s_upper - exact))
        worst_below = max(worst_below, exact - res.s_upper)
    checks = [
        _close("max |s_upper - schmidt| over 50 states, d in 2..4",
               worst_gap, 0.0, 1e-4),
        _below("max (schmidt - s_upper), must not undercut the exact value",
               worst_below, 1e-9),
    ]
    return _wrap("bipartite", checks, t0, max_seconds=10.0)


def ghz_suite() -> dict:
    """Three-qubit GHZ: tight bracket at 1 bit; the search closes at the
    subset bound."""
    t0 = time.perf_counter()
    psi = states.ghz(3, 2)
    res = entopt.minimize_entropy(psi, OptConfig(restarts=6, max_sweeps=60,
                                                 tol=1e-12, seed=3))
    checks = [
        _close("single-qubit subset lower bound",
               entopt.subset_lower_bound(psi, (1,)), 1.0, 1e-12),
        _close("optimizer upper bound", res.s_upper, 1.0, 1e-6),
        _below("bracket width s_upper - s_lower", res.s_upper - res.s_lower, 1e-6),
    ]
    return _wrap("ghz", checks, t0, max_seconds=1.0)


def _su_random(d: int, rng: np.random.Generator) -> np.ndarray:
    q = entopt._haar_unitary(d, rng, 1)[0]
    det = np.linalg.det(q)
    return q * np.exp(-1j * np.angle(det) / d)


def det_suite() -> dict:
    """Antisymmetric states: entropy log2(n!), bracketed by the search's
    floor (the antisymmetric one for n >= 3; for n = 2 the subset bound 1
    lies above it, so det(2)'s antisymmetric floor has its own check) and
    the search, which closes on it; overlap 1/n!, singlet invariance."""
    t0 = time.perf_counter()
    checks = []
    for n in (2, 3, 4):
        psi = states.determinant_state(n)
        target = states.log2_factorial(n)
        h_std = entopt.entropy_for_bases(psi, identity_basis(n, n))
        checks.append(_close(f"n={n} standard-basis entropy vs log2({n}!)",
                             h_std, target, 1e-12))
        res = entopt.minimize_entropy(psi, OptConfig(restarts=12, max_sweeps=60,
                                                     tol=1e-12, seed=40 + n))
        checks.append(_below(f"n={n} optimizer s_upper - log2({n}!)",
                             res.s_upper - target, 1e-3))
        checks.append(_close(f"n={n} antisymmetric floor vs log2({n}!)",
                             res.floor, target, 1e-9))
        if n == 2:
            # the check above reads the subset bound here, 1e-12 higher
            checks.append(_close("n=2 antisymmetric_floor(det(2)) vs log2(2!)",
                                 entopt.antisymmetric_floor(psi), target, 1e-9))
        checks.append(_below(f"n={n} bracket width s_upper - floor",
                             res.s_upper - res.floor, 1e-9))
        overlap = entopt.max_product_overlap(psi, OptConfig(restarts=6, max_sweeps=80,
                                                            tol=1e-14, seed=60 + n))
        checks.append(_close(f"n={n} max product overlap vs 1/{n}!",
                             overlap, 1.0 / math.factorial(n), 1e-6))
        dev = 0.0
        for k in range(3):
            v = _su_random(n, np.random.default_rng([7, n, k]))
            moved = _rotate_all(psi.tensor(), np.broadcast_to(v, (1, n, n, n)))
            dev = max(dev, float(np.linalg.norm(moved.reshape(-1) - psi.amp)))
        checks.append(_below(f"n={n} max |V^(x{n}) psi - psi| over 3 special unitaries",
                             dev, 1e-9))
    return _wrap("det", checks, t0, max_seconds=10.0)


def gdet_table1_suite() -> dict:
    """Normalized entropies of the re-encoded determinant family."""
    t0 = time.perf_counter()
    checks = []
    for p, target in TABLE1_TARGETS.items():
        n = p * 2**p
        val = states.log2_factorial(2**p) / n
        checks.append(_close(f"p={p}: round(log2((2^{p})!)/{n}, 2)",
                             round(val, 2), target, 1e-12))
    psi = states.generalized_determinant(2, 2)
    h_std = entopt.entropy_for_bases(psi, identity_basis(psi.n, 2))
    checks.append(_close("d=2 p=2 standard-basis entropy vs log2(24)",
                         h_std, math.log2(24.0), 1e-10))
    return _wrap("gdet-table1", checks, t0)


def best_hexacode_basis() -> ProductBasis:
    """Parties 2-5 standard, parties 1 and 6 in the Hadamard pair."""
    eye = np.eye(2, dtype=np.complex128)
    return ProductBasis(6, 2, (HADAMARD, eye, eye, eye, eye, HADAMARD))


def hexacode_suite() -> dict:
    """The 6-qubit graph state: S = 4 with matching upper and lower bounds."""
    t0 = time.perf_counter()
    g = states.hexacode_graph()
    psi = states.hexacode_state()
    checks = []

    # (a) the known-best basis hits the two-parity-check distribution exactly
    p_best = outcome_distribution(psi, best_hexacode_basis())
    target = gf2uniform.parity_constrained_uniform(6, ((1, 2, 3, 4), (3, 4, 5, 6)))
    checks.append(_below("best-basis distribution vs parity-check target, max |dp|",
                         float(np.max(np.abs(p_best - target.p))), 1e-12))
    checks.append(_close("best-basis entropy", shannon_entropy(p_best), 4.0, 1e-12))

    # (b) every balanced-bipartition representative is maximally mixed
    eye8 = np.eye(8) / 8.0
    reps = [(1,) + rest for rest in itertools.combinations(range(2, 7), 2)]
    via_trace = _reduced_states(psi.tensor(), [parties_to_axes(w, 6) for w in reps])
    via_blocks = np.array([gf2uniform.graph_reduced_density(g, w).mat for w in reps])
    worst = max(float(np.max(np.abs(via_trace - eye8))),
                float(np.max(np.abs(via_blocks - eye8))))
    checks.append(_below("10 bipartition reps: max |rho_w - I/8|, both paths",
                         worst, 1e-12))

    # (c) stabilizer weight
    checks.append(_close("minimal stabilizer weight",
                         gf2uniform.min_stabilizer_weight(g), 4, 0))

    # (d) optimizer outcome distributions are 3-uniform
    cfg = OptConfig(restarts=24, max_sweeps=120, tol=1e-12, seed=7)
    res = entopt.minimize_entropy(psi, cfg)
    dists = [outcome_distribution(psi, res.basis)]
    for k in range(5):
        rng = np.random.default_rng([909, k])
        us = tuple(entopt._haar_unitary(2, rng, 6))
        dists.append(outcome_distribution(psi, ProductBasis(6, 2, us)))
    wt = gf2uniform._hamming_weights(6)
    worst_q = 0.0
    for p in dists:
        q = gf2uniform.fourier(gf2uniform.BitDistribution(6, p))
        worst_q = max(worst_q, float(np.max(np.abs(q[(wt >= 1) & (wt <= 3)]))))
    checks.append(_below("outcome distributions: max low-weight Fourier component",
                         worst_q, 1e-9))

    # (e) bracket [4, 4 + 1e-6]: the floor the search in (d) closed on; no
    # subset bound of 6 qubits exceeds 3, so a floor of 4 is the polytope's
    checks.append(_flag("polytope chain (inf over 3-uniform members = 4)",
                        res.floor == 4.0))
    checks.append(_below("s_upper - 4", res.s_upper - 4.0, 1e-6))
    checks.append(_below("4 - s_upper (upper bound stays above the truth)",
                         4.0 - res.s_upper, 1e-9))

    return _wrap("hexacode", checks, t0, max_seconds=10.0)


def graphs_suite(m: int | None = None) -> dict:
    """Exhaustive maximally-uniform graph searches at m = 1, 2, 3, or at
    one given m.  m = 4 (2^28 graphs, about 20 s) runs only when asked
    for; the search raises CapacityError above it."""
    t0 = time.perf_counter()
    checks = []
    wanted = (1, 2, 3) if m is None else (m,)
    for mm in wanted:
        hits = gf2uniform.search_maximally_uniform(mm, mode="exhaustive")
        if mm == 1:
            ok = len(hits) == 1 and hits[0].edges() == ((1, 2),)
            checks.append(_flag("m=1: exactly the single-edge graph", ok))
        elif mm == 2:
            checks.append(_close("m=2: hits among 64 graphs", len(hits), 0, 0))
        elif mm == 3:
            prism = states.hexacode_graph()
            present = any(np.array_equal(h.adj, prism.adj) for h in hits)
            checks.append(_below("m=3: found-set size lower bound", 1, len(hits)))
            checks.append(_flag("m=3: prism is among the hits", present))
            min_w = min((gf2uniform.min_stabilizer_weight(h) for h in hits), default=0)
            checks.append(_below("m=3: 4 - min stabilizer weight over hits",
                                 4 - min_w, 0))
        else:
            # no 8-qubit state has every 4-qubit block maximally mixed
            # (Rains 1999; Scott, PRA 69, 052330, 2004)
            checks.append(_close("m=4: no hits", len(hits), 0, 0))
    return _wrap("graphs", checks, t0)


def polytope_suite() -> dict:
    """Eleven face vertices by two independent routes; entropy floor 4; the
    28 vertices of the whole of P_5^3 are translates of the face's."""
    t0 = time.perf_counter()
    checks = []
    verts = kpolytope.enumerate_vertices_p53()
    checks.append(_close("closed-form vertex count", len(verts), 11, 0))
    face_ps = [kpolytope.qpoint_to_distribution(v).p for v in verts]

    face = kpolytope.PolytopeSpec(5, 3, zero_faces=(0,))
    generic = kpolytope.enumerate_vertices_generic(face)
    checks.append(_close("double-description vertex count", len(generic), 11, 0))

    worst_match = 1.0
    if len(generic) == len(verts):
        worst_match = 0.0
        for pv in face_ps:
            best = min(float(np.max(np.abs(pv - gD.p))) for gD in generic)
            worst_match = max(worst_match, best)
    checks.append(_below("vertex sets pairwise match, max |dp|", worst_match, 1e-9))

    entropies = sorted(shannon_entropy(p) for p in face_ps)
    dev4 = max(abs(h - 4.0) for h in entropies[:6]) if len(entropies) == 11 else 1.0
    dev3 = (max(abs(h - kpolytope.TYPE3_ENTROPY) for h in entropies[6:])
            if len(entropies) == 11 else 1.0)
    checks.append(_below("six vertices at entropy 4, max deviation", dev4, 1e-9))
    checks.append(_below("five vertices at 17/6 + log2(3), max deviation", dev3, 1e-9))

    # the face's vertices are already at hand: min_entropy_over_polytope
    # would enumerate them a second time
    checks.append(_close("min entropy over the face polytope",
                         min((shannon_entropy(g.p) for g in generic), default=math.inf),
                         4.0, 1e-9))

    # every vertex of the whole polytope relabels outcomes x -> x ^ t of a
    # closed-form face vertex
    full = kpolytope.enumerate_vertices_generic(kpolytope.PolytopeSpec(5, 3))
    checks.append(_close("full P5^3 double-description vertex count", len(full), 28, 0))
    x = np.arange(32)
    translates = {tuple(row) for p in face_ps for row in np.round(p[x ^ x[:, None]], 9)}
    checks.append(_close("full P5^3 vertices that translate a closed-form face vertex",
                         sum(tuple(np.round(g.p, 9)) in translates for g in full),
                         28, 0))
    chain = kpolytope.verify_inf6_chain()
    checks.append(_flag("three-link chain passes", bool(chain["passed"])))

    return _wrap("polytope", checks, t0, max_seconds=60.0)


SUITES = {
    "bipartite": bipartite_suite,
    "ghz": ghz_suite,
    "det": det_suite,
    "gdet-table1": gdet_table1_suite,
    "hexacode": hexacode_suite,
    "graphs": graphs_suite,
    "polytope": polytope_suite,
}


def run_suite(name: str, **kwargs) -> dict:
    if name == "all":
        reports = [SUITES[key]() for key in SUITES]
        return {"suite": "all", "suites": reports,
                "passed": all(r["passed"] for r in reports),
                "seconds": sum(r["seconds"] for r in reports)}
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](**kwargs)
