"""Acceptance gate: one test per top-level claim, at the stated tolerance.

Each test prints a single PASS/FAIL line with the headline measurement so
`pytest -v -s` reads as a checklist; the asserts carry the same conditions.
"""

import itertools

import numpy as np
import pytest

from entmin import verify
from entmin.entopt import OptConfig, minimize_entropy, best_subset_lower_bound
from entmin.gf2uniform import (
    BitDistribution,
    fourier,
    graph_reduced_density,
    inverse_fourier,
)
from entmin.hilbert import partial_trace, random_state, tensor_product
from entmin.states import GraphSpec, determinant_state, ghz, graph_state


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, detail


def failing(r):
    return [c["name"] for c in r["checks"] if not c["passed"]]


def test_c1_bipartite_schmidt_equivalence_50_states():
    r = verify.bipartite_suite()
    gap = r["checks"][0]["measured"]
    report("criterion 1 (50 bipartite states, 20 restarts, <10 s)",
           r["passed"] and r["seconds"] < 10.0,
           f"max gap {gap:.2e} (tol 1e-4), {r['seconds']:.1f}s; "
           f"failing: {failing(r)}")


def test_c2_ghz_bracket():
    r = verify.ghz_suite()
    report("criterion 2 (GHZ bracket [1,1], width <= 1e-6, <1 s)",
           r["passed"] and r["seconds"] < 1.0,
           f"{r['seconds']:.2f}s; failing: {failing(r)}")


def test_c3_determinant_states():
    r = verify.det_suite()
    report("criterion 3 (det n=2,3,4: entropy, certified floor, overlap, "
           "invariance, <10 s)",
           r["passed"] and r["seconds"] < 10.0,
           f"{r['seconds']:.1f}s; failing: {failing(r)}")


def test_c4_generalized_determinant_table():
    r = verify.gdet_table1_suite()
    report("criterion 4 (normalized entropies .50/.57/.64/.69/.74/.86; "
           "8-qubit log2 24)", r["passed"], f"failing: {failing(r)}")


def test_c5_hexacode_bracket_4():
    r = verify.hexacode_suite()
    s_gap = next(c["measured"] for c in r["checks"]
                 if c["name"].startswith("s_upper"))
    report("criterion 5 (hexacode S = 4: distribution, blocks, weight, "
           "3-uniformity, bracket, <10 s)",
           r["passed"] and r["seconds"] < 10.0,
           f"s_upper - 4 = {s_gap:.2e}, {r['seconds']:.1f}s; "
           f"failing: {failing(r)}")


def test_c6_polytope_vertices():
    r = verify.polytope_suite()
    report("criterion 6 (11 vertices both paths, entropies, floor 4, chain, "
           "<1 min)", r["passed"] and r["seconds"] < 60.0,
           f"{r['seconds']:.1f}s; failing: {failing(r)}")


def test_c7_maximally_uniform_graph_searches():
    r = verify.graphs_suite()
    report("criterion 7 (m=1 single edge, m=2 none, m=3 prism, weights >= 4)",
           r["passed"], f"failing: {failing(r)}")


def test_c8a_fourier_roundtrip():
    rng = np.random.default_rng(81)
    worst = 0.0
    for n in range(1, 13):
        p = rng.random(2**n)
        dist = BitDistribution(n, p / p.sum())
        back = inverse_fourier(fourier(dist), n)
        worst = max(worst, float(np.max(np.abs(back.p - dist.p))))
    report("criterion 8a (Fourier roundtrip n <= 12)", worst < 1e-12,
           f"worst {worst:.2e} (tol 1e-12)")


def test_c8b_partial_trace_spectrum_duality():
    rng = np.random.default_rng(82)
    worst = 0.0
    for n, d in ((2, 2), (2, 4), (3, 2), (4, 2), (3, 3)):
        psi = random_state(n, d, rng)
        for r in range(1, n // 2 + 1):
            keep = tuple(range(1, r + 1))
            rest = tuple(range(r + 1, n + 1))
            la = np.sort(np.linalg.eigvalsh(partial_trace(psi, keep).mat))
            lb = np.sort(np.linalg.eigvalsh(partial_trace(psi, rest).mat))
            k = min(la.size, lb.size)
            worst = max(worst, float(np.max(np.abs(la[-k:] - lb[-k:]))))
    report("criterion 8b (reduced-state spectrum duality)", worst < 1e-9,
           f"worst {worst:.2e} (tol 1e-9)")


def test_c8c_additivity():
    singlet = determinant_state(2)
    cfg = OptConfig(restarts=6, max_sweeps=60, tol=1e-12, seed=88)
    worst = 0.0
    for left, s_left in ((singlet, 1.0), (ghz(3, 2), 1.0)):
        prod = tensor_product(left, singlet)
        res = minimize_entropy(prod, cfg)
        worst = max(worst, abs(res.s_upper - (s_left + 1.0)))
    report("criterion 8c (additivity on singlet x singlet, GHZ3 x singlet)",
           worst <= 1e-3, f"worst {worst:.2e} (tol 1e-3)")


def test_c8d_marginal_entropy_below_joint():
    rng = np.random.default_rng(84)
    cfg = OptConfig(restarts=4, max_sweeps=40, tol=1e-10, seed=17)
    worst = -np.inf
    for n, d in ((3, 2), (2, 3), (4, 2)):
        psi = random_state(n, d, rng)
        res = minimize_entropy(psi, cfg)
        bound, _ = best_subset_lower_bound(psi)
        worst = max(worst, bound - res.s_upper)
    report("criterion 8d (subset entropy never exceeds the optimized joint)",
           worst <= 1e-9, f"worst excess {worst:.2e}")


def test_c8e_graph_reduced_density_equals_partial_trace():
    rng = np.random.default_rng(85)
    worst = 0.0
    for _ in range(100):
        v = int(rng.integers(2, 9))
        adj = np.zeros((v, v), dtype=np.uint8)
        for i, j in itertools.combinations(range(v), 2):
            adj[i, j] = adj[j, i] = rng.integers(0, 2)
        g = GraphSpec(v, adj)
        psi = graph_state(g)
        size = int(rng.integers(1, v))
        w = tuple(sorted(rng.choice(np.arange(1, v + 1), size=size,
                                    replace=False).tolist()))
        dev = float(np.max(np.abs(graph_reduced_density(g, w).mat
                                  - partial_trace(psi, w).mat)))
        worst = max(worst, dev)
    report("criterion 8e (block formula vs partial trace, 100 graphs v <= 8)",
           worst < 1e-12, f"worst {worst:.2e}")
