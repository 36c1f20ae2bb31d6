import collections
import itertools
import json

import numpy as np
import pytest

from entmin import hilbert, kpolytope
from entmin.errors import CapacityError, ValidationError
from entmin.gf2uniform import (
    BitDistribution,
    _hamming_weights,
    fourier,
    inverse_fourier,
    is_k_uniform,
    marginal_distribution,
    walsh_transform,
)
from entmin.hilbert import shannon_entropy
from entmin.kpolytope import (
    DEDUP_DECIMALS,
    TYPE3_ENTROPY,
    PolytopeSpec,
    enumerate_vertices_generic,
    enumerate_vertices_p53,
    min_entropy_over_polytope,
    verify_inf6_chain,
)


def reference_vertices(spec):
    """The enumerator as first written: every r-subset of the rows is
    solved, in batches, and each solution is then tested for feasibility,
    rounded and looked up in a set of keys one at a time.  Slow, kept only
    as a cross-check of the double-description enumerator.  Each vertex's
    coefficient vector is built here and inverted by inverse_fourier, so
    the check does not go through kpolytope._distributions."""
    a, b = spec.ineq_a, spec.ineq_b
    dim = a.shape[1]
    if spec.eq_a.size:
        t0 = np.linalg.lstsq(spec.eq_a, spec.eq_b, rcond=None)[0]
        nbasis = kpolytope._null_space(spec.eq_a)
    else:
        t0 = np.zeros(dim)
        nbasis = np.eye(dim)
    r = nbasis.shape[1]
    a_red = a @ nbasis
    b_red = b - a @ t0
    found, seen = [], set()

    def consider(u_vec):
        if np.any(a_red @ u_vec > b_red + 1e-9):
            return
        t = t0 + nbasis @ u_vec
        key = tuple(np.round(t, DEDUP_DECIMALS))
        if key not in seen:
            seen.add(key)
            found.append(t)

    if r == 0:
        consider(np.zeros(0))
    else:
        combos = itertools.combinations(range(a.shape[0]), r)
        while chunk := list(itertools.islice(combos, 20_000)):
            idx = np.array(chunk)
            mats = a_red[idx]
            good = np.flatnonzero(np.abs(np.linalg.det(mats)) > 1e-9)
            if good.size:
                sols = np.linalg.solve(mats[good], b_red[idx[good]][..., None])[..., 0]
                for u_vec in sols:
                    consider(u_vec)
    dists = []
    for t in found:
        q = np.zeros(1 << spec.n)
        q[0] = 1.0
        q[list(spec.free_ys)] = t
        dists.append(inverse_fourier(q, spec.n))
    return dists


def value_set(p, decimals=10):
    return set(np.round(p, decimals).tolist())


def test_face_example_vertices():
    verts = enumerate_vertices_p53()
    # the apex (qi = 0, q = -1): uniform on the odd-weight strings
    p1 = verts[0].p
    assert value_set(p1) == {0.0, 0.0625}
    assert abs(shannon_entropy(p1) - 4.0) < 1e-12

    # qi = -e_1, q = 0
    p2 = verts[1].p
    assert value_set(p2) == {0.0, 0.0625}
    assert abs(shannon_entropy(p2) - 4.0) < 1e-12

    # qi = (1, -1, -1, -1, -1) / 3, q = 0
    p3 = verts[6].p
    assert value_set(p3, 9) == {0.0, round(1 / 12, 9), round(1 / 24, 9)}
    assert abs(shannon_entropy(p3) - TYPE3_ENTROPY) < 1e-12


def face_character_sum(qi):
    """p(x) of the face point with single-omission coefficients qi and
    weight-5 coefficient -1 - sum(qi), one string x at a time:
    (1 + sum_i (-1)^(x . y_i) qi[i] + (-1)^|x| q) / 32, with y_i the
    string omitting party i (party 1 the most significant bit)."""
    q = -1.0 - sum(qi)
    p = np.zeros(32)
    for x in range(32):
        total = 1.0 + (-1) ** bin(x).count("1") * q
        for i, c in enumerate(qi):
            total += (-1) ** bin(x & (31 ^ (16 >> i))).count("1") * c
        p[x] = total / 32.0
    return p


def test_closed_form_vertices():
    verts = enumerate_vertices_p53()
    assert len(verts) == 11
    for v in verts:
        assert isinstance(v, BitDistribution)
        assert abs(float(v.p.sum()) - 1.0) < 1e-12
        assert v.p[0] < 1e-12  # all sit on the p(00000) = 0 face
        assert is_k_uniform(v, 3, tol=1e-11)
    hs = sorted(shannon_entropy(v.p) for v in verts)
    assert max(abs(h - 4.0) for h in hs[:6]) < 1e-9
    assert max(abs(h - TYPE3_ENTROPY) for h in hs[6:]) < 1e-9
    for v, qi in zip(verts, kpolytope._p53_face_coords()):
        assert np.max(np.abs(v.p - face_character_sum(qi))) <= 1e-15


def test_generic_enumeration_matches_closed_form_on_the_face():
    face = PolytopeSpec(5, 3, zero_faces=(0,))
    generic = enumerate_vertices_generic(face)
    closed = enumerate_vertices_p53()
    assert len(generic) == len(closed) == 11
    for c in closed:
        assert min(float(np.max(np.abs(c.p - g.p))) for g in generic) < 1e-9
    assert abs(min_entropy_over_polytope(face) - 4.0) < 1e-9


@pytest.mark.parametrize("spec", [
    PolytopeSpec(2, 1),
    PolytopeSpec(3, 1),
    PolytopeSpec(4, 2),
    PolytopeSpec(2, 2),
    PolytopeSpec(3, 2),
    PolytopeSpec(4, 3),
    PolytopeSpec(5, 3, zero_faces=(0,)),
], ids=["P21", "P31", "P42", "P22", "P32", "P43", "P53-face"])
def test_bulk_enumeration_matches_per_candidate_reference(spec):
    got = enumerate_vertices_generic(spec)
    want = reference_vertices(spec)
    assert len(got) == len(want) > 0
    for g, w in zip(got, want):  # same vertices in the same order
        assert np.max(np.abs(g.p - w.p)) <= 1e-15


def test_dd_budget_fires_before_the_step_allocates(monkeypatch):
    # P_4^2 outgrows 10 rays; P_5^3 peaks at 52 rays but tests 180 ray
    # pairs in one step.  Each must stop before a pair test past the budget.
    adjacent_pairs = kpolytope._adjacent_pairs

    def guarded(zero_plus, zero_minus, zero_all, need):
        assert len(zero_plus) * len(zero_minus) <= kpolytope.MAX_DD_PAIRS
        return adjacent_pairs(zero_plus, zero_minus, zero_all, need)

    monkeypatch.setattr(kpolytope, "_adjacent_pairs", guarded)
    for spec, budget, what in ((PolytopeSpec(4, 2), 10, "rays exceeds"),
                               (PolytopeSpec(5, 3), 100, "ray pairs")):
        monkeypatch.setattr(kpolytope, "MAX_DD_PAIRS", budget)
        with pytest.raises(CapacityError, match=what):
            enumerate_vertices_generic(spec)


def test_p64_vertices_are_4_uniform_and_closed_under_translation():
    # C(64, 7), about 6e8 active sets, put P_6^4 out of reach of a walk over
    # active sets; an independent halfspace intersection also finds 78
    spec = PolytopeSpec(6, 4)
    assert len(spec.free_ys) == 7
    verts = enumerate_vertices_generic(spec)
    assert len(verts) == 78
    keys = set()
    for v in verts:
        assert v.p.min() >= -1e-12
        assert abs(float(v.p.sum()) - 1.0) < 1e-12
        assert is_k_uniform(v, 4, tol=1e-9)
        # a vertex: its zero outcomes are tight rows of full rank
        assert np.linalg.matrix_rank(spec.ineq_a[v.p < 1e-12]) == 7
        keys.add(tuple(np.round(v.p, 9)))
    assert len(keys) == 78
    for p in keys:
        for t in range(64):
            assert tuple(np.array(p)[np.arange(64) ^ t]) in keys


def test_p21_has_exactly_the_two_parity_vertices():
    spec = PolytopeSpec(2, 1)
    verts = enumerate_vertices_generic(spec)
    assert len(verts) == 2
    want = {(0.5, 0.0, 0.0, 0.5), (0.0, 0.5, 0.5, 0.0)}
    got = {tuple(np.round(v.p, 9)) for v in verts}
    assert got == want
    assert all(is_k_uniform(v, 1) for v in verts)
    assert abs(min_entropy_over_polytope(spec) - 1.0) < 1e-12


def test_p22_collapses_to_the_uniform_point():
    spec = PolytopeSpec(2, 2)
    verts = enumerate_vertices_generic(spec)
    assert len(verts) == 1
    assert np.allclose(verts[0].p, 0.25)
    assert abs(min_entropy_over_polytope(spec) - 2.0) < 1e-12


def test_full_p53_vertices_are_translated_face_vertices():
    spec = PolytopeSpec(5, 3)
    verts = enumerate_vertices_generic(spec)
    assert len(verts) == 28
    assert all(is_k_uniform(v, 3, tol=1e-9) for v in verts)
    hist = collections.Counter(round(shannon_entropy(v.p), 9)
                               for v in verts)
    assert hist[4.0] == 12
    assert hist[round(TYPE3_ENTROPY, 9)] == 16
    # fixing p(00000) = 0 loses no extreme points: every vertex of the
    # full polytope is an outcome relabeling x -> x ^ t of a face vertex
    face_keys = set()
    for fv in enumerate_vertices_p53():
        for t in range(32):
            face_keys.add(tuple(np.round(fv.p[np.arange(32) ^ t], 8)))
    for v in verts:
        assert tuple(np.round(v.p, 8)) in face_keys


def test_entropy_is_concave_between_vertices(rng):
    dists = [v.p for v in enumerate_vertices_p53()]
    for _ in range(50):
        i, j = rng.integers(0, len(dists), size=2)
        lam = float(rng.random())
        mix = lam * dists[i] + (1 - lam) * dists[j]
        floor = lam * shannon_entropy(dists[i]) \
            + (1 - lam) * shannon_entropy(dists[j])
        assert shannon_entropy(mix) >= floor - 1e-10


def test_face_spec_validation_and_capacity():
    with pytest.raises(ValidationError):
        PolytopeSpec(5, 3, zero_faces=(99,))
    with pytest.raises(CapacityError):
        PolytopeSpec(5, 2)  # 16 free coefficients
    with pytest.raises(ValidationError):
        PolytopeSpec(1, 1)


def test_free_coefficient_rows_roundtrip():
    spec = PolytopeSpec(4, 3)
    # free coordinate is the single weight-4 coefficient
    (dist,) = kpolytope._distributions(spec, np.array([[1.0]]))
    assert isinstance(dist, BitDistribution)
    assert is_k_uniform(dist, 3)
    assert abs(dist.p[0] - 2 / 16) < 1e-12
    assert np.array_equal(fourier(dist)[[0, 15]], [1.0, 1.0])


@pytest.mark.parametrize("n, k", [(4, 3), (5, 3), (6, 4)])
def test_a_stack_of_free_rows_gives_its_rows_one_at_a_time(n, k, rng):
    spec = PolytopeSpec(n, k)
    # small coefficients keep every p(x) positive
    rows = 0.1 * rng.uniform(-1.0, 1.0, (9, len(spec.free_ys)))
    stack = np.array([d.p for d in kpolytope._distributions(spec, rows)])
    alone = np.array([kpolytope._distributions(spec, row[None])[0].p for row in rows])
    assert np.array_equal(stack.view(np.int64), alone.view(np.int64))


def test_verify_inf6_chain():
    report = verify_inf6_chain()
    assert report["passed"]
    assert report["inf6"] == 4.0
    assert set(report["links"]) == {"a", "b", "c"}
    assert report["links"]["b"]["samples"] == 25
    assert report["links"]["c"]["vertex_count"] == 11


# json.dumps(verify_inf6_chain(), sort_keys=True) of the chain as first
# written, one sample and one vertex at a time; link (b)'s worst gap is
# the largest of its 25 gaps
CHAIN_REPORT = (
    '{"inf6": 4.0, "links": {"a": {"entropy": 4.0, "name": "two-check distribution '
    'lies in P_6^3 with entropy 4", "passed": true}, "b": {"name": "bit-6 marginal '
    'stays 3-uniform and does not gain entropy", "passed": true, "samples": 25, '
    '"worst_entropy_gap": -0.8842555749509531}, "c": {"min_entropy": 4.0, "name": "face vertices of '
    'P_5^3: eleven points, entropy floor 4", "passed": true, "vertex_count": 11}}, '
    '"passed": true}'
)


def test_chain_report_is_pinned():
    assert json.dumps(verify_inf6_chain(), sort_keys=True) == CHAIN_REPORT


def sample_p63(rng):
    """One member of P_6^3 as the chain drew it before batching."""
    raw = rng.random(64)
    raw /= raw.sum()
    q = fourier(BitDistribution(6, raw))
    wt = _hamming_weights(6)
    q[(wt >= 1) & (wt <= 3)] = 0.0
    proj = walsh_transform(q) / 64.0
    m = float(proj.min())
    if m < 0.0:
        u = 1.0 / 64.0
        lam = 0.95 * u / (u - m)
        proj = (1.0 - lam) * u + lam * proj
    p = np.clip(proj, 0.0, None)
    return BitDistribution(6, p / p.sum())


def loop_link_b(members):
    """Link (b) over the members one at a time: (passed, worst gap), the
    gap None when no sample was read."""
    worst = None
    for p in members:
        member = BitDistribution(6, p)
        marg = marginal_distribution(member, (1, 2, 3, 4, 5))
        if not is_k_uniform(marg, 3, 1e-9):
            return False, worst
        gap = shannon_entropy(marg.p) - shannon_entropy(member.p)
        worst = gap if worst is None else max(worst, gap)
        if gap > 1e-12:
            return False, worst
    return True, worst


def test_chain_members_equal_the_one_at_a_time_draws():
    members = kpolytope._p63_members(np.random.default_rng(kpolytope.CHAIN_SEED), 25)
    rng = np.random.default_rng(kpolytope.CHAIN_SEED)
    loop = np.array([sample_p63(rng).p for _ in range(25)])
    assert np.array_equal(members.view(np.int64), loop.view(np.int64))
    assert loop_link_b(members) == (True, -0.8842555749509531)


# the largest gap of samples 0..6, which link (b) reads before sample 7
BROKEN_AT_7_GAP = -0.8909541634706049


def test_a_failing_member_ends_link_b_as_the_loop_does(monkeypatch):
    real = kpolytope._p63_members(np.random.default_rng(kpolytope.CHAIN_SEED), 25)
    # a point mass is a distribution but not 3-uniform, at sample 7;
    # samples 0..6 are read first, and their gaps are all negative
    broken = real.copy()
    broken[7] = np.eye(64)[5]
    monkeypatch.setattr(kpolytope, "_p63_members", lambda rng, count: broken)
    link = verify_inf6_chain()["links"]["b"]
    assert ((link["passed"], link["worst_entropy_gap"]) == loop_link_b(broken)
            == (False, BROKEN_AT_7_GAP))
    # a failure at sample 0 comes before any gap is taken
    broken[0] = np.eye(64)[5]
    link = verify_inf6_chain()["links"]["b"]
    assert (link["passed"], link["worst_entropy_gap"]) == loop_link_b(broken) == (False, None)
    # a member that gains entropy under the marginal cannot be drawn, so
    # raise the entropy of sample 3's marginal by 2 bits and sample 5's by
    # 3 bits instead: the link stops at sample 3, so the worst gap is its
    margs = real.reshape(25, 32, 2).sum(axis=2)

    def entropy_bits(p):
        bump = {3: 2.0, 5: 3.0}
        return hilbert._entropy_bits(p) + sum(
            v for k, v in bump.items() if np.array_equal(p, margs[k]))

    monkeypatch.setattr(kpolytope, "_p63_members", lambda rng, count: real)
    monkeypatch.setattr(kpolytope, "_entropy_bits", entropy_bits)
    link = verify_inf6_chain()["links"]["b"]
    gaps = [entropy_bits(marg) - hilbert._entropy_bits(m) for marg, m in zip(margs[:4], real)]
    assert link["passed"] is False
    assert link["worst_entropy_gap"] == max(gaps) == gaps[3] > 1e-12


def test_chain_link_c_reads_the_closed_form_vertices(monkeypatch):
    read = []

    def entropy_bits(p):
        read.append(np.array(p))
        return hilbert._entropy_bits(p)

    monkeypatch.setattr(kpolytope, "_entropy_bits", entropy_bits)
    assert verify_inf6_chain()["links"]["c"]["min_entropy"] == 4.0
    # link (b) reads its 25 samples and their marginals first
    face = np.array(read[2 * kpolytope.CHAIN_SAMPLES:])
    want = np.array([v.p for v in enumerate_vertices_p53()])
    assert face.shape == want.shape == (11, 32)
    assert np.array_equal(face.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("row, message", [
    # qi = (eps, 0, 0, 0, 0) puts p(x) = -eps / 16 on half the even-weight
    # strings: -1e-11, which only the vertex gate catches
    ((1.6e-10, 0.0, 0.0, 0.0, 0.0), "dips to -"),
    ((np.nan, 0.0, 0.0, 0.0, 0.0), "dips to nan"),
], ids=["dip", "nan"])
def test_closed_form_vertices_reject_nan_and_dips(monkeypatch, row, message):
    monkeypatch.setattr(kpolytope, "_p53_face_coords", lambda: np.array([row]))
    with pytest.raises(ValidationError, match=message):
        enumerate_vertices_p53()
    with pytest.raises(ValidationError, match=message):
        verify_inf6_chain()
