import itertools
import json
import math

import numpy as np
import pytest

from entmin import entopt, kpolytope
from entmin.entopt import (
    SUBSET_STACK_AMPLITUDES,
    OptConfig,
    OptResult,
    _batch_size,
    _initial_bases,
    _run_lockstep,
    antisymmetric_floor,
    best_subset_lower_bound,
    bipartite_exact,
    entropy_for_bases,
    max_product_overlap,
    minimize_entropy,
    polytope_floor,
    result_to_dict,
    result_to_json,
    subset_lower_bound,
)
from entmin.errors import EntminError, ValidationError
from entmin.gf2uniform import bipartition_blocks, gf2_rank
from entmin.hilbert import (
    EIG_FLOOR,
    ProductBasis,
    PureState,
    identity_basis,
    random_state,
    schmidt_decompose,
    shannon_entropy,
    tensor_product,
)
from entmin.indexing import MAX_AMPLITUDES
from entmin.states import (
    GraphSpec,
    determinant_state,
    ghz,
    graph_state,
    hexacode_state,
    log2_factorial,
)

from conftest import outcome_oracle, subset_bound_oracle


def haar(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def product_state(vecs):
    amp = np.array([1.0 + 0j])
    for v in vecs:
        amp = np.kron(amp, v / np.linalg.norm(v))
    return PureState(len(vecs), len(vecs[0]), amp)


def test_entropy_for_bases_against_oracle(rng):
    psi = random_state(3, 2, rng)
    basis = ProductBasis(3, 2, tuple(haar(2, rng) for _ in range(3)))
    h = entropy_for_bases(psi, basis)
    assert abs(h - shannon_entropy(outcome_oracle(psi, basis))) < 1e-10


def test_optconfig_validation():
    with pytest.raises(ValidationError):
        OptConfig(restarts=0)
    with pytest.raises(ValidationError):
        OptConfig(tol=0.0)
    with pytest.raises(ValidationError):
        OptConfig(max_sweeps=0)


def test_optresult_rejects_crossed_bounds():
    basis = identity_basis(2, 2)
    with pytest.raises(EntminError, match="lower bound 1.0 exceeds upper bound 0.5"):
        OptResult(s_upper=0.5, basis=basis, s_lower=1.0,
                  lower_bound_witness="subset (1,)", floor=1.0,
                  floor_witness="subset (1,)", converged=True,
                  restarts_agreeing=1, seed=0)
    # a certified floor above s_upper is as crossed as a subset bound
    with pytest.raises(EntminError, match="lower bound 1.5 exceeds upper bound 1.25"):
        OptResult(s_upper=1.25, basis=basis, s_lower=1.0,
                  lower_bound_witness="subset (1,)", floor=1.5,
                  floor_witness="a certificate", converged=True,
                  restarts_agreeing=1, seed=0)
    with pytest.raises(EntminError):
        OptResult(s_upper=5.0, basis=basis, s_lower=0.0,
                  lower_bound_witness="none", floor=0.0, floor_witness="none",
                  converged=True, restarts_agreeing=1, seed=0)


def test_bipartite_exact_known_values(rng):
    val, basis = bipartite_exact(ghz(2, 3))
    assert abs(val - math.log2(3)) < 1e-12
    prod = product_state([rng.standard_normal(3) + 1j * rng.standard_normal(3)
                          for _ in range(2)])
    val, _ = bipartite_exact(prod)
    assert val < 1e-10
    with pytest.raises(ValidationError):
        bipartite_exact(ghz(3, 2))


def test_minimizer_drives_product_state_to_zero(rng):
    psi = product_state([rng.standard_normal(2) + 1j * rng.standard_normal(2)
                         for _ in range(3)])
    res = minimize_entropy(psi, OptConfig(restarts=4, max_sweeps=60,
                                          tol=1e-12, seed=9))
    assert res.s_upper < 1e-7
    assert res.s_lower < 1e-9  # factorizable: every reduced state is pure


def test_minimizer_reported_basis_reproduces_value(rng):
    psi = random_state(3, 2, rng)
    res = minimize_entropy(psi, OptConfig(restarts=4, max_sweeps=40,
                                          tol=1e-10, seed=11))
    assert abs(entropy_for_bases(psi, res.basis) - res.s_upper) < 1e-12
    assert res.s_lower <= res.s_upper + 1e-9
    assert 1 <= res.restarts_agreeing <= 4


def test_minimizer_is_deterministic(rng):
    psi = random_state(3, 2, np.random.default_rng(77))
    cfg = OptConfig(restarts=5, max_sweeps=30, tol=1e-10, seed=13)
    a = result_to_dict(minimize_entropy(psi, cfg))
    b = result_to_dict(minimize_entropy(psi, cfg))
    assert a == b


def test_lockstep_result_does_not_depend_on_batch():
    psi = random_state(3, 2, np.random.default_rng(2026))
    cfg = OptConfig(max_sweeps=21)
    starts = _initial_bases(psi, 4, cfg.seed)[[0, 2, 3]]
    h, _, conv, sweeps, _ = _run_lockstep(psi.tensor(), starts, cfg)
    # the starts stop after different sweep counts, one at the sweep limit,
    # so the batch shrinks while the others run on
    assert len(set(sweeps.tolist())) == 3 and conv.any() and not conv.all()
    for i in range(3):
        h1, _, conv1, sweeps1, _ = _run_lockstep(psi.tensor(), starts[i:i + 1], cfg)
        assert abs(h1[0] - h[i]) <= 1e-12
        assert sweeps1[0] == sweeps[i]
        assert conv1[0] == conv[i]


# s_upper at the default OptConfig as reported by the earlier optimizer,
# which ran one restart at a time
SEQUENTIAL_S_UPPER = [
    (hexacode_state, 4.000000000000007),
    (lambda: ghz(3, 2), 1.0000000000000069),
    (lambda: determinant_state(3), 2.584962500721159),
    (lambda: random_state(3, 2, np.random.default_rng(2026)), 0.8836887861163488),
]


@pytest.mark.parametrize("make, before", SEQUENTIAL_S_UPPER)
def test_minimizer_no_worse_than_sequential_restarts(make, before):
    assert minimize_entropy(make(), OptConfig()).s_upper <= before + 1e-9


# s_upper at the default OptConfig before the probe step followed each
# restart's moves (it stayed at 0.6 until a stall), on seeded random states
# rng([n, d, s]); (4,3) and (5,3) take 1.5 to 3 s each and are left out
PANEL_S_UPPER = [
    ((3, 2, 0), 1.6631058132302148),
    ((3, 2, 1), 0.9297690889456053),
    ((3, 2, 2), 1.2514793692904673),
    ((4, 2, 0), 2.6245865542125517),
    ((4, 2, 1), 2.611036357360468),
    ((4, 2, 2), 2.208320311088521),
    ((5, 2, 0), 3.614398634486588),
    ((5, 2, 1), 3.6122254593962078),
    ((5, 2, 2), 3.606389102663652),
    ((3, 3, 0), 2.509594981667241),
    ((3, 3, 1), 2.703981786443751),
    ((3, 3, 2), 2.8422114684052535),
]


@pytest.mark.parametrize("key, before", PANEL_S_UPPER,
                         ids=[f"{n}x{d}-{s}" for (n, d, s), _ in PANEL_S_UPPER])
def test_minimizer_no_worse_than_the_fixed_probe_step(key, before):
    psi = random_state(*key[:2], np.random.default_rng(list(key)))
    assert minimize_entropy(psi, OptConfig()).s_upper <= before + 1e-9


def test_batch_size_keeps_stacked_amplitudes_under_cap():
    # hexacode, GHZ(3,2), det(4), random (2,4), (5,3) and (12,2)
    for n, d in ((6, 2), (3, 2), (4, 4), (2, 4), (5, 3), (12, 2)):
        assert _batch_size(n, d, 24) == 24
    assert _batch_size(3, 2, 5) == 5
    for n, d, want in ((22, 2, 1), (21, 2, 2), (20, 2, 4), (13, 3, 2), (11, 4, 1)):
        got = _batch_size(n, d, 24)
        assert got == want
        assert got * d**n <= MAX_AMPLITUDES


def test_subset_bounds():
    psi = ghz(3, 2)
    assert abs(subset_lower_bound(psi, (1,)) - 1.0) < 1e-12
    with pytest.raises(ValidationError):
        subset_lower_bound(psi, (1, 2, 3))
    val, witness = best_subset_lower_bound(determinant_state(4))
    assert abs(val - math.log2(6)) < 1e-9
    assert witness == (1, 2)


def seeded_state(n, d, seed, real=False):
    rng = np.random.default_rng([n, d, seed])
    z = rng.standard_normal(d**n)
    if not real:
        z = z + 1j * rng.standard_normal(d**n)
    return PureState(n, d, z / np.linalg.norm(z))


SCAN_SHAPES = [(n, 2) for n in range(3, 11)] + [(4, 3), (5, 3), (3, 4), (4, 4)]


def test_subset_scan_matches_per_subset_oracle_bitwise():
    for n, d in SCAN_SHAPES:
        psi = seeded_state(n, d, 1)
        assert best_subset_lower_bound(psi) == subset_bound_oracle(psi), (n, d)
    named = [hexacode_state(), ghz(3, 2), determinant_state(4), determinant_state(5)]
    for psi in named:
        assert best_subset_lower_bound(psi) == subset_bound_oracle(psi)
    assert best_subset_lower_bound(named[0])[1] == (1, 2, 3)


def test_subset_scan_in_real_arithmetic_matches_oracle():
    for n in range(3, 11):
        psi = seeded_state(n, 2, 2, real=True)
        val, witness = best_subset_lower_bound(psi)
        want, want_witness = subset_bound_oracle(psi)
        assert abs(val - want) <= 1e-12
        assert witness == want_witness


def count_eigvalsh(monkeypatch):
    """Wrap np.linalg.eigvalsh; the list gets the number of matrices of
    each call."""
    calls = []
    orig = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        a = np.asarray(a)
        calls.append(1 if a.ndim == 2 else a.shape[0])
        return orig(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def test_subset_scan_spans_chunks(monkeypatch):
    psi = seeded_state(11, 2, 3)
    want = subset_bound_oracle(psi)
    per_chunk = SUBSET_STACK_AMPLITUDES // psi.dim
    calls = count_eigvalsh(monkeypatch)
    assert best_subset_lower_bound(psi) == want
    # only size 5 is scanned, C(11, 5) = 462 subsets in chunks of 32
    assert calls == [per_chunk] * 14 + [462 - 14 * per_chunk]


def bell_pairs_and_zeros():
    """Bell pairs on parties (1, 2) and (3, 4), |00> on parties 5 and 6:
    size-2 entropies reach 2 bits, as many as at size 3."""
    bell = PureState(2, 2, np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))
    zeros = PureState(2, 2, np.array([1.0, 0.0, 0.0, 0.0]))
    return tensor_product(tensor_product(bell, bell), zeros)


def test_subset_scan_skips_complements(monkeypatch):
    calls = count_eigvalsh(monkeypatch)
    # random states: every size below n/2 is capped under the top size's
    # maximum, so only the top size is scanned (half of it at even n)
    for n, d in SCAN_SHAPES:
        calls.clear()
        best_subset_lower_bound(seeded_state(n, d, 4))
        want = math.comb(n, n // 2) // (2 if n % 2 == 0 else 1)
        assert sum(calls) == want, (n, d)
    # GHZ(6): T = 1, so sizes 1 and 2 stay in the scan after size 3;
    # nothing is skipped
    calls.clear()
    assert best_subset_lower_bound(ghz(6, 2)) == (1.0, (1,))
    assert calls == [10, 6, 15]
    # T = 2 = 2 log2(2): size 2 stays and its witness (1, 3) holds against
    # the tie at size 3; size 1 is skipped
    calls.clear()
    psi = bell_pairs_and_zeros()
    val, witness = best_subset_lower_bound(psi)
    assert calls == [10, 15]
    assert witness == (1, 3) == subset_bound_oracle(psi)[1]
    assert abs(val - 2.0) <= 1e-12


def graphs_and_rings():
    for n in range(4, 11):
        yield GraphSpec.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])
        rng = np.random.default_rng([n, 6])
        upper = np.triu(rng.integers(0, 2, size=(n, n)), 1)
        yield GraphSpec(n, (upper + upper.T).astype(np.uint8))


def test_subset_scan_matches_oracle_on_graph_states():
    # integer entropies: the tie-heavy case of the 1e-12 rule and the skip
    for g in graphs_and_rings():
        psi = graph_state(g)
        # real amplitudes take the real-arithmetic path, which may differ
        # from the oracle's complex arithmetic in the last bits
        val, witness = best_subset_lower_bound(psi)
        want, want_witness = subset_bound_oracle(psi)
        assert witness == want_witness, g.edges()
        assert abs(val - want) <= 1e-12
        # a global phase keeps every entropy and sends the state through
        # complex arithmetic, where the scan must equal the oracle bitwise
        phased = PureState(g.v, 2, psi.amp * np.exp(1j * math.pi / 3))
        assert best_subset_lower_bound(phased) == subset_bound_oracle(phased), g.edges()


def test_subset_scan_rejects_eigenvalues_below_floor(monkeypatch):
    orig = np.linalg.eigvalsh

    def below_floor(a, *args, **kwargs):
        lam = orig(a, *args, **kwargs)
        lam[..., 0] = 2 * EIG_FLOOR
        return lam

    monkeypatch.setattr(np.linalg, "eigvalsh", below_floor)
    for psi in (seeded_state(4, 2, 5), ghz(3, 2)):
        with pytest.raises(ValidationError):
            best_subset_lower_bound(psi)


def ame_4_3():
    """|i, j, i+j, i+2j mod 3> / 3: every two-party block is maximally
    mixed, so size 2 reaches its capacity 2 log2 3 at its first subset."""
    amp = np.zeros(81)
    for i, j in itertools.product(range(3), repeat=2):
        amp[27 * i + 9 * j + 3 * ((i + j) % 3) + (i + 2 * j) % 3] = 1.0 / 3.0
    return PureState(4, 3, amp)


def test_subset_scan_stops_a_size_at_its_capacity(monkeypatch):
    psi = ame_4_3()
    want = subset_bound_oracle(psi)
    # one subset per chunk: the scan stops after the first of the three
    # size-2 subsets that hold party 1, and size 1 cannot win
    monkeypatch.setattr(entopt, "SUBSET_STACK_AMPLITUDES", psi.dim)
    calls = count_eigvalsh(monkeypatch)
    val, witness = best_subset_lower_bound(psi)
    assert calls == [1]
    assert witness == (1, 2) == want[1]
    assert abs(val - 2.0 * math.log2(3.0)) <= 1e-12
    assert abs(val - want[0]) <= 1e-12


def certify_graph(seed):
    """The 12-vertex random graph of the certify benchmark, drawn as it
    draws it: after a 12-qubit random state from the same generator."""
    rng = np.random.default_rng([seed, 4])
    rng.standard_normal(1 << 12)
    rng.standard_normal(1 << 12)
    upper = np.triu(rng.integers(0, 2, size=(12, 12)), 1)
    return GraphSpec(12, (upper + upper.T).astype(np.uint8))


def balanced_cut_rank(g):
    """Largest GF(2) rank of A_bw over the balanced cuts with vertex 1 white."""
    return max(gf2_rank(bipartition_blocks(g, (1,) + rest)[1])
               for rest in itertools.combinations(range(2, g.v + 1), g.v // 2 - 1))


def test_graph_state_scan_ends_with_its_first_chunk(monkeypatch):
    g = certify_graph(1)
    calls = count_eigvalsh(monkeypatch)
    val, witness = best_subset_lower_bound(graph_state(g))
    # 16 subsets per chunk at 12 qubits; the first chunk reaches 6 bits
    assert calls == [SUBSET_STACK_AMPLITUDES >> 12] == [16]
    assert val == balanced_cut_rank(g) == 6
    assert witness == (1, 2, 3, 4, 5, 6)


def test_sixteen_qubit_graph_state_reaches_eight_bits_in_a_few_subsets(monkeypatch):
    rng = np.random.default_rng(16)
    upper = np.triu(rng.integers(0, 2, size=(16, 16)), 1)
    psi = graph_state(GraphSpec(16, (upper + upper.T).astype(np.uint8)))
    calls = count_eigvalsh(monkeypatch)
    val, witness = best_subset_lower_bound(psi)
    # one subset per chunk at 16 qubits, against C(15, 7) = 6435 of size 8
    assert abs(val - 8.0) <= 1e-12
    assert len(witness) == 8
    assert calls == [1] * len(calls) and len(calls) <= 8


def fail_the_chain(monkeypatch):
    monkeypatch.setattr(kpolytope, "verify_inf6_chain",
                        lambda: {"links": {}, "inf6": None, "passed": False})


def test_polytope_floor_on_hexacode():
    assert polytope_floor(hexacode_state()) == 4.0


def test_polytope_floor_rejects_other_shapes():
    # like antisymmetric_floor, it refuses with None and raises nothing
    assert polytope_floor(seeded_state(3, 2, 1)) is None


def test_polytope_floor_is_none_for_an_unmixed_block(monkeypatch):
    # GHZ(6,2) has the right shape, but its 3-qubit blocks are not I/8,
    # so the chain is not run
    def no_chain():
        raise AssertionError("the inf6 chain ran")

    monkeypatch.setattr(kpolytope, "verify_inf6_chain", no_chain)
    assert polytope_floor(ghz(6, 2)) is None


def test_polytope_floor_is_none_when_the_chain_fails(monkeypatch):
    fail_the_chain(monkeypatch)
    assert polytope_floor(hexacode_state()) is None


def test_max_product_overlap_bipartite_oracle(rng):
    # for two parties the best product overlap is the top Schmidt weight
    for d in (2, 3):
        psi = random_state(2, d, rng)
        target = float(schmidt_decompose(psi).coeffs[0])
        got = max_product_overlap(psi, OptConfig(restarts=6, max_sweeps=100,
                                                 tol=1e-14, seed=21))
        assert abs(got - target) < 1e-9


def test_max_product_overlap_ghz():
    got = max_product_overlap(ghz(3, 2), OptConfig(restarts=4, seed=2))
    assert abs(got - 0.5) < 1e-9


def test_overlap_bound_goes_to_the_heuristic_field():
    psi = determinant_state(3)
    cfg = OptConfig(restarts=8, max_sweeps=80, tol=1e-12, seed=43)
    res = minimize_entropy(psi, cfg, include_overlap_bound=True)
    # -log2(1/6) beats the log2(3) subset bound and meets s_upper, but only
    # the subset bound is rigorous: s_lower and its witness stay the subset's
    assert res.lower_bound_witness.startswith("subset")
    assert abs(res.s_lower - math.log2(3)) < 1e-9
    assert abs(res.s_lower_heuristic - math.log2(6)) < 1e-6
    assert res.s_lower_heuristic <= res.s_upper + 1e-9
    plain = minimize_entropy(psi, cfg)
    assert plain.s_lower_heuristic is None
    assert (plain.s_lower, plain.lower_bound_witness) == (res.s_lower,
                                                          res.lower_bound_witness)


def test_additivity_of_tensor_products():
    singlet = determinant_state(2)
    two = tensor_product(singlet, singlet)
    res = minimize_entropy(two, OptConfig(restarts=6, max_sweeps=60,
                                          tol=1e-12, seed=31))
    assert abs(res.s_upper - 2.0) <= 1e-3
    mixed = tensor_product(ghz(3, 2), singlet)
    res = minimize_entropy(mixed, OptConfig(restarts=6, max_sweeps=60,
                                            tol=1e-12, seed=32))
    assert abs(res.s_upper - 2.0) <= 1e-3


def test_result_dict_roundtrip(rng):
    psi = random_state(2, 3, rng)
    res = minimize_entropy(psi, OptConfig(restarts=3, max_sweeps=40,
                                          tol=1e-10, seed=5))
    d = json.loads(result_to_json(res))
    assert list(d) == ["s_upper", "s_lower", "lower_bound_witness", "floor",
                       "floor_witness", "s_lower_heuristic", "basis",
                       "converged", "restarts_agreeing", "seed"]
    assert d["s_lower_heuristic"] is None
    # two parties: the floor is the subset bound, with its witness
    assert (d["floor"], d["floor_witness"]) == (d["s_lower"], d["lower_bound_witness"])
    rebuilt = ProductBasis(2, 3, tuple(
        np.array([[complex(re, im) for re, im in row] for row in u])
        for u in d["basis"]))
    assert abs(entropy_for_bases(psi, rebuilt) - d["s_upper"]) < 1e-12


def test_antisymmetric_floor_on_determinant_states():
    for n in range(2, 8):
        floor = antisymmetric_floor(determinant_state(n))
        target = log2_factorial(n)
        assert target - 1e-11 <= floor <= target, n


@pytest.mark.parametrize("norm2", [1 - 0.9e-12, 1 + 0.9e-12])
def test_antisymmetric_floor_holds_off_unit_norm(norm2):
    # PureState accepts |psi|^2 within 1e-12 of 1; the floor must stay
    # under the entropy the standard basis reaches either way
    amp = determinant_state(7).amp * math.sqrt(norm2)
    psi = PureState(7, 7, amp)
    assert antisymmetric_floor(psi) <= entropy_for_bases(psi, identity_basis(7, 7))


def test_antisymmetric_floor_refuses_what_it_cannot_prove(monkeypatch):
    # d < n: no nonzero state is antisymmetric, and no amplitude is read
    def no_swaps(*args, **kwargs):
        raise AssertionError("the antisymmetry test ran with d < n")

    psi = ghz(3, 2)
    monkeypatch.setattr(np, "swapaxes", no_swaps)
    assert antisymmetric_floor(psi) is None
    monkeypatch.undo()

    amp = determinant_state(3).amp.copy()
    amp[np.flatnonzero(amp)[0]] += 1e-12
    assert antisymmetric_floor(PureState(3, 3, amp)) is None
    assert antisymmetric_floor(ghz(3, 3)) is None  # symmetric, d >= n
    assert antisymmetric_floor(random_state(2, 4, np.random.default_rng(3))) is None


def record_lockstep(monkeypatch):
    """Wrap entopt._run_lockstep; the list gets each batch's sweep counts."""
    sweeps = []
    orig = entopt._run_lockstep

    def recording(*args, **kwargs):
        out = orig(*args, **kwargs)
        sweeps.append(out[3].copy())
        return out

    monkeypatch.setattr(entopt, "_run_lockstep", recording)
    return sweeps


def test_search_closes_on_the_antisymmetric_floor(monkeypatch):
    psi = determinant_state(4)
    sweeps = record_lockstep(monkeypatch)
    # minimize_entropy finds the floor itself; the caller passes nothing
    res = minimize_entropy(psi, OptConfig())
    assert len(sweeps) == 1 and sweeps[0].max() <= 2
    assert abs(res.s_upper - math.log2(24)) <= 1e-9
    assert res.converged
    # s_lower stays the subset bound, with its witness; the floor it
    # closed on is returned apart
    assert abs(res.s_lower - math.log2(6)) <= 1e-12
    assert res.lower_bound_witness == "subset (1, 2)"
    assert res.floor == log2_factorial(4) - 1e-12
    assert res.floor_witness == "antisymmetric state, entropy floor log2(4!)"


def test_two_party_search_closes_at_the_schmidt_entropy(monkeypatch):
    psi = random_state(2, 4, np.random.default_rng(2024))
    exact, _ = bipartite_exact(psi)
    sweeps = record_lockstep(monkeypatch)
    res = minimize_entropy(psi, OptConfig())
    assert abs(res.s_upper - exact) <= 1e-9
    # restart 1, the marginal eigenbases, starts on the Schmidt entropy
    assert sweeps[0].max() == 0
    assert res.converged


def test_closing_in_the_first_batch_skips_the_rest(monkeypatch):
    psi = determinant_state(3)
    monkeypatch.setattr(entopt, "MAX_AMPLITUDES", 4 * psi.dim)
    cfg = OptConfig(restarts=12, max_sweeps=60, tol=1e-12, seed=43)
    assert entopt._batch_size(psi.n, psi.d, cfg.restarts) == 4
    sweeps = record_lockstep(monkeypatch)
    res = minimize_entropy(psi, cfg)
    assert [s.size for s in sweeps] == [4]
    assert res.converged and 1 <= res.restarts_agreeing <= 4
    assert abs(res.s_upper - log2_factorial(3)) <= 1e-9
    again = minimize_entropy(psi, cfg)
    assert result_to_dict(again) == result_to_dict(res)
    assert all(np.array_equal(a, b) for a, b in zip(again.basis.u, res.basis.u))
    # a random state starts above its subset bound and stays there, so
    # every batch runs, each for at least one sweep
    sweeps.clear()
    minimize_entropy(random_state(3, 3, np.random.default_rng(5)), cfg)
    assert [s.size for s in sweeps] == [4, 4, 4]
    assert min(s.max() for s in sweeps) >= 1


@pytest.mark.parametrize("psi, floor", [
    (determinant_state(3), math.log2(6)),
    (ghz(3, 2), 1.0),
    (random_state(2, 4, np.random.default_rng(7)), None),
], ids=["det3", "ghz32", "random24"])
def test_search_closes_before_its_first_sweep(monkeypatch, psi, floor):
    # the identity basis sits on log2 3! and on GHZ's subset bound 1, the
    # marginal eigenbases on a two-party state's Schmidt entropy
    if floor is None:
        floor = bipartite_exact(psi)[0]
    sweeps = record_lockstep(monkeypatch)
    res = minimize_entropy(psi, OptConfig())
    assert len(sweeps) == 1 and sweeps[0].max() == 0
    assert res.converged and abs(res.s_upper - floor) <= 1e-9


def test_search_closes_on_the_polytope_floor(monkeypatch):
    # minimize_entropy finds hexacode's polytope floor 4 itself
    psi = hexacode_state()
    cfg = OptConfig(restarts=4, max_sweeps=60, tol=1e-12, seed=7)
    sweeps = record_lockstep(monkeypatch)
    closed = minimize_entropy(psi, cfg)
    fail_the_chain(monkeypatch)
    open_run = minimize_entropy(psi, cfg)
    assert sweeps[0].max() < sweeps[1].max()
    assert closed.converged and abs(closed.s_upper - 4.0) <= 1e-9
    assert open_run.s_upper >= 4.0 - 1e-9
    assert closed.s_lower == open_run.s_lower == 3.0
    assert (closed.floor, closed.floor_witness) == (
        4.0, "3-uniform outcome polytope, entropy floor 4")
    assert (open_run.floor, open_run.floor_witness) == (3.0, "subset (1, 2, 3)")


@pytest.mark.parametrize("cfg", [
    OptConfig(),
    OptConfig(restarts=24, max_sweeps=120, tol=1e-12, seed=7),
], ids=["cli-defaults", "hexacode-suite"])
def test_hexacode_closes_within_six_sweeps(monkeypatch, cfg):
    # each restart probes at the scale of its last moves, so the gap to
    # the floor 4 shrinks faster than the 4.8x per sweep of a fixed step
    sweeps = record_lockstep(monkeypatch)
    res = minimize_entropy(hexacode_state(), cfg)
    assert len(sweeps) == 1 and sweeps[0].max() <= 6
    assert res.converged and abs(res.s_upper - 4.0) <= 1e-9


def test_search_without_the_chain_has_no_polytope_floor(monkeypatch):
    # with the chain failing there is no polytope floor: hexacode at the
    # CLI defaults closes only on its subset bound 3, which it never
    # reaches, so the search runs to its own convergence test
    fail_the_chain(monkeypatch)
    res = minimize_entropy(hexacode_state(), OptConfig())
    assert res.s_upper == 4.000000000000002
    assert (res.s_lower, res.lower_bound_witness) == (3.0, "subset (1, 2, 3)")
    assert (res.floor, res.floor_witness) == (3.0, "subset (1, 2, 3)")
    assert res.converged and res.restarts_agreeing == 18


def test_chain_runs_only_for_three_uniform_states(monkeypatch):
    def no_chain():
        raise AssertionError("the inf6 chain ran")

    monkeypatch.setattr(kpolytope, "verify_inf6_chain", no_chain)
    cfg = OptConfig(restarts=3, max_sweeps=20, seed=7)
    for psi in (ghz(6, 2), random_state(6, 2, np.random.default_rng(6))):
        assert minimize_entropy(psi, cfg).s_upper > 0.0


def test_zero_entropies_are_positive_zero():
    assert math.copysign(1.0, entopt._plogp_rows(np.array([[1.0, 0.0]]))[0]) == 1.0
    zeros = PureState(2, 2, np.array([1.0, 0.0, 0.0, 0.0]))
    assert math.copysign(1.0, entropy_for_bases(zeros, identity_basis(2, 2))) == 1.0
    res = minimize_entropy(zeros, OptConfig(restarts=2))
    assert math.copysign(1.0, res.s_upper) == 1.0
    # nonzero rows are unchanged: 0.0 - x is -x bitwise
    p = np.array([[0.5, 0.5], [0.25, 0.75]])
    assert np.array_equal(entopt._plogp_rows(p), -np.add.reduce(p * np.log2(p), axis=-1))


def test_config_rejects_a_nan_tol():
    with pytest.raises(ValidationError, match="tol = nan"):
        OptConfig(tol=float("nan"))
