"""The benchmark's reference checks on hand-built cases.

    python3 -m pytest perfbench/test_checks.py -q

Each check must accept a correct case with a known value and reject a
perturbed one; none of these cases goes through entmin.
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks as ref  # noqa: E402

H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)
I2 = np.eye(2, dtype=np.complex128)


def graph_amp(v, edges):
    """(-1)^(sum over edges of x_i x_j) / 2^(v/2), party i at bit v - i."""
    x = np.arange(1 << v)
    phase = np.zeros(1 << v, dtype=np.int64)
    for i, j in edges:
        phase ^= ((x >> (v - i)) & 1) & ((x >> (v - j)) & 1)
    return (1.0 - 2.0 * phase) / math.sqrt(1 << v)


PRODUCT = np.kron([1.0, 0.0], [1.0, 1.0]) / math.sqrt(2.0)  # |0>|+>
BELL = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
GHZ3 = np.zeros(8)
GHZ3[[0, 7]] = 1.0 / math.sqrt(2.0)
HEXACODE = graph_amp(6, ref.PRISM_EDGES)
HEXACODE_BASIS = (H, I2, I2, I2, I2, H)

# (amplitudes, parties, best basis, S, a subset with the largest entropy)
CASES = {
    "product": (PRODUCT, 2, (I2, H), 0.0, (1,)),
    "bell": (BELL, 2, (I2, I2), 1.0, (1,)),
    "ghz": (GHZ3, 3, (I2, I2, I2), 1.0, (1,)),
    "hexacode": (HEXACODE, 6, HEXACODE_BASIS, 4.0, (1, 2, 3)),
}
LOWER = {"product": 0.0, "bell": 1.0, "ghz": 1.0, "hexacode": 3.0}


@pytest.mark.parametrize("name", CASES)
def test_upper_witness_accepts_known_value(name):
    amp, n, us, value, _ = CASES[name]
    ref.check_upper_witness(amp, n, 2, us, value)


@pytest.mark.parametrize("name", CASES)
def test_upper_witness_rejects_shifted_s_upper(name):
    amp, n, us, value, _ = CASES[name]
    with pytest.raises(ref.CheckFailed):
        ref.check_upper_witness(amp, n, 2, us, value + 1e-3)


@pytest.mark.parametrize("name", CASES)
def test_upper_witness_rejects_non_unitary_basis(name):
    amp, n, us, value, _ = CASES[name]
    bent = (1.01 * us[0],) + tuple(us[1:])
    with pytest.raises(ref.CheckFailed, match="not unitary"):
        ref.check_upper_witness(amp, n, 2, bent, value)


@pytest.mark.parametrize("name", CASES)
def test_lower_witness_accepts_best_subset(name):
    amp, n, _, _, subset = CASES[name]
    ref.check_lower_witness(amp, n, 2, subset, LOWER[name])
    assert ref.max_subset_entropy(amp, n, 2) == pytest.approx(LOWER[name], abs=1e-12)


def test_lower_witness_rejects_wrong_subset():
    with pytest.raises(ref.CheckFailed):
        ref.check_lower_witness(HEXACODE, 6, 2, (1,), 3.0)


def test_lower_witness_rejects_value_above_every_subset():
    # the named subset is right but a larger s_lower cannot come from any subset
    with pytest.raises(ref.CheckFailed, match="exceeds"):
        ref.check_lower_witness(HEXACODE, 6, 2, (1, 2, 3), 3.0, max_entropy=2.0)


def test_parse_subset_witness():
    assert ref.parse_subset_witness("subset (1, 2, 3)") == (1, 2, 3)
    assert ref.parse_subset_witness("subset (4,)") == (4,)
    assert ref.parse_subset_witness("none") == ()
    with pytest.raises(ref.CheckFailed):
        ref.parse_subset_witness("product-overlap (heuristic), overlap 0.25")


def test_schmidt_accepts_bell_and_product():
    assert ref.check_schmidt(BELL, 2, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert ref.check_schmidt(PRODUCT, 2, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_schmidt_rejects_gap_and_undercut():
    with pytest.raises(ref.CheckFailed):
        ref.check_schmidt(BELL, 2, 1.0 + 1e-3)
    with pytest.raises(ref.CheckFailed, match="undercuts"):
        ref.check_schmidt(BELL, 2, 1.0 - 1e-6)


def test_exact_target():
    ref.check_exact_target("hexacode", 4.0 + 5e-7, 4.0, 1e-6)
    with pytest.raises(ref.CheckFailed):
        ref.check_exact_target("hexacode", 4.0 + 1e-3, 4.0, 1e-6)
    with pytest.raises(ref.CheckFailed):
        ref.check_exact_target("hexacode", 4.0 - 1e-6, 4.0, 1e-6)
    assert ref.log2_factorial(4) == pytest.approx(math.log2(24.0), abs=1e-12)


def test_k_uniform_from_marginal_sums():
    p = ref.outcome_probabilities(HEXACODE, 6, 2, HEXACODE_BASIS)
    assert ref.is_k_uniform_ref(p, 6, 3)
    assert not ref.is_k_uniform_ref(p, 6, 4)
    bell = np.abs(BELL) ** 2
    assert ref.is_k_uniform_ref(bell, 2, 1)
    assert not ref.is_k_uniform_ref(bell, 2, 2)


def test_stabilizer_weight_and_cut_rank():
    assert ref.min_stabilizer_weight_ref(ref.adjacency(6, ref.PRISM_EDGES)) == 4
    assert ref.min_stabilizer_weight_ref(ref.adjacency(2, ((1, 2),))) == 2
    ring5 = ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5))
    assert ref.min_stabilizer_weight_ref(ref.adjacency(5, ring5)) == 3
    assert ref.max_cut_rank(ref.adjacency(6, ref.PRISM_EDGES)) == 3
    assert ref.max_cut_rank(ref.adjacency(3, ())) == 0


def test_p53_reference_vertices():
    verts = ref.p53_vertices_ref()
    assert verts.shape == (28, 32)
    for v in verts:
        ref.check_distribution_vertex(v, 5, 3)
    ref.check_vertex_sets(verts[::-1], verts)
    with pytest.raises(ref.CheckFailed):
        ref.check_vertex_sets(verts[1:], verts)
    moved = verts.copy()
    moved[0] = np.full(32, 1.0 / 32.0)
    with pytest.raises(ref.CheckFailed):
        ref.check_vertex_sets(moved, verts)
    with pytest.raises(ref.CheckFailed):
        ref.check_distribution_vertex(np.abs(BELL) ** 2, 2, 2)
