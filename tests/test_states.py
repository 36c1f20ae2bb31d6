import itertools
import math

import numpy as np
import pytest

from entmin.errors import CapacityError, ValidationError
from entmin.states import (
    GraphSpec,
    _edge_signs,
    determinant_state,
    generalized_determinant,
    generalized_determinant_support,
    ghz,
    graph_state,
    hexacode_graph,
    hexacode_state,
    load_graph,
    log2_factorial,
    save_graph,
)

from entmin import states

from conftest import NoNumpy, edge_sign_oracle


def test_ghz_amplitudes():
    psi = ghz(3, 2)
    expect = np.zeros(8)
    expect[0] = expect[7] = 1 / math.sqrt(2)
    assert np.allclose(psi.amp, expect)
    psi3 = ghz(2, 3)
    assert psi3.nonzero_count() == 3
    # diagonal flat indices 0, 4, 8
    assert abs(psi3.amp[4] - 1 / math.sqrt(3)) < 1e-15


def test_ghz_validates_arguments():
    with pytest.raises(ValidationError):
        ghz(1, 2)
    with pytest.raises(ValidationError):
        ghz(2, 1)


def test_log2_factorial_matches_math():
    for m in (1, 2, 5, 20, 100):
        assert abs(log2_factorial(m) - math.log2(math.factorial(m))) < 1e-9


def test_determinant_state_antisymmetry():
    psi = determinant_state(3)
    t = psi.tensor()
    assert np.allclose(np.swapaxes(t, 0, 1), -t)
    assert np.allclose(np.swapaxes(t, 1, 2), -t)
    assert psi.nonzero_count() == 6
    assert abs(abs(psi.amp[np.abs(psi.amp) > 0][0]) - 1 / math.sqrt(6)) < 1e-15


def test_determinant_state_sign_convention():
    # identity permutation carries +, a single transposition carries -
    psi = determinant_state(2)
    assert psi.amp[int("01", 2)].real > 0
    assert psi.amp[int("10", 2)].real < 0


def test_determinant_state_capacity():
    with pytest.raises(CapacityError):
        determinant_state(1)
    with pytest.raises(CapacityError):
        determinant_state(8)


def test_generalized_determinant_p1_is_determinant():
    for d in (2, 3, 4, 5):
        psi = generalized_determinant(d, 1)
        assert (psi.n, psi.d) == (d, d)
        assert psi.amp.tobytes() == determinant_state(d).amp.tobytes()


def level_permutation_indices(d, p):
    """Sorted flat indices of every permutation of the d**p levels, each
    level one base-d**p digit."""
    levels = d**p
    return sorted(sum(level * levels**(levels - 1 - i) for i, level in enumerate(perm))
                  for perm in itertools.permutations(range(levels)))


def test_generalized_determinant_22():
    psi = generalized_determinant(2, 2)
    assert (psi.n, psi.d) == (8, 2)
    # level k spelled as its 2 bits leaves the flat index of det(4)
    # unchanged: the same bytes, read as 8 qubits
    assert psi.amp.tobytes() == determinant_state(4).amp.tobytes()
    nz = np.flatnonzero(np.abs(psi.amp) > 1e-12)
    assert nz.size == 24
    assert np.allclose(np.abs(psi.amp[nz]), 1 / math.sqrt(24))
    support, weight = generalized_determinant_support(2, 2)
    assert np.array_equal(np.sort(nz), support)
    assert support.dtype == np.int64 and support.tolist() == level_permutation_indices(2, 2)
    assert abs(weight - 1 / 24) < 1e-18


def test_generalized_determinant_support_scales_past_materialization():
    # 24 qubits, above the 2**22 cap
    support, weight = generalized_determinant_support(2, 3)
    assert support.dtype == np.int64 and support.tolist() == level_permutation_indices(2, 3)
    assert abs(weight * math.factorial(8) - 1.0) < 1e-12


@pytest.mark.parametrize("d, p", [(2, 3), (3, 2)])
def test_generalized_determinant_cap_fires_before_allocating(monkeypatch, d, p):
    monkeypatch.setattr(states, "np", NoNumpy())
    with pytest.raises(CapacityError):
        generalized_determinant(d, p)


def test_graph_state_single_edge():
    g = GraphSpec.from_edges(2, ((1, 2),))
    psi = graph_state(g)
    assert np.allclose(psi.amp * 2.0, [1, 1, 1, -1])


def test_graph_state_sign_oracle():
    g = GraphSpec.from_edges(4, ((1, 2), (2, 3), (3, 4), (1, 4)))
    psi = graph_state(g)
    for x in range(16):
        bits = [(x >> (3 - i)) & 1 for i in range(4)]
        parity = sum(bits[i] * bits[j] for i in range(4) for j in range(i + 1, 4)
                     if g.adj[i, j])
        assert abs(psi.amp[x] - (-1) ** parity / 4.0) < 1e-15


def seeded_graph(v, seed):
    rng = np.random.default_rng([v, seed])
    upper = np.triu(rng.integers(0, 2, size=(v, v)), 1)
    return GraphSpec(v, (upper + upper.T).astype(np.uint8))


def assert_signs_are_the_oracle(g):
    want = edge_sign_oracle(g)
    assert _edge_signs(g).tobytes() == want.tobytes()
    amp = (want / math.sqrt(1 << g.v)).astype(np.complex128)
    assert graph_state(g).amp.tobytes() == amp.tobytes()


@pytest.mark.parametrize("v", range(1, 13))
def test_doubled_edge_signs_are_the_per_edge_loop_bitwise(v):
    for seed in range(3):
        assert_signs_are_the_oracle(seeded_graph(v, seed))


@pytest.mark.parametrize("v", [1, 2, 5, 12])
def test_doubled_edge_signs_on_edgeless_complete_and_star_graphs(v):
    edgeless = GraphSpec(v, np.zeros((v, v), dtype=np.uint8))
    complete = GraphSpec(v, (1 - np.eye(v)).astype(np.uint8))
    assert_signs_are_the_oracle(edgeless)
    assert_signs_are_the_oracle(complete)
    assert np.all(_edge_signs(edgeless) == 1.0)
    if v > 1:
        # centred on the top bit, whose neighbours all sit below it, and on
        # the bottom bit, whose neighbours all sit above it
        for centre in (1, v):
            leaves = [j for j in range(1, v + 1) if j != centre]
            assert_signs_are_the_oracle(GraphSpec.from_edges(v, [(centre, j) for j in leaves]))


def test_doubled_edge_signs_at_20_vertices():
    assert_signs_are_the_oracle(seeded_graph(20, 0))


def test_graphspec_validation():
    with pytest.raises(ValidationError):
        GraphSpec.from_edges(3, ((1, 1),))
    with pytest.raises(ValidationError):
        GraphSpec.from_edges(2, ((1, 3),))
    g = GraphSpec.from_edges(3, ((1, 2), (2, 3)))
    assert g.neighbors(2) == (1, 3)
    assert g.degree(1) == 1


def test_hexacode_graph_is_the_triangular_prism():
    g = hexacode_graph()
    assert g.v == 6
    assert g.edges() == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 5),
                         (3, 6), (4, 5), (4, 6), (5, 6))
    assert all(g.degree(i) == 3 for i in range(1, 7))
    psi = hexacode_state()
    assert abs(float(np.sum(np.abs(psi.amp) ** 2)) - 1.0) < 1e-12
    assert np.allclose(np.abs(psi.amp), 1 / 8.0)


def test_graph_file_roundtrip(tmp_path):
    g = GraphSpec.from_edges(4, ((1, 2), (3, 4)))
    path = tmp_path / "g.edges"
    save_graph(g, path)
    back = load_graph(path)
    assert back.edges() == g.edges()
    assert back.v == 4


def test_load_graph_with_comments(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# a triangle\n1 2\n2 3\n1 3\n")
    g = load_graph(path)
    assert g.v == 3
    assert g.edges() == ((1, 2), (1, 3), (2, 3))
