"""The bracket panel: how tight [floor, s_upper] is on 29 states at the
OptConfig() defaults.

Each state's floor, s_upper and floor witness are pinned as this code
gives them.  A floor that drops by more than FLOOR_SLACK or an s_upper that
rises by more than UPPER_SLACK fails: the last bits follow the BLAS thread
count, and nothing else may widen a bracket.  A new certificate changes a
floor witness, and a bracket that closes changes the closed count: such a
change fails here until it updates the pins and README's bracket table.
Runs in about 7 s on 2 CPUs.
"""

import functools

import numpy as np
import pytest

from entmin import entopt, states
from entmin.hilbert import PureState, random_state, tensor_product

FLOOR_SLACK = 1e-12
UPPER_SLACK = 1e-9
CLOSED = 9  # brackets with s_upper - floor <= entopt.CLOSE_TOL


def ring(v):
    return states.GraphSpec.from_edges(v, [(i, i % v + 1) for i in range(1, v + 1)])


def circulant(v, steps):
    """Vertex i joined to i +- s (mod v) for each s in steps."""
    edges = {tuple(sorted((i, (i + s - 1) % v + 1))) for i in range(1, v + 1) for s in steps}
    return states.GraphSpec.from_edges(v, sorted(edges))


def w_state(n):
    amp = np.zeros(1 << n, dtype=complex)
    amp[[1 << b for b in range(n)]] = 1.0 / np.sqrt(n)
    return PureState(n, 2, amp)


def random_panel_state(n, d, s):
    return random_state(n, d, np.random.default_rng([n, d, s]))


TRI = "3-uniform outcome polytope, entropy floor 4"

# name: (state, floor, s_upper, floor witness)
PANEL = {
    "hexacode": (states.hexacode_state, 4.0, 4.000000000000726, TRI),
    "ghz(3,2)": (lambda: states.ghz(3, 2), 1.0, 1.0, "subset (1,)"),
    "ghz(5,2)": (lambda: states.ghz(5, 2), 1.0, 1.0, "subset (1,)"),
    "det(3)": (lambda: states.determinant_state(3), 2.584962500720156, 2.5849625007211565,
               "antisymmetric state, entropy floor log2(3!)"),
    "det(4)": (lambda: states.determinant_state(4), 4.584962500720156, 4.584962500721155,
               "antisymmetric state, entropy floor log2(4!)"),
    "gdet(2,1)": (lambda: states.generalized_determinant(2, 1), 1.0, 1.0, "subset (1,)"),
    "gdet(2,2)": (lambda: states.generalized_determinant(2, 2), 3.3962406251802895,
                  4.584962500721155, "subset (1, 2, 3, 6)"),
    "C5": (lambda: states.graph_state(ring(5)), 1.9999999999999998, 3.0, "subset (1, 2)"),
    "C6": (lambda: states.graph_state(ring(6)), 3.0, 3.000000000002043, "subset (1, 2, 4)"),
    "C7": (lambda: states.graph_state(ring(7)), 3.0, 4.000000000000001, "subset (1, 2, 4)"),
    "C8": (lambda: states.graph_state(ring(8)), 4.0, 4.000000000002379, "subset (1, 2, 4, 6)"),
    "C10": (lambda: states.graph_state(ring(10)), 5.0, 5.000000000018621,
            "subset (1, 2, 4, 6, 8)"),
    "W3": (lambda: w_state(3), 0.9182958340544893, 1.5849625007211563, "subset (1,)"),
    "W4": (lambda: w_state(4), 1.0, 2.0, "subset (1, 2)"),
    "W5": (lambda: w_state(5), 0.9709505944546687, 2.321928094887362, "subset (1, 2)"),
    "hexacode-x-ghz(3,2)": (lambda: tensor_product(states.hexacode_state(), states.ghz(3, 2)),
                            3.9999999999999996, 5.0, "subset (1, 2, 3, 7)"),
    # 5-uniform: every 5-vertex block is maximally mixed
    "circulant(12;1,3,6)": (lambda: states.graph_state(circulant(12, (1, 3, 6))), 6.0,
                            8.000000000000014, "subset (1, 2, 3, 4, 5, 7)"),
    "random(3,2,0)": (lambda: random_panel_state(3, 2, 0), 0.8978212919390676,
                      1.6631058132283831, "subset (2,)"),
    "random(3,2,1)": (lambda: random_panel_state(3, 2, 1), 0.6708410322625845,
                      0.929769088945591, "subset (3,)"),
    "random(3,2,2)": (lambda: random_panel_state(3, 2, 2), 0.7782699691564141,
                      1.2514793692931288, "subset (3,)"),
    "random(4,2,0)": (lambda: random_panel_state(4, 2, 0), 1.3938681421337125,
                      2.6245865542242424, "subset (1, 4)"),
    "random(4,2,1)": (lambda: random_panel_state(4, 2, 1), 1.6857642713426562,
                      2.611036357360363, "subset (1, 4)"),
    "random(4,2,2)": (lambda: random_panel_state(4, 2, 2), 1.4928591661933663,
                      2.208320311085946, "subset (1, 2)"),
    "random(5,2,0)": (lambda: random_panel_state(5, 2, 0), 1.8738263862544329,
                      3.614398634486036, "subset (3, 5)"),
    "random(5,2,1)": (lambda: random_panel_state(5, 2, 1), 1.8298403405753187,
                      3.6122254593976324, "subset (2, 5)"),
    "random(5,2,2)": (lambda: random_panel_state(5, 2, 2), 1.8368986263608715,
                      3.6063891026637434, "subset (2, 4)"),
    "random(3,3,0)": (lambda: random_panel_state(3, 3, 0), 1.4831629978346759,
                      2.5095949817478522, "subset (3,)"),
    "random(3,3,1)": (lambda: random_panel_state(3, 3, 1), 1.3928513793335136,
                      2.703981786467736, "subset (3,)"),
    "random(3,3,2)": (lambda: random_panel_state(3, 3, 2), 1.4460698975241673,
                      2.842211468398546, "subset (3,)"),
}


@functools.cache
def bracket(name):
    res = entopt.minimize_entropy(PANEL[name][0](), entopt.OptConfig())
    return res.floor, res.s_upper, res.floor_witness


@pytest.mark.parametrize("name", list(PANEL))
def test_bracket_does_not_widen(name):
    _, floor, s_upper, witness = PANEL[name]
    got_floor, got_upper, got_witness = bracket(name)
    assert got_floor >= floor - FLOOR_SLACK
    assert got_upper <= s_upper + UPPER_SLACK
    assert got_witness == witness


def test_closed_count():
    assert len(PANEL) == 29
    pinned = sum(up - lo <= entopt.CLOSE_TOL for _, lo, up, _ in PANEL.values())
    measured = sum(up - lo <= entopt.CLOSE_TOL for lo, up, _ in map(bracket, PANEL))
    assert pinned == measured == CLOSED
