import itertools

import numpy as np
import pytest

from entmin.errors import ValidationError
from entmin.hilbert import (
    DensityMatrix,
    ProductBasis,
    PureState,
    _reduced_states,
    embed_local_dims,
    identity_basis,
    load_state,
    outcome_distribution,
    partial_trace,
    random_state,
    save_state,
    schmidt_decompose,
    schmidt_reconstruct,
    shannon_entropy,
    tensor_product,
    von_neumann_entropy,
)

from conftest import outcome_oracle


def haar(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_purestate_rejects_unnormalized():
    with pytest.raises(ValidationError):
        PureState(1, 2, np.array([1.0, 1.0]))


def test_purestate_rejects_wrong_length():
    with pytest.raises(ValidationError):
        PureState(2, 2, np.array([1.0, 0.0]))


def test_purestate_amplitudes_are_readonly():
    psi = PureState(1, 2, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        psi.amp[0] = 0.5


def test_tensor_layout_party_one_most_significant():
    # amp[flat] with flat = j1*d + j2 for two parties
    amp = np.zeros(4)
    amp[2] = 1.0  # |1 0>
    psi = PureState(2, 2, amp)
    t = psi.tensor()
    assert t[1, 0] == 1.0


def test_tensor_product_matches_kron(rng):
    a = random_state(1, 3, rng)
    b = random_state(2, 3, rng)
    ab = tensor_product(a, b)
    assert np.allclose(ab.amp, np.kron(a.amp, b.amp))


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3)])
def test_outcome_distribution_against_product_vector_oracle(n, d, rng):
    psi = random_state(n, d, rng)
    basis = ProductBasis(n, d, tuple(haar(d, rng) for _ in range(n)))
    p = outcome_distribution(psi, basis)
    assert np.allclose(p, outcome_oracle(psi, basis), atol=1e-12)
    assert abs(p.sum() - 1.0) < 1e-12


def test_outcome_distribution_dimension_mismatch(rng):
    psi = random_state(2, 2, rng)
    with pytest.raises(ValidationError):
        outcome_distribution(psi, identity_basis(3, 2))


def test_shannon_entropy_basics():
    assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0
    assert abs(shannon_entropy([0.25] * 4) - 2.0) < 1e-15
    with pytest.raises(ValidationError):
        shannon_entropy([0.5, 0.4])
    with pytest.raises(ValidationError):
        shannon_entropy([1.5, -0.5])


def test_partial_trace_against_dense_oracle(rng):
    # plain loops over digit strings keep the oracle independent of any
    # index juggling; the subset scan shares partial_trace's kernel, so
    # this is that kernel's independent check
    for n, d in ((4, 2), (3, 3)):
        psi = random_state(n, d, rng)
        t = psi.tensor()
        for size in range(1, n):
            for keep in itertools.combinations(range(n), size):
                rest = tuple(a for a in range(n) if a not in keep)
                kept = list(itertools.product(range(d), repeat=size))
                oracle = np.zeros((len(kept), len(kept)), dtype=complex)
                for (i, x), (k, y) in itertools.product(enumerate(kept), repeat=2):
                    for z in itertools.product(range(d), repeat=n - size):
                        left = dict(zip(keep + rest, x + z))
                        right = dict(zip(keep + rest, y + z))
                        oracle[i, k] += (t[tuple(left[a] for a in range(n))]
                                         * np.conj(t[tuple(right[a] for a in range(n))]))
                rho = partial_trace(psi, [a + 1 for a in keep])
                assert np.allclose(rho.mat, oracle, atol=1e-12), (n, d, keep)


def test_reduced_states_match_partial_trace_bitwise(rng):
    for n, d in ((4, 2), (3, 3), (5, 2)):
        psi = random_state(n, d, rng)
        for size in range(1, n):
            # subsets out of order, each stacked with others of its size
            subsets = list(itertools.combinations(range(n), size))[::-1]
            for x, rho in zip(subsets, _reduced_states(psi.tensor(), subsets)):
                assert np.array_equal(rho, partial_trace(psi, [a + 1 for a in x]).mat)


def test_density_checks_reject_non_hermitian_and_bad_trace(rng):
    with pytest.raises(ValidationError, match="not Hermitian"):
        DensityMatrix(2, np.array([[0.5, 0.1], [0.0, 0.5]]))
    with pytest.raises(ValidationError, match="trace"):
        DensityMatrix(2, np.eye(2) / 4)
    t = random_state(3, 2, rng).tensor()
    with pytest.raises(ValidationError, match="trace"):
        _reduced_states(1.001 * t, [(0,), (1,), (2,)])


def test_partial_trace_requires_proper_subset(rng):
    psi = random_state(2, 2, rng)
    with pytest.raises(ValidationError):
        partial_trace(psi, (1, 2))
    with pytest.raises(ValidationError):
        partial_trace(psi, ())


def test_von_neumann_entropy_of_maximally_mixed():
    rho = DensityMatrix(2, np.eye(2) / 2)
    assert abs(von_neumann_entropy(rho) - 1.0) < 1e-12


def test_spectrum_duality_random_states(rng):
    # both halves of a pure state share a spectrum
    for n, d in ((2, 3), (3, 2), (4, 2)):
        psi = random_state(n, d, rng)
        for r in range(1, n // 2 + 1):
            keep = tuple(range(1, r + 1))
            rest = tuple(range(r + 1, n + 1))
            la = np.sort(np.linalg.eigvalsh(partial_trace(psi, keep).mat))[::-1]
            lb = np.sort(np.linalg.eigvalsh(partial_trace(psi, rest).mat))[::-1]
            k = min(la.size, lb.size)
            assert np.allclose(la[:k], lb[:k], atol=1e-9)
            assert np.all(np.abs(la[k:]) < 1e-9) and np.all(np.abs(lb[k:]) < 1e-9)


def test_schmidt_roundtrip_and_entropy(rng):
    psi = random_state(2, 4, rng)
    sd = schmidt_decompose(psi)
    assert abs(float(np.sum(sd.coeffs)) - 1.0) < 1e-10
    back = schmidt_reconstruct(sd)
    assert abs(abs(np.vdot(back.amp, psi.amp)) - 1.0) < 1e-10
    # measuring in the Schmidt bases yields exactly the coefficient spectrum
    basis = ProductBasis(2, 4, (sd.left_basis, sd.right_basis))
    p = outcome_distribution(psi, basis)
    diag = p.reshape(4, 4).diagonal()
    assert np.allclose(np.sort(diag)[::-1], sd.coeffs, atol=1e-10)
    assert abs(float(diag.sum()) - 1.0) < 1e-10


def test_schmidt_needs_two_parties(rng):
    with pytest.raises(ValidationError):
        schmidt_decompose(random_state(3, 2, rng))


def test_embed_local_dims(rng):
    psi = random_state(2, 2, rng)
    big = embed_local_dims(psi, 3)
    assert (big.n, big.d) == (2, 3)
    assert np.allclose(big.tensor()[:2, :2], psi.tensor())
    assert big.tensor()[2, 2] == 0


def test_state_file_roundtrip(tmp_path, rng):
    psi = random_state(2, 3, rng)
    path = tmp_path / "s.json"
    save_state(psi, path)
    back = load_state(path)
    assert (back.n, back.d) == (2, 3)
    assert np.allclose(back.amp, psi.amp)


def test_load_state_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1, "d": 2}')
    with pytest.raises(ValidationError):
        load_state(path)


def test_product_basis_rejects_nonunitary():
    with pytest.raises(ValidationError):
        ProductBasis(1, 2, (np.array([[1.0, 1.0], [0.0, 1.0]]),))
