import itertools
import math

import numpy as np
import pytest

from entmin import hilbert
from entmin.errors import ValidationError
from entmin.hilbert import (
    HERM_TOL,
    DensityMatrix,
    ProductBasis,
    PureState,
    _check_density,
    _entropy_bits,
    _reduced_states,
    _stack_space,
    identity_basis,
    load_state,
    outcome_distribution,
    partial_trace,
    random_state,
    save_state,
    schmidt_decompose,
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
    with pytest.raises(ValidationError, match=r"not normalized: \|amp\|\^2 = 2\.0$"):
        PureState(1, 2, np.array([1.0, 1.0]))
    with pytest.raises(ValidationError, match="not normalized"):
        PureState(1, 2, np.array([0.6, 0.8j]) * (1.0 + 2e-12))
    PureState(1, 2, np.array([0.6, 0.8j]) * (1.0 + 2e-13))


def test_purestate_rejects_wrong_length():
    with pytest.raises(ValidationError):
        PureState(2, 2, np.array([1.0, 0.0]))


def test_purestate_amplitudes_are_readonly():
    psi = PureState(1, 2, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        psi.amp[0] = 0.5


def test_constructors_keep_a_frozen_copy_of_their_callers_arrays(rng):
    # each converts to complex128 and copies in one step; the caller's
    # array stays writable and every kept value is its own, bytewise
    z = random_state(3, 2, rng).amp.copy()
    real = z.real / np.linalg.norm(z.real)
    u = haar(2, rng)
    rho = partial_trace(random_state(3, 2, rng), (1,)).mat.copy()
    pairs = [(z, PureState(3, 2, z).amp), (real, PureState(3, 2, real).amp),
             (u, ProductBasis(1, 2, (u,)).u[0]), (rho, DensityMatrix(2, rho).mat)]
    for given, kept in pairs:
        assert not np.shares_memory(given, kept)
        assert given.flags.writeable and not kept.flags.writeable
        assert kept.tobytes() == given.astype(np.complex128).tobytes()


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


# qubits go three per step, so n = 1, 2, 4, 5, 7, 8 end on a short group;
# d = 3 and 4 take one party per step
@pytest.mark.parametrize("n,d", [(n, 2) for n in range(1, 9)]
                         + [(2, 3), (4, 3), (2, 4), (3, 4)])
def test_outcome_distribution_against_product_vector_oracle(n, d, rng):
    psi = random_state(n, d, rng)
    basis = ProductBasis(n, d, tuple(haar(d, rng) for _ in range(n)))
    p = outcome_distribution(psi, basis)
    assert np.max(np.abs(p - outcome_oracle(psi, basis))) <= 1e-14
    assert abs(p.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("n,d", [(1, 2), (4, 2), (6, 2), (7, 2), (3, 3), (2, 4)])
def test_each_start_of_a_rotated_batch_is_bitwise_its_own_run(n, d, rng):
    t = random_state(n, d, rng).tensor()
    ws = np.array([[haar(d, rng) for _ in range(n)] for _ in range(5)])
    batch = hilbert._rotate_all(t, ws)
    assert batch.shape == (5,) + (d,) * n
    for j in range(5):
        alone = hilbert._rotate_all(t, ws[j:j + 1])
        assert np.array_equal(batch[j:j + 1].view(np.int64), alone.view(np.int64))


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


def whole_stack_is_hermitian(rho):
    """The Hermitian test on the whole stack at once."""
    return bool(np.max(np.abs(rho - np.swapaxes(rho.conj(), -1, -2))) <= HERM_TOL)


# past 128 x 128 one matrix is tested in row blocks: 64 rows at 256, and
# blocks of 42 that do not divide 384
@pytest.mark.parametrize("shape", [(40, 2, 2), (9, 64, 64), (3, 128, 128), (2, 256, 256),
                                   (1, 384, 384)])
def test_sliced_hermitian_test_decides_as_the_whole_stack(rng, shape):
    k, r, _ = shape
    m = rng.standard_normal((k, r, 2 * r)) + 1j * rng.standard_normal((k, r, 2 * r))
    rho = m @ m.conj().transpose(0, 2, 1)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    for defect in (0.5e-12, 0.999e-12, 1.001e-12, 2e-12, 1e-12j, 3e-12j, np.nan):
        for at in ((k - 1, r - 1, 0), (k // 2, 0, r - 1), (0, 1, 1), (k - 1, r - 2, r - 1)):
            bad = rho.copy()
            bad[at] += defect
            try:
                _check_density(bad)
                rejected = False
            except ValidationError as exc:
                # a real defect on the diagonal fails the trace test
                rejected = "not Hermitian" in str(exc)
            assert rejected is not whole_stack_is_hermitian(bad), (defect, at)


def test_partial_trace_checks_its_matrix_in_the_kernel_and_in_density_matrix(monkeypatch, rng):
    # the kernel checks its one-matrix stack, DensityMatrix the matrix again
    calls = []
    orig = hilbert._check_density

    def counting(rho):
        calls.append(rho.shape)
        orig(rho)

    monkeypatch.setattr(hilbert, "_check_density", counting)
    partial_trace(random_state(4, 2, rng), (1, 3))
    assert calls == [(1, 4, 4), (4, 4)]


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_reduced_states_in_a_larger_space_are_a_fresh_space_bitwise(rng, real):
    # a space made for five subsets of three axes holds a stack of two
    # subsets of three, and one of three subsets of two, in its leading
    # entries; a real t gets no conjugate buffer
    psi = random_state(6, 2, rng)
    t = psi.tensor().real.copy() if real else psi.tensor()
    t = t / np.linalg.norm(t)
    space = _stack_space(t, list(itertools.combinations(range(6), 3))[:5])
    assert (space[1] is None) is real
    assert {buf.dtype for buf in space if buf is not None} == {t.dtype}
    for subsets in ([(0, 2, 4), (5, 1, 3)], [(0, 1), (2, 5), (4, 3)]):
        fresh = _reduced_states(t, subsets)
        reused = _reduced_states(t, subsets, space)
        assert np.shares_memory(reused, space[2])
        assert reused.shape == fresh.shape and reused.dtype == fresh.dtype
        assert reused.tobytes() == fresh.tobytes()


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
    # psi = sum_i sqrt(p_i) |l_i> x |r_i>
    back = (sd.left_basis * np.sqrt(sd.coeffs)) @ sd.right_basis.T
    assert abs(abs(np.vdot(back.reshape(-1), psi.amp)) - 1.0) < 1e-10
    # measuring in the Schmidt bases yields exactly the coefficient spectrum
    basis = ProductBasis(2, 4, (sd.left_basis, sd.right_basis))
    p = outcome_distribution(psi, basis)
    diag = p.reshape(4, 4).diagonal()
    assert np.allclose(np.sort(diag)[::-1], sd.coeffs, atol=1e-10)
    assert abs(float(diag.sum()) - 1.0) < 1e-10


def test_schmidt_needs_two_parties(rng):
    with pytest.raises(ValidationError):
        schmidt_decompose(random_state(3, 2, rng))


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


@pytest.mark.parametrize("text", [
    '{"n": 2.9, "d": 2, "amp": [[1, 0], [0, 0], [0, 0], [0, 0]]}',
    '{"n": "2", "d": 2, "amp": [[1, 0], [0, 0], [0, 0], [0, 0]]}',
    '{"n": 2, "d": true, "amp": [[1, 0]]}',
    '{"n": true, "d": 2, "amp": [[1, 0], [0, 0]]}',
], ids=["float-n", "string-n", "bool-d", "bool-n"])
def test_load_state_rejects_a_non_integer_shape(tmp_path, text):
    # int() would read these as n = 2, n = 2, d = 1 and n = 1
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match="must be an integer"):
        load_state(path)


def test_product_basis_rejects_nonunitary():
    with pytest.raises(ValidationError):
        ProductBasis(1, 2, (np.array([[1.0, 1.0], [0.0, 1.0]]),))


def nan_first(a):
    a = np.array(a, dtype=np.complex128)
    a.flat[0] = complex(np.nan, 0.0)
    return a


def test_constructors_reject_nan():
    with pytest.raises(ValidationError, match="nan"):
        PureState(2, 2, nan_first([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValidationError, match="not unitary"):
        ProductBasis(1, 2, (nan_first(np.eye(2)),))
    with pytest.raises(ValidationError, match="not Hermitian"):
        DensityMatrix(2, nan_first(np.eye(2) / 2.0))
    with pytest.raises(ValidationError, match="sum to nan"):
        shannon_entropy([np.nan, 1.0])


def test_outcome_distribution_rejects_nan():
    psi = PureState(1, 2, np.array([1.0, 0.0]))
    # a state with a NaN cannot be built, so put one past the constructor
    object.__setattr__(psi, "amp", nan_first(psi.amp))
    with pytest.raises(ValidationError, match="sum to nan"):
        outcome_distribution(psi, identity_basis(1, 2))


def test_finite_inputs_keep_their_error_texts():
    with pytest.raises(ValidationError, match=r"\|amp\|\^2 = 2\.0"):
        PureState(1, 2, np.array([1.0, 1.0]))
    with pytest.raises(ValidationError, match="sum to 0.5, expected 1"):
        shannon_entropy([0.25, 0.25])
    with pytest.raises(ValidationError, match="trace is"):
        DensityMatrix(2, np.eye(2))


def test_zero_entropy_is_positive_zero():
    for p in ([1.0, 0.0], [0.0, 1.0, 0.0, 0.0], [1.0]):
        assert math.copysign(1.0, _entropy_bits(np.array(p))) == 1.0
        assert math.copysign(1.0, shannon_entropy(p)) == 1.0
    # a nonzero entropy is unchanged
    assert shannon_entropy([0.5, 0.5]) == 1.0
