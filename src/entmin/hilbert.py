"""Dense complex linear algebra for small multi-party Hilbert spaces.

States, product measurement bases, reduced density matrices, Schmidt
decomposition and the entropies built on them.  All entropies are in bits.
Everything here is a pure function over immutable inputs; party labels are
1-based and the flat amplitude layout is the big-endian convention of
:mod:`entmin.indexing`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .indexing import check_capacity, parties_to_axes

NORM_TOL = 1e-12
HERM_TOL = 1e-12
UNITARY_TOL = 1e-10
EIG_FLOOR = -1e-10


def _frozen_array(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class PureState:
    """Pure state of n parties with local dimension d.

    ``amp`` is the dense complex amplitude vector of length d**n in the
    standard product basis, party 1 most significant.
    """

    n: int
    d: int
    amp: np.ndarray

    def __post_init__(self):
        check_capacity(self.n, self.d)
        amp = np.asarray(self.amp, dtype=np.complex128).reshape(-1)
        if amp.size != self.d**self.n:
            raise ValidationError(
                f"amplitude vector has length {amp.size}, expected {self.d}**{self.n}"
            )
        norm2 = float(np.vdot(amp, amp).real)
        # written so that a NaN fails: every comparison with NaN is False
        if not abs(norm2 - 1.0) <= NORM_TOL:
            raise ValidationError(f"state is not normalized: |amp|^2 = {norm2!r}")
        object.__setattr__(self, "amp", _frozen_array(amp))

    @property
    def dim(self) -> int:
        return self.d**self.n

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to an n-axis tensor, axis i-1 for party i."""
        return self.amp.reshape((self.d,) * self.n)

    def nonzero_count(self) -> int:
        return int(np.count_nonzero(np.abs(self.amp) > 1e-12))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace matrix on a dim-dimensional space."""

    dim: int
    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=np.complex128)
        if mat.shape != (self.dim, self.dim):
            raise ValidationError(f"matrix shape {mat.shape} != ({self.dim}, {self.dim})")
        _check_density(mat)
        object.__setattr__(self, "mat", _frozen_array(mat))


# matrices per slice of the Hermitian test hold about this many entries, so
# its temporaries stay in cache instead of copying the whole stack
_HERM_SLICE = 1 << 14


def _check_density(rho: np.ndarray) -> None:
    """Reject a matrix, or a stack of them, that is not Hermitian and of
    unit trace within HERM_TOL; the trace reported is the worst one.  A
    NaN entry fails.  The largest |rho - rho^dag| is taken a few matrices
    at a time, and in blocks of rows for a matrix larger than the slice, so
    no temporary grows with a large matrix."""
    r = rho.shape[-1]
    stack = rho.reshape((-1, r, r))
    step = max(1, _HERM_SLICE // (r * r))
    rows = max(1, _HERM_SLICE // r)
    for k in range(0, len(stack), step):
        part = stack[k:k + step]
        for i in range(0, r, rows):
            dev = part[:, i:i + rows] - part[:, :, i:i + rows].conj().transpose(0, 2, 1)
            if not np.max(np.abs(dev)) <= HERM_TOL:
                raise ValidationError("matrix is not Hermitian within 1e-12")
    tr = np.trace(rho, axis1=-2, axis2=-1).reshape(-1)
    worst = complex(tr[np.argmax(np.abs(tr - 1.0))])
    if not abs(worst - 1.0) <= HERM_TOL:
        raise ValidationError(f"trace is {worst!r}, expected 1")


@dataclass(frozen=True, eq=False)
class ProductBasis:
    """One orthonormal measurement basis per party.

    ``u`` holds n complex d x d unitaries; column j of ``u[i]`` is the j-th
    basis vector of party i+1.
    """

    n: int
    d: int
    u: tuple

    def __post_init__(self):
        if len(self.u) != self.n:
            raise ValidationError(f"got {len(self.u)} basis matrices for {self.n} parties")
        mats = []
        eye = np.eye(self.d)
        for i, m in enumerate(self.u):
            m = np.asarray(m, dtype=np.complex128)
            if m.shape != (self.d, self.d):
                raise ValidationError(f"basis {i + 1} has shape {m.shape}")
            if not np.max(np.abs(m.conj().T @ m - eye)) <= UNITARY_TOL:
                raise ValidationError(f"basis {i + 1} is not unitary within 1e-10")
            mats.append(_frozen_array(m))
        object.__setattr__(self, "u", tuple(mats))


@dataclass(frozen=True, eq=False)
class SchmidtData:
    """Schmidt spectrum and bases of a two-party state.

    ``coeffs`` are the probabilities p_i (descending); the state is
    sum_i sqrt(p_i) |left_i> x |right_i> with left_i, right_i the columns
    of the two unitaries.
    """

    coeffs: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64)
        if abs(float(np.sum(c)) - 1.0) > 1e-10:
            raise ValidationError("Schmidt coefficients do not sum to 1")
        if np.any(np.diff(c) > 1e-12):
            raise ValidationError("Schmidt coefficients are not sorted descending")
        object.__setattr__(self, "coeffs", _frozen_array(c))
        object.__setattr__(self, "left_basis", _frozen_array(np.asarray(self.left_basis)))
        object.__setattr__(self, "right_basis", _frozen_array(np.asarray(self.right_basis)))


def identity_basis(n: int, d: int) -> ProductBasis:
    """Standard basis for every party."""
    return ProductBasis(n, d, tuple(np.eye(d, dtype=np.complex128) for _ in range(n)))


def random_state(n: int, d: int, rng: np.random.Generator) -> PureState:
    """Haar-random pure state (normalized complex Gaussian vector)."""
    check_capacity(n, d)
    z = rng.standard_normal(d**n) + 1j * rng.standard_normal(d**n)
    return PureState(n, d, z / np.linalg.norm(z))


def tensor_product(a: PureState, b: PureState) -> PureState:
    """Combined state of a's parties followed by b's parties (same d)."""
    if a.d != b.d:
        raise ValidationError(f"local dimensions differ: {a.d} vs {b.d}")
    check_capacity(a.n + b.n, a.d)
    return PureState(a.n + b.n, a.d, np.kron(a.amp, b.amp))


# largest Kronecker factor d**g that one matmul applies: qubits go three
# at a time; 9 x 9 and 16 x 16 factors measured slower on the optimizer's
# small d = 3, 4 batches, so there one party goes per step
_GROUP_DIM = 8


def _rotate_all(t: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """Tensors of t in k product bases at once: the one local-unitary kernel.

    ``ws`` is (k, n, d, d); ws[:, i] acts on party i+1's axis, so passing
    the adjoints u^dag of a basis gives its outcome amplitudes.  ``t`` holds
    m stacked tensors of d**n entries, with k and m equal or one of them 1;
    the result is (max(k, m), d, ..., d).  Consecutive parties go in groups
    of g, the most with d**g <= _GROUP_DIM (3 for qubits, 1 for d >= 3).
    Each step contracts the leading group with its (k, d**g, d**g)
    Kronecker factor in one batched matmul that writes the group's axes
    back as the trailing ones, so after ceil(n / g) steps, each one pass
    of O(d**(n+g)) per tensor, the axes are back in order.  Every tensor
    of the result is bitwise what it gets alone.
    """
    k, n, d = ws.shape[:3]
    g = 1
    while d ** (g + 1) <= _GROUP_DIM:
        g += 1
    cur = t.reshape(-1, d**n)
    for start in range(0, n, g):
        f = ws[:, start]
        for i in range(start + 1, min(start + g, n)):
            f = (f[:, :, None, :, None] * ws[:, i, None, :, None, :]).reshape(
                k, f.shape[1] * d, -1)
        rows = f.shape[1]
        # (rest, group) @ f^T: gemm reads the leading group transposed and
        # writes it as the trailing axis, so no step copies a transpose
        cur = np.matmul(cur.reshape(len(cur), rows, d**n // rows).transpose(0, 2, 1),
                        f.transpose(0, 2, 1))
    return cur.reshape((-1,) + (d,) * n)


def outcome_distribution(psi: PureState, b: ProductBasis) -> np.ndarray:
    """Joint outcome probabilities of measuring every party in its basis.

    Entry at flat index (j_1, ..., j_n) is |<psi| B_1(j_1) x ... x B_n(j_n)>|^2.
    Computed by the local-unitary kernel: ceil(n / g) passes of
    O(d**(n+g)), with g = 3 parties per pass for qubits and 1 for d >= 3.
    """
    if (psi.n, psi.d) != (b.n, b.d):
        raise ValidationError(
            f"state ({psi.n}, {psi.d}) and basis ({b.n}, {b.d}) dimensions differ"
        )
    ws = np.array([u.conj().T for u in b.u])[None]
    p = np.abs(_rotate_all(psi.tensor(), ws).reshape(-1)) ** 2
    s = float(np.sum(p))
    if not abs(s - 1.0) <= 1e-10:
        raise ValidationError(f"outcome probabilities sum to {s!r}")
    return p / s


def _entropy_bits(p: np.ndarray) -> float:
    """Shannon entropy in bits of a clean probability vector (no checks);
    0.0 - x rather than -x, so that a zero entropy is +0.0."""
    pz = p[p > 0.0]
    return 0.0 - float(np.dot(pz, np.log2(pz)))


def shannon_entropy(p) -> float:
    """Shannon entropy in bits, with the 0 log 0 = 0 convention.

    Rejects vectors with entries below -1e-12 or total weight off 1 by more
    than 1e-9 (a NaN entry makes the total NaN, which fails); entries in
    [-1e-12, 0) are clamped to 0.
    """
    p = np.asarray(p, dtype=np.float64).reshape(-1)
    if p.size and float(np.min(p)) < -1e-12:
        raise ValidationError(f"negative probability {float(np.min(p))!r}")
    s = float(np.sum(p))
    if not abs(s - 1.0) <= 1e-9:
        raise ValidationError(f"probabilities sum to {s!r}, expected 1")
    return _entropy_bits(np.clip(p, 0.0, None))


def _gram_stack(t: np.ndarray, subsets) -> np.ndarray:
    """_reduced_states without its check."""
    rows = t.shape[0] ** len(subsets[0])
    m = np.empty((len(subsets), rows, t.size // rows), dtype=t.dtype)
    for mat, x in zip(m, subsets):
        rest = tuple(a for a in range(t.ndim) if a not in x)
        mat.reshape(t.shape)[...] = t.transpose(tuple(x) + rest)
    return m @ m.conj().transpose(0, 2, 1)


def _reduced_states(t: np.ndarray, subsets) -> np.ndarray:
    """Reduced density matrices of the state tensor t on equal-size subsets
    of its 0-based axes: the one reduced-state kernel.

    Each subset's axes lead, in the given order, and the rest are traced
    out.  The subsets' amplitude matrices are stacked and share one Gram
    product; the (len(subsets), r, r) result is checked as a DensityMatrix
    is, so an unnormalized t is rejected.
    """
    rho = _gram_stack(t, subsets)
    _check_density(rho)
    return rho


def partial_trace(psi: PureState, keep) -> DensityMatrix:
    """Reduced density matrix of the given parties (1-based labels).

    The kept subsystem keeps ascending party order; the rest is traced out.
    The kernel's check runs once, in DensityMatrix.
    """
    axes = parties_to_axes(keep, psi.n)
    if len(axes) == 0 or len(axes) == psi.n:
        raise ValidationError("keep-set must be a nonempty proper subset of the parties")
    return DensityMatrix(psi.d ** len(axes), _gram_stack(psi.tensor(), [axes])[0])


def _clamped_spectrum(lam: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (one spectrum per row of a stack) clipped to
    [0, 1]; any eigenvalue below EIG_FLOOR is rejected as a malformed
    density matrix."""
    low = float(np.min(lam[..., 0]))
    if low < EIG_FLOOR:
        raise ValidationError(f"negative eigenvalue {low!r} below clamp floor")
    return np.clip(lam, 0.0, 1.0)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Spectral entropy -sum lambda log2 lambda in bits.

    Eigenvalues in [-1e-10, 0) are clamped to 0; anything lower is rejected
    as a malformed density matrix.
    """
    return _entropy_bits(_clamped_spectrum(np.linalg.eigvalsh(rho.mat)))


def schmidt_decompose(psi: PureState) -> SchmidtData:
    """Schmidt decomposition of a two-party state via SVD."""
    if psi.n != 2:
        raise ValidationError(f"Schmidt decomposition needs n = 2, got n = {psi.n}")
    m = psi.amp.reshape(psi.d, psi.d)
    left, sing, vh = np.linalg.svd(m)
    # psi = sum_i s_i |left_i> x |vh_i^T>; rows of vh are the right vectors.
    return SchmidtData(coeffs=sing**2, left_basis=left, right_basis=vh.T)


# ---------------------------------------------------------------------------
# State files: {"n": ..., "d": ..., "amp": [[re, im], ...]} in flat order.

def save_state(psi: PureState, path) -> None:
    """Write a state to the JSON state-file format."""
    payload = {
        "n": psi.n,
        "d": psi.d,
        "amp": [[float(a.real), float(a.imag)] for a in psi.amp],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_state(path) -> PureState:
    """Read a JSON state file, validating shape and normalization."""
    with open(path) as fh:
        payload = json.load(fh)
    try:
        n, d = int(payload["n"]), int(payload["d"])
        amp = np.array([complex(re, im) for re, im in payload["amp"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed state file {path}: {exc}") from exc
    return PureState(n, d, amp)
