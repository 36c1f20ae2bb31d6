import numpy as np
import pytest

from entmin.errors import ValidationError
from entmin.hilbert import partial_trace, random_state
from entmin.indexing import check_capacity, flat_from_digits, mask_of_parties, parties_to_axes

from conftest import capacity_error_peak


@pytest.mark.parametrize("n", range(1, 7))
def test_mask_of_one_party_is_its_flat_index(n):
    for i in range(1, n + 1):
        digits = [int(p == i) for p in range(1, n + 1)]
        assert mask_of_parties((i,), n) == flat_from_digits(digits, 2)


def test_mask_of_parties_is_the_union_of_single_masks():
    assert mask_of_parties((1, 3, 4), 5) == 0b10110
    assert mask_of_parties((), 5) == 0


def test_mask_of_parties_rejects_bad_labels():
    with pytest.raises(ValidationError):
        mask_of_parties((2, 2), 4)
    with pytest.raises(ValidationError):
        mask_of_parties((0,), 4)
    with pytest.raises(ValidationError):
        mask_of_parties((5,), 4)


def test_party_labels_may_come_from_a_generator(rng):
    assert parties_to_axes((p for p in (3, 1)), 4) == (0, 2)
    with pytest.raises(ValidationError):
        parties_to_axes((p for p in (1, 1)), 4)
    psi = random_state(3, 2, rng)
    rho = partial_trace(psi, (p for p in (1, 2)))
    assert np.array_equal(rho.mat, partial_trace(psi, (1, 2)).mat)


def test_capacity_check_builds_no_big_integer():
    # 2**(10**8) alone would be a 12.5 MB integer
    assert capacity_error_peak(check_capacity, 10**8, 2) < 1 << 20
