"""The transfer walk over word pairs against the listings it replaces and
against the gamma route."""

import pytest

from toricg import parking, perms, polyvec, transfer
from toricg.errors import PreconditionError

_FAMILIES = polyvec._FAMILIES


@pytest.mark.parametrize("n", range(8))
def test_transfer_equals_the_enumerated_ascent_counts(n):
    """Weak ascents over the 123-avoiding parking functions, all 123-avoiding
    functions, the 123-avoiding permutations and the functions of the
    123-avoiding parking trees."""
    count = parking.ascent_polynomial
    assert transfer.family_row("associahedron", n) == count(
        parking.iter_123_avoiding_functions(n, parking_only=True))
    assert transfer.family_row("cyclohedron", n) == count(
        parking.iter_123_avoiding_functions(n, parking_only=False))
    assert transfer.family_row("cube", n) == count(perms.enumerate_123_avoiding(n))
    trees = parking.enumerate_123_parking_trees(n, unsafe=True)
    assert transfer.family_row("permutahedron", n) == count(map(parking.tree_to_function, trees))


def test_transfer_equals_the_gamma_route_to_20():
    for family in _FAMILIES:
        for n in range(1, 21):
            expected = polyvec.toric_g_from_gamma(n, polyvec.gamma_family(family, n))
            assert transfer.family_row(family, n) == expected, (family, n)


def test_transfer_refuses_bad_arguments():
    with pytest.raises(PreconditionError):
        transfer.family_row("megahedron", 3)
    with pytest.raises(PreconditionError):
        transfer.family_row("cube", -1)
    with pytest.raises(PreconditionError):
        transfer.family_row("cube", 2.0)
