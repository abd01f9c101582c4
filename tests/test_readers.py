"""Every text reader fails with the package's own errors.

Each reader either raises a ToricgError or returns a value whose text
reads back as the same value; every integer goes through
``words.read_int``, which takes ASCII digits only.  The validators refuse
entries that are not ints (floats and bools included) with a
StructuralError.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from toricg import compat, parking, perms
from toricg.errors import StructuralError, ToricgError
from toricg.polyvec import IntPoly

# digits that int() or str.isdigit() take, and signs, underscores and blanks
_TRAPS = "²¹٣_+- \t"


def _texts(valid, alphabet):
    """Arbitrary text over the format's characters and any others, real
    texts of the format, and real texts with a slice replaced by noise."""
    noise = st.text(st.sampled_from(alphabet + _TRAPS) | st.characters(), max_size=12)
    spliced = st.builds(
        lambda t, i, k, s: t[:i] + s + t[i + k:],
        st.sampled_from(valid), st.integers(0, 40), st.integers(0, 3), noise,
    )
    return noise | st.sampled_from(valid) | spliced


def _reads_back(read, write, text):
    try:
        value = read(text)
    except ToricgError:
        return
    assert read(write(value)) == value


_FS_TEXTS = [perms.fs_tree_to_text(perms.fs_tree(p))
             for p in [(1,), (2, 1, 3), (3, 1, 4, 2), (2, 1, 4, 3, 5)]]
_TREE_TEXTS = ["(v=1)", "(v=1 [e=1 (v=2)])", "(v=1 [e=1 (v=2)] [e=2 (v=3)])",
               "(v=1 [e=2 (v=2 [e=1 (v=3)])])"]


@settings(max_examples=200, deadline=None)
@given(_texts(["7 5 10 7 3 6 1 4 3 1", "1", "2 1 2", ""], "0123456789 "))
def test_fn_from_text_reads_back(text):
    _reads_back(parking.fn_from_text, parking.fn_to_text, text)


@settings(max_examples=200, deadline=None)
@given(_texts(["7 10 5 9 8 2 6 1 4 3", "1", "2 1 3", ""], "0123456789 "))
def test_perm_from_text_reads_back(text):
    _reads_back(perms.perm_from_text, perms.perm_to_text, text)


@settings(max_examples=200, deadline=None)
@given(_texts(["1,37,10", "-3,0,5", "0", ""], "0123456789,-"))
def test_intpoly_from_text_reads_back(text):
    _reads_back(IntPoly.from_text, IntPoly.to_text, text)


@settings(max_examples=200, deadline=None)
@given(_texts(["1,2|3|4", "1,4|2,3", "1", ""], "0123456789,|"))
def test_nc_from_text_reads_back(text):
    _reads_back(compat.nc_from_text, compat.nc_to_text, text)


@settings(max_examples=200, deadline=None)
@given(_texts(_FS_TEXTS, "0123456789()LR"))
def test_fs_tree_from_text_reads_back(text):
    _reads_back(perms.fs_tree_from_text, perms.fs_tree_to_text, text)


@settings(max_examples=200, deadline=None)
@given(_texts(_TREE_TEXTS, "0123456789()[]ve="))
def test_parking_tree_from_text_reads_back(text):
    _reads_back(parking.parking_tree_from_text, parking.parking_tree_to_text, text)


@pytest.mark.parametrize("read,text", [
    (parking.fn_from_text, "a"),
    (perms.perm_from_text, "x"),
    (IntPoly.from_text, "x"),
    (compat.nc_from_text, "1,a"),
    (perms.fs_tree_from_text, "(²)"),  # a digit to str.isdigit, not to int()
    (parking.parking_tree_from_text, "(v=¹)"),
    (parking.fn_from_text, "0 9"),  # values off [1, n]
    (perms.perm_from_text, "1 1"),
    (IntPoly.from_text, "1_0"),  # int() reads this as 10
    (IntPoly.from_text, "+1"),
    (parking.fn_from_text, "١"),  # int() and str.isdigit() read this as 1
    (IntPoly.from_text, "1" * 5000),  # more digits than int() converts
    # a blank inside a number: with the blanks dropped these read as
    # vertex 10 and as edge 10 into vertex 11
    (perms.fs_tree_from_text, "(1 L(2) R(3 L(4 R(5 R(6 R(7 L(8) R(9))))) R(1 0 R(11))))"),
    (parking.parking_tree_from_text,
     "(v=1" + "".join(f" [e={e} (v={e + 1})]" for e in range(1, 10)) + " [e=1 0 (v=1 1)])"),
])
def test_reader_probes_raise_structural_errors(read, text):
    with pytest.raises(StructuralError):
        read(text)


def test_empty_partition_reads_back():
    empty = compat.nc_from_text("")
    assert empty.blocks == () and empty.n == 0
    assert compat.nc_to_text(empty) == ""


def test_signed_coefficients_read_back():
    assert IntPoly.from_text("1,-2, 3") == IntPoly([1, -2, 3])


@pytest.mark.parametrize("check,value", [
    (parking.is_parking, ("a",)),
    (parking.is_parking, (True,)),
    (parking.validate_fn, (1.0,)),
    (perms.validate_perm, (1, "a")),
    (perms.validate_perm, (True,)),
    (compat.NoncrossingPartition, [[1, "a"]]),
    (compat.NoncrossingPartition, [[1.0]]),
])
def test_validators_refuse_entries_that_are_not_ints(check, value):
    with pytest.raises(StructuralError):
        check(value)


def _fs_chain(depth):
    text = f"({depth})"
    for v in range(depth - 1, 0, -1):
        text = f"({v} R{text})"
    return text


def _parking_chain(depth):
    text = f"(v={depth})"
    for v in range(depth - 1, 0, -1):
        text = f"(v={v} [e={v} {text}])"
    return text


_CHAINS = [
    (perms.fs_tree_from_text, perms.fs_tree_to_text, _fs_chain),
    (parking.parking_tree_from_text, parking.parking_tree_to_text, _parking_chain),
]


@pytest.mark.parametrize("read,write,chain", _CHAINS, ids=["fs_tree", "parking_tree"])
def test_deep_trees_read_back_or_raise_structural_errors(read, write, chain):
    """The tree readers parse on an explicit stack: a chain far past the
    interpreter's recursion limit reads back, and the same chain cut short
    or left open is a StructuralError, not a RecursionError."""
    for depth in (200, 1200):
        assert write(read(chain(depth))) == chain(depth)
    deep = chain(1200)
    for broken in (deep[:-1], deep[:-600], "(" + deep):
        with pytest.raises(StructuralError):
            read(broken)


def test_parking_tree_check_past_the_recursion_limit_is_a_structural_error():
    """The ParkingTree check after the parse walks an explicit stack too:
    a chain whose deepest vertex label falls is refused as a tree."""
    depth = 1500
    bad = _parking_chain(depth).replace(f"(v={depth})", "(v=1)")
    with pytest.raises(StructuralError, match="vertex labels must increase"):
        parking.parking_tree_from_text(bad)


@pytest.mark.parametrize("kind", ["fs_tree", "parking_tree"])
def test_writers_and_readers_round_trip_10000_vertex_paths(kind):
    """What each tree writer prints, its reader reads back: the paths of
    10,000 vertices, which 1,000 vertices already took past the recursion
    limit when the readers recursed once per level."""
    if kind == "fs_tree":
        tree = perms.fs_tree(tuple(range(1, 10001)))
        assert perms.fs_tree_from_text(perms.fs_tree_to_text(tree)) == tree
    else:
        tree = parking.dfs_tree((1,) + tuple(range(1, 10000)))
        assert parking.parking_tree_from_text(parking.parking_tree_to_text(tree)) == tree


def test_fs_tree_copies_and_pickles_past_the_recursion_limit():
    """A copy or a pickle of a min-rooted tree went node by node and raised
    RecursionError on a path of 3,000 vertices; it now goes through the
    tree's text, and so does the empty tree's "()"."""
    tree = perms.fs_tree(tuple(range(1, 10001)))
    for twin in (copy.copy(tree), copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
        assert twin == tree and twin is not tree and perms.fs_preorder(twin) == tuple(range(1, 10001))
    assert perms.fs_tree_from_text(perms.fs_tree_to_text(None)) is None


def test_parking_tree_copies_and_pickles_past_the_recursion_limit():
    """A copy or a pickle of a 10,000-vertex path went through the nested
    root and raised RecursionError; it now goes through the tree's text."""
    tree = parking.dfs_tree((1,) + tuple(range(1, 10000)))
    for twin in (copy.copy(tree), copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
        assert twin == tree and twin.n == 10000
