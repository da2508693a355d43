"""Measure space, sets, simple functions, partitions."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setkern import (
    DomainError,
    InvalidSetError,
    MeasurableSet,
    MeasureSpace,
    Partition,
    SimpleFunction,
    is_partition,
    is_refinement,
)
from support import enumerate_partitions, indicator_matrix_by_set


@pytest.fixture
def space():
    return MeasureSpace(("a", "b", "c"), (1.0, 2.0, 0.5))


# ---------------------------------------------------------------------------
# construction invariants


def test_weights_must_be_nonnegative():
    with pytest.raises(DomainError):
        MeasureSpace(("a",), (-1.0,))


def test_some_weight_must_be_positive():
    with pytest.raises(DomainError):
        MeasureSpace(("a", "b"), (0.0, 0.0))


def test_atoms_must_be_unique():
    with pytest.raises(DomainError):
        MeasureSpace(("a", "a"), (1.0, 1.0))


def test_zero_weight_atoms_are_allowed():
    sp = MeasureSpace(("a", "b"), (1.0, 0.0))
    assert sp.measure(sp.subset("b")) == 0.0


# ---------------------------------------------------------------------------
# measure


def test_measure_sums_weights(space):
    assert space.measure(space.subset("a", "b")) == 3.0


def test_measure_empty_set(space):
    assert space.measure(MeasurableSet(frozenset())) == 0.0


def test_measure_full_space():
    sp = MeasureSpace(("a", "b", "c"), (1.0, 1.0, 1.0))
    assert sp.measure(sp.full_set()) == 3.0


def test_measure_rejects_out_of_range(space):
    with pytest.raises(InvalidSetError):
        space.measure(MeasurableSet(frozenset({7})))


def test_a_set_holds_its_members_as_a_sorted_read_only_index_array(space):
    A = MeasurableSet(frozenset({9, 0, 4, 2}))
    assert A.index_array.dtype == np.intp and A.index_array.tolist() == A.indices == [0, 2, 4, 9]
    assert A.index_array is A.index_array and not A.index_array.flags.writeable
    assert MeasurableSet(frozenset()).index_array.shape == (0,)
    assert A == MeasurableSet(frozenset({0, 2, 4, 9})) and hash(A) == hash(MeasurableSet(frozenset({0, 2, 4, 9})))
    with pytest.raises(InvalidSetError, match="set references atom index 9 in a space of size 3"):
        space.validate_set(A)


def test_an_index_no_array_can_hold_is_rejected_with_the_set():
    # the set was made, and indicator_matrix and the kernel value raised OverflowError on it
    with pytest.raises(InvalidSetError, match=f"atom index {2**63} is beyond any measure space"):
        MeasurableSet(frozenset({0, 2**63}))
    assert MeasurableSet(frozenset({2**63 - 1})).index_array.tolist() == [2**63 - 1]


# ---------------------------------------------------------------------------
# weighted inner product


def l2(sp, f, g):
    """Weighted L2 pairing of two simple functions."""
    return sp.inner(f.values(sp.size), g.values(sp.size))


def test_inner_of_indicator_is_measure(space):
    f = SimpleFunction(((1.0, space.subset("a")),))
    assert l2(space, f, f) == 1.0


def test_inner_disjoint_supports_vanishes(space):
    f = SimpleFunction(((1.0, space.subset("a")),))
    g = SimpleFunction(((1.0, space.subset("b")),))
    assert l2(space, f, g) == 0.0


def test_inner_weighted_expansion(space):
    # f = chi_a + 2 chi_b against chi_{a,b}: 1*1*1 + 2*1*2 = 5.
    f = SimpleFunction(((1.0, space.subset("a")), (2.0, space.subset("b"))))
    g = SimpleFunction(((1.0, space.subset("a", "b")),))
    assert l2(space, f, g) == pytest.approx(5.0, abs=1e-12)


def test_inner_rejects_foreign_function(space):
    f = SimpleFunction(((1.0, MeasurableSet(frozenset({5}))),))
    with pytest.raises(InvalidSetError):
        l2(space, f, f)


# ---------------------------------------------------------------------------
# partitions


def test_singleton_partition(space):
    assert is_partition(space, space.singletons())


def test_overlapping_blocks_rejected(space):
    assert not is_partition(space, [space.subset("a", "b"), space.subset("b", "c")])


def test_non_covering_blocks_rejected():
    sp = MeasureSpace(("a", "b"), (1.0, 1.0))
    assert not is_partition(sp, [sp.subset("a")])


def test_refinement_by_singletons(space):
    coarse = Partition((space.full_set(),))
    fine = Partition(space.singletons())
    assert is_refinement(coarse, fine)


def test_refinement_is_reflexive(space):
    p = Partition((space.subset("a"), space.subset("b", "c")))
    assert is_refinement(p, p)


def test_refinement_counterexample(space):
    coarse = Partition((space.subset("a"), space.subset("b", "c")))
    fine = Partition((space.subset("a", "b"), space.subset("c")))
    assert not is_refinement(coarse, fine)


def test_refinement_rejects_mismatched_coverage(space):
    p = Partition((space.full_set(),))
    q = Partition((space.subset("a"),))
    with pytest.raises(DomainError):
        is_refinement(p, q)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_refinement_is_a_partial_order(n):
    # Exhaustive over all set partitions: reflexive, antisymmetric up to
    # block reordering, transitive.
    sp = MeasureSpace(tuple(f"x{i}" for i in range(n)), (1.0,) * n)
    parts = [
        Partition(tuple(MeasurableSet(b) for b in blocks))
        for blocks in enumerate_partitions(n)
    ]
    m = len(parts)
    R = np.zeros((m, m), dtype=bool)
    for i in range(m):
        for j in range(m):
            R[i, j] = is_refinement(parts[i], parts[j])
    assert np.all(np.diag(R))
    for i in range(m):
        for j in range(m):
            if i != j and R[i, j] and R[j, i]:
                assert set(parts[i].blocks) == set(parts[j].blocks)
    # transitive closure stays inside the relation
    assert not np.any((R @ R) & ~R)


# ---------------------------------------------------------------------------
# property tests


@st.composite
def spaces(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    weights = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
            min_size=n,
            max_size=n,
        ).filter(lambda ws: any(w > 0 for w in ws))
    )
    return MeasureSpace(tuple(f"x{i}" for i in range(n)), tuple(weights))


@st.composite
def space_and_disjoint_sets(draw):
    sp = draw(spaces())
    labels = draw(st.lists(st.integers(0, 2), min_size=sp.size, max_size=sp.size))
    A = MeasurableSet(frozenset(i for i, l in enumerate(labels) if l == 0))
    B = MeasurableSet(frozenset(i for i, l in enumerate(labels) if l == 1))
    return sp, A, B


@given(space_and_disjoint_sets())
def test_measure_additive_over_disjoint_unions(data):
    sp, A, B = data
    assert sp.measure(A | B) == pytest.approx(sp.measure(A) + sp.measure(B), abs=1e-12)


@st.composite
def space_and_two_functions(draw):
    sp = draw(spaces())
    coefs = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)

    def fn():
        k = draw(st.integers(1, 3))
        terms = []
        for _ in range(k):
            members = draw(st.frozensets(st.integers(0, sp.size - 1)))
            terms.append((draw(coefs), MeasurableSet(members)))
        return SimpleFunction(tuple(terms))

    return sp, fn(), fn()


CS_SPACE = MeasureSpace(("x0", "x1", "x2", "x3"), (0.0, 0.0, 2.0, 2.2215))
CS_FULL = CS_SPACE.full_set()


@settings(max_examples=200)
@given(space_and_two_functions())
# parallel f and g: the sides are equal up to roundoff, and lhs - rhs = 2.7e-12 broke an absolute 1e-12 margin
@example((CS_SPACE, SimpleFunction(((-1.94, CS_FULL), (-2.243, CS_FULL), (-2.966, CS_FULL))),
          SimpleFunction(((-2.79, CS_FULL),))))
def test_cauchy_schwarz(data):
    sp, f, g = data
    lhs = l2(sp, f, g) ** 2
    rhs = l2(sp, f, f) * l2(sp, g, g)
    assert lhs <= rhs * (1 + 1e-12) + 1e-12


@given(space_and_two_functions())
def test_inner_is_symmetric(data):
    sp, f, g = data
    assert l2(sp, f, g) == pytest.approx(l2(sp, g, f), abs=1e-12)


@st.composite
def space_and_sets(draw):
    sp = draw(spaces())
    members = draw(st.lists(st.frozensets(st.integers(0, sp.size - 1)), max_size=8))
    return sp, [MeasurableSet(m) for m in members]


@given(space_and_sets())
@example((MeasureSpace(("x0",), (1.0,)), []))
@example((MeasureSpace(("x0", "x1"), (1.0, 0.0)), [MeasurableSet(frozenset())] * 3))
def test_indicator_matrix_is_the_per_set_build(data):
    sp, sets = data
    C, expected = sp.indicator_matrix(sets), indicator_matrix_by_set(sp, sets)
    assert (C.dtype, C.shape) == (expected.dtype, expected.shape)
    assert C.tobytes() == expected.tobytes()


@given(space_and_sets(), st.integers(0, 8), st.integers(0, 3))
def test_indicator_matrix_names_the_first_set_out_of_range(data, at, beyond):
    sp, sets = data
    # two bad sets, the first with the smaller index: the message must name the first, not the largest index
    sets.insert(min(at, len(sets)), MeasurableSet(frozenset({0, sp.size + beyond})))
    sets.append(MeasurableSet(frozenset({sp.size + beyond + 1})))
    with pytest.raises(InvalidSetError) as expected:
        indicator_matrix_by_set(sp, sets)
    with pytest.raises(InvalidSetError) as raised:
        sp.indicator_matrix(sets)
    assert str(raised.value) == str(expected.value)
    assert f"atom index {sp.size + beyond} " in str(raised.value)
