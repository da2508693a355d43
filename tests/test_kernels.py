"""Kernel constructors, Gram matrices, positivity and Schwarz checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setkern import (
    AbsoluteContinuityError,
    InvalidOperatorError,
    MeasurableSet,
    MeasureSpace,
    SetKernel,
    counting_kernel,
    gram,
    green_kernel,
    operator_kernel,
    rank_one_kernel,
    realize,
    wiener_kernel,
)
from setkern.linalg import Spectrum, Verdict, numerical_rank, selfadjoint_defect
from support import (
    kernel_value_by_lists,
    random_conductance_chain,
    random_nu_psd_matrix,
    random_operator_kernel,
    random_sets,
    random_space,
)


@pytest.fixture
def space():
    return MeasureSpace(("a", "b", "c"), (1.0, 2.0, 0.5))


def brute_force_operator_value(space, M, A, B):
    """Independent oracle: explicit double sum of w(x) M[x,y]."""
    total = 0.0
    for x in A.indices:
        for y in B.indices:
            total += space.weights[x] * M[x, y]
    return total


# ---------------------------------------------------------------------------
# wiener kernel


def test_wiener_overlap(space):
    k = wiener_kernel(space)
    assert k(space.subset("a", "b"), space.subset("b", "c")) == 2.0


def test_wiener_disjoint(space):
    k = wiener_kernel(space)
    assert k(space.subset("a"), space.subset("c")) == 0.0


def test_wiener_diagonal_is_measure(space):
    k = wiener_kernel(space)
    A = space.subset("a", "b")
    assert k(A, A) == 3.0


# ---------------------------------------------------------------------------
# rank-one kernel


def test_rank_one_product():
    sp = MeasureSpace(("a", "b", "c"), (0.5, 0.3, 0.2))
    k = rank_one_kernel(sp)
    assert k(sp.subset("a"), sp.subset("b", "c")) == pytest.approx(0.25)


def test_rank_one_empty_set(space):
    k = rank_one_kernel(space)
    assert k(MeasurableSet(frozenset()), space.subset("a")) == 0.0


def test_rank_one_gram_has_rank_one(space):
    k = rank_one_kernel(space)
    g = gram(k, space.singletons())
    assert numerical_rank(g.entries) == 1


def test_rank_one_second_eigenvalue_negligible():
    rng = np.random.default_rng(5)
    sp = random_space(rng, 6)
    k = rank_one_kernel(sp)
    for m in range(2, 9):
        g = gram(k, random_sets(rng, sp, m))
        ev = np.sort(np.abs(np.linalg.eigvalsh(g.entries)))
        assert ev[-2] <= 1e-10 * np.abs(g.entries).max()


# ---------------------------------------------------------------------------
# operator kernel


def test_identity_operator_matches_wiener(space):
    rng = np.random.default_rng(0)
    k_id = operator_kernel(space, np.eye(3))
    k_w = wiener_kernel(space)
    for A, B in zip(random_sets(rng, space, 20), random_sets(rng, space, 20)):
        assert k_id(A, B) == pytest.approx(k_w(A, B), abs=1e-12)


def test_scalar_operator():
    sp = MeasureSpace(("a", "b", "c"), (1.0, 1.0, 1.0))
    k = operator_kernel(sp, 2.0 * np.eye(3))
    assert k(sp.subset("a"), sp.subset("a")) == pytest.approx(2.0)


def test_operator_value_matches_brute_force(space):
    rng = np.random.default_rng(1)
    B = rng.standard_normal((3, 3))
    S = B.T @ B
    d = np.sqrt(space.weight_array)
    M = (S / d[:, None]) * d[None, :]
    k = operator_kernel(space, M)
    A, Bset = space.subset("a", "b"), space.subset("b")
    assert k(A, Bset) == pytest.approx(brute_force_operator_value(space, M, A, Bset), abs=1e-12)


def test_operator_rejects_unbalanced_matrix(space):
    M = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(InvalidOperatorError):
        operator_kernel(space, M)


def test_operator_rejects_indefinite_matrix():
    sp = MeasureSpace(("a", "b"), (1.0, 1.0))
    with pytest.raises(InvalidOperatorError):
        operator_kernel(sp, np.diag([1.0, -1.0]))


# Indefinite (eigenvalues 3e-12 and -1e-12) at a scale far below one.
TINY_INDEFINITE = np.array([[1e-12, 2e-12], [2e-12, 1e-12]])


def test_operator_rejects_an_indefinite_matrix_at_any_scale():
    with pytest.raises(InvalidOperatorError, match="indefinite"):
        operator_kernel(MeasureSpace(("a", "b"), (1.0, 1.0)), TINY_INDEFINITE)


def test_positivity_is_relative_to_the_gram_scale():
    sp = MeasureSpace(("a", "b"), (1.0, 1.0))
    tiny = SetKernel(sp, sp.weight_array[:, None] * TINY_INDEFINITE)
    assert not gram(tiny, list(sp.singletons())).psd(1e-10).passed
    assert gram(SetKernel(sp, 1e-12 * np.eye(2)), list(sp.singletons())).psd(1e-10).passed


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_operator_rejects_nonfinite_matrix(space, entry):
    M = np.eye(3)
    M[0, 0] = entry
    with pytest.raises(InvalidOperatorError):
        operator_kernel(space, M)


def test_a_weighted_product_that_overflows_is_out_of_range():
    # w(x) M[x,y] = 1e400 was judged as a selfadjointness defect of nan against inf, and w w^T
    # printed numpy's overflow warning before "atom Gram entries must be finite"
    space = MeasureSpace(("a", "b"), (1.0e200, 1.0))
    with pytest.raises(InvalidOperatorError) as err:
        operator_kernel(space, [[1.0e200, 0.0], [0.0, 1.0]])
    assert str(err.value) == "w(x) M[x,y] is out of range at x='a', y='a': it overflows"
    with pytest.raises(InvalidOperatorError) as err:
        rank_one_kernel(space)
    assert str(err.value) == "w(x) w(y) is out of range at x='a', y='a': it overflows"
    assert rank_one_kernel(MeasureSpace(("a", "b"), (1.0e150, 1.0))).Q[0, 0] == 1.0e150 * 1.0e150


def test_a_density_that_overflows_is_out_of_range():
    # T = Q / w was 1e320 at a subnormal weight: numpy's overflow warning, then a nonfinite T
    space = MeasureSpace(("a", "b"), (1.0e-320, 1.0))
    message = "T = Q / w(x) is out of range at x='a', whose weight is 1e-320: it overflows"
    with pytest.raises(InvalidOperatorError) as err:
        counting_kernel(space)
    assert str(err.value) == message
    with pytest.raises(InvalidOperatorError) as err:
        SetKernel(space, np.eye(2)).T
    assert str(err.value) == message
    # the weight itself is fine: w(x) / w(x) is 1
    assert np.array_equal(wiener_kernel(space).T, np.eye(2))


def test_a_spectrum_past_the_float_range_is_out_of_range():
    # the symmetrization Ms + Ms.T overflowed, and the kernel read as "indefinite: -lambda_min nan"
    with pytest.raises(InvalidOperatorError) as err:
        operator_kernel(MeasureSpace(("a", "b"), (1.0, 1.0)), [[1.0e308, 1.0e308], [1.0e308, 1.0e308]])
    assert str(err.value) == "matrix is out of range: its eigenvalues leave the float range, lambda_max = inf"


@pytest.mark.parametrize("zero_atoms", [0, 2])
def test_a_spectrum_is_the_eigh_of_its_positive_block_to_the_bit(zero_atoms):
    # the block is gathered only when some weight is zero
    rng = np.random.default_rng(zero_atoms)
    space = random_space(rng, 12, zero_atoms)
    M, w = random_nu_psd_matrix(rng, space), space.weight_array
    pos = w > 0
    d = np.sqrt(w[pos])
    Ms = (d[:, None] * M[np.ix_(pos, pos)]) / d[None, :]
    values, vectors = np.linalg.eigh(0.5 * Ms + 0.5 * Ms.T)
    spec = Spectrum.of(M, w)
    assert spec.values.tobytes() == values.tobytes() and spec.vectors.tobytes() == vectors.tobytes()


def test_a_selfadjoint_defect_past_the_float_range_reads_inf():
    # numpy printed "overflow encountered in subtract" on the way to the same inf
    M = np.array([[1.0, 1.0e308], [-1.0e308, 1.0]])
    assert selfadjoint_defect(M, np.ones(2)) == (np.inf, 1.0e308)
    with pytest.raises(InvalidOperatorError) as err:
        operator_kernel(MeasureSpace(("a", "b"), (1.0, 1.0)), M)
    assert str(err.value) == "matrix is not selfadjoint in the weighted geometry: defect inf > 1e-10 × max|wM| = 1.000e+308"


# ---------------------------------------------------------------------------
# atom Gram


def test_atom_gram_is_the_singleton_kernel(space):
    Q = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 1.0]])
    k = SetKernel(space, Q)
    assert k(space.subset("b"), space.subset("c")) == 0.5
    assert k(space.subset("a", "b"), space.subset("b", "c")) == 1.0 + 0.0 + 3.0 + 0.5


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_atom_gram_rejects_nonfinite_entries(space, entry):
    Q = np.eye(3)
    Q[1, 2] = entry
    with pytest.raises(InvalidOperatorError):
        SetKernel(space, Q)


def test_atom_gram_rejects_wrong_shape(space):
    with pytest.raises(InvalidOperatorError):
        SetKernel(space, np.eye(2))


def test_atom_gram_is_read_only(space):
    k = wiener_kernel(space)
    with pytest.raises(ValueError):
        k.Q[0, 0] = 5.0


# ---------------------------------------------------------------------------
# gram


def test_gram_disjoint_singletons(space):
    g = gram(wiener_kernel(space), [space.subset("a"), space.subset("b")])
    np.testing.assert_allclose(g.entries, np.diag([1.0, 2.0]))


def test_gram_nested_sets(space):
    g = gram(wiener_kernel(space), [space.subset("a"), space.subset("a", "b")])
    np.testing.assert_allclose(g.entries, [[1.0, 1.0], [1.0, 3.0]])


def test_gram_is_symmetric(space):
    rng = np.random.default_rng(2)
    k = random_operator_kernel(rng, space)
    g = gram(k, random_sets(rng, space, 6))
    np.testing.assert_allclose(g.entries, g.entries.T)


def test_a_gram_near_the_float_range_is_symmetrized_by_halves():
    # G + G.T overflowed at w = 1e308 before it was halved: numpy's warning, and an entry of inf
    space = MeasureSpace(("a", "b"), (1.0e308, 1.0))
    g = gram(wiener_kernel(space), space.singletons())
    assert np.array_equal(g.entries, np.diag([1.0e308, 1.0])) and g.asymmetry == 0.0


# ---------------------------------------------------------------------------
# positivity and Schwarz


def test_wiener_is_positive_definite(space):
    rng = np.random.default_rng(3)
    family = list(space.singletons()) + random_sets(rng, space, 5)
    assert gram(wiener_kernel(space), family).psd(1e-10).passed


def test_negative_kernel_fails_positivity(space):
    neg = SetKernel(space, -np.diag(space.weight_array), kind="negative")
    assert not gram(neg, [space.subset("a")]).psd(1e-10).passed


def test_a_verdict_has_no_truth_value(space):
    # as a non-empty tuple a verdict was always true: `assert check(...)` passed a failing check
    failing = gram(SetKernel(space, -np.diag(space.weight_array)), [space.subset("a")]).psd(1e-10)
    for verdict in (failing, Verdict(0.0, 1.0, True)):
        with pytest.raises(TypeError, match=r"\.passed"):
            bool(verdict)
        with pytest.raises(TypeError):
            assert verdict
    assert not failing.passed


def test_rank_one_is_positive_definite(space):
    rng = np.random.default_rng(4)
    family = random_sets(rng, space, 6)
    assert gram(rank_one_kernel(space), family).psd(1e-10).passed


def test_counting_kernel_is_positive_definite():
    sp = MeasureSpace(("a", "b", "c"), (1.0, 1.0, 0.0))
    assert gram(counting_kernel(sp), list(sp.singletons())).psd(1e-10).passed


def test_schwarz_on_wiener(space):
    # K(A,B)^2 = 4 against K(A,A) K(B,B) = 3 * 2.5.
    assert gram(wiener_kernel(space), [space.subset("a", "b"), space.subset("b", "c")]).schwarz(1e-10).passed


def test_schwarz_equality_case(space):
    A = space.subset("a", "b")
    assert gram(wiener_kernel(space), [A, A]).schwarz(1e-10).passed


def test_schwarz_rank_one_saturates(space):
    rng = np.random.default_rng(6)
    k = rank_one_kernel(space)
    for A, B in zip(random_sets(rng, space, 10), random_sets(rng, space, 10)):
        assert gram(k, [A, B]).schwarz(1e-10).passed
        assert k(A, B) ** 2 == pytest.approx(k(A, A) * k(B, B), rel=1e-12)


# ---------------------------------------------------------------------------
# shared kernel properties


def _kernel_zoo(rng, sp):
    return [wiener_kernel(sp), rank_one_kernel(sp), random_operator_kernel(rng, sp)]


def test_symmetry_randomized():
    rng = np.random.default_rng(7)
    sp = random_space(rng, 5)
    for k in _kernel_zoo(rng, sp):
        for _ in range(1000):
            A, B = random_sets(rng, sp, 2)
            assert abs(k(A, B) - k(B, A)) <= 1e-12


def test_biadditivity_over_disjoint_unions():
    rng = np.random.default_rng(8)
    sp = random_space(rng, 6)
    for k in _kernel_zoo(rng, sp):
        for _ in range(200):
            B = random_sets(rng, sp, 1)[0]
            C = random_sets(rng, sp, 1)[0]
            A1 = C
            A2 = random_sets(rng, sp, 1)[0] - C
            lhs = k(A1 | A2, B)
            rhs = k(A1, B) + k(A2, B)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_null_diagonal_forces_null_row():
    # A set with K(A,A) == 0 cannot pair with anything (Schwarz consequence).
    rng = np.random.default_rng(9)
    sp = MeasureSpace(("a", "b", "c", "z"), (1.0, 2.0, 0.5, 0.0))
    null = sp.subset("z")
    for k in _kernel_zoo(rng, sp):
        assert k(null, null) == 0.0
        for B in random_sets(rng, sp, 50):
            assert abs(k(null, B)) <= 1e-12


# ---------------------------------------------------------------------------
# every route to a kernel value agrees on every pair of sets


KINDS = ("atom_gram", "wiener", "rank_one", "operator", "counting", "green")

DEFINITIONS = {
    "wiener": lambda sp, A, B: sp.measure(A & B),
    "rank_one": lambda sp, A, B: sp.measure(A) * sp.measure(B),
    "counting": lambda sp, A, B: float(len(A & B)),
}


@st.composite
def small_kernels(draw):
    """A builtin kernel, or a random PSD atom Gram, on at most 5 atoms."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(min_value=1, max_value=5))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "green":
        return green_kernel(random_conductance_chain(rng, n))
    space = random_space(rng, n, zero_atoms=int(n > 1 and draw(st.booleans())))
    if kind == "atom_gram":
        B = rng.standard_normal((n, n)) * space.positive[:, None]
        return SetKernel(space, B @ B.T)
    if kind == "operator":
        return operator_kernel(space, random_nu_psd_matrix(rng, space))
    return {"wiener": wiener_kernel, "rank_one": rank_one_kernel, "counting": counting_kernel}[kind](space)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 64), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_a_kernel_value_is_the_sum_of_its_atom_block_to_the_bit(n, seed, pa, pb):
    # the value takes rows, then columns of Q; the same block and the same sum as an np.ix_ block
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    kernel = SetKernel(random_space(rng, n), B @ B.T)
    A, C = (MeasurableSet(frozenset(np.flatnonzero(rng.random(n) < p).tolist())) for p in (pa, pb))
    block_sum = float(kernel.Q[np.ix_(A.indices, C.indices)].sum())
    assert np.float64(kernel(A, C)).tobytes() == np.float64(block_sum).tobytes()
    # and the gather by each set's index array is the gather by two sorted lists
    assert np.float64(kernel(A, C)).tobytes() == np.float64(kernel_value_by_lists(kernel, A, C)).tobytes()


@settings(max_examples=60, deadline=None)
@given(small_kernels())
def test_kernel_gram_and_realization_agree_on_all_sets(kernel):
    sp = kernel.space
    n = sp.size
    sets = [MeasurableSet(frozenset(i for i in range(n) if mask >> i & 1)) for mask in range(2**n)]
    direct = np.array([[kernel(A, B) for B in sets] for A in sets])
    scale = max(1.0, float(np.abs(direct).max()))
    assert np.abs(gram(kernel, sets).entries - direct).max() <= 1e-12 * scale
    if kernel.kind in DEFINITIONS:
        defined = np.array([[DEFINITIONS[kernel.kind](sp, A, B) for B in sets] for A in sets])
        assert np.abs(defined - direct).max() <= 1e-12 * scale
    if kernel.kind == "counting" and not sp.positive.all():
        with pytest.raises(AbsoluteContinuityError):
            realize(kernel)
        return
    fact = realize(kernel)
    kvecs = fact.k_rows(sets)
    inner = kvecs @ (sp.weight_array[:, None] * kvecs.T)
    assert np.abs(inner - direct).max() <= 1e-8 * scale
