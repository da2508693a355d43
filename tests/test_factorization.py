"""Realization engine: densities, operator assembly, square roots, isometries."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setkern import (
    AbsoluteContinuityError,
    DomainError,
    Factorization,
    InvalidBasisError,
    MarkovChain,
    MeasurableSet,
    MeasureSpace,
    NotPositiveError,
    SetKernel,
    SetKernError,
    VerificationError,
    b_range_dimension,
    build_T,
    check_absolute_continuity,
    check_realization,
    coisometry_b_star,
    counting_kernel,
    export_factorization,
    gram,
    green_kernel,
    green_root,
    isometry_b,
    onb_factorization,
    operator_kernel,
    rank_one_kernel,
    realize,
    reverse_direction,
    wiener_kernel,
    write_factorization,
)
from setkern.config import load_config
from setkern.linalg import Spectrum, numerical_rank, psd_sqrt
from support import (
    random_nu_psd_matrix,
    random_operator_kernel,
    random_sets,
    random_simple_function,
    random_space,
)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def space():
    return MeasureSpace(("a", "b", "c"), (1.0, 2.0, 0.5))


@pytest.fixture
def null_space():
    return MeasureSpace(("a", "b", "c"), (1.0, 1.0, 0.0))


def nu_orthonormal_bases(rng, space):
    """Two distinct complete orthonormal bases of the weighted L2 space."""
    w = space.weight_array
    pos = np.flatnonzero(space.positive)
    singleton_basis = []
    for i in pos:
        v = np.zeros(space.size)
        v[i] = 1.0 / np.sqrt(w[i])
        singleton_basis.append(v)
    Q, _ = np.linalg.qr(rng.standard_normal((len(pos), len(pos))))
    rotated = []
    for j in range(len(pos)):
        v = np.zeros(space.size)
        v[pos] = Q[:, j] / np.sqrt(w[pos])
        rotated.append(v)
    return singleton_basis, rotated


# ---------------------------------------------------------------------------
# absolute continuity


def test_wiener_has_no_violations(null_space):
    assert check_absolute_continuity(wiener_kernel(null_space)).passed


def test_counting_kernel_charges_null_atom(null_space):
    verdict = check_absolute_continuity(counting_kernel(null_space), [null_space.subset("c")])
    assert not verdict.passed
    assert verdict.value == 1.0


def test_rank_one_has_no_violations(null_space):
    assert check_absolute_continuity(rank_one_kernel(null_space)).passed


# ---------------------------------------------------------------------------
# densities


def test_wiener_density_is_indicator(space):
    B = space.subset("b", "c")
    np.testing.assert_allclose(build_T(wiener_kernel(space)) @ space.indicator(B), space.indicator(B))


def test_rank_one_density_is_constant():
    sp = MeasureSpace(("a", "b", "c"), (0.5, 0.3, 0.2))  # total mass one
    B = sp.subset("a", "b")
    g = build_T(rank_one_kernel(sp)) @ sp.indicator(B)
    np.testing.assert_allclose(g, sp.measure(B) * np.ones(3), atol=1e-12)


def test_operator_density_applies_the_matrix(space):
    rng = np.random.default_rng(0)
    M = random_nu_psd_matrix(rng, space)
    k = operator_kernel(space, M)
    B = space.subset("b", "c")
    np.testing.assert_allclose(
        build_T(k) @ space.indicator(B), M @ space.indicator(B), atol=1e-12
    )


def test_density_reconstructs_kernel_by_weighted_sums(space):
    rng = np.random.default_rng(1)
    k = random_operator_kernel(rng, space)
    for B in random_sets(rng, space, 10):
        g = build_T(k) @ space.indicator(B)
        for A in random_sets(rng, space, 10):
            recon = float(np.sum(space.weight_array * space.indicator(A) * g))
            assert recon == pytest.approx(k(A, B), abs=1e-10)


def test_density_refuses_charged_null_atom(null_space):
    with pytest.raises(AbsoluteContinuityError):
        build_T(counting_kernel(null_space)) @ null_space.indicator(null_space.subset("c"))


# ---------------------------------------------------------------------------
# operator assembly and square root


def test_build_T_wiener_is_identity_on_positive_atoms(null_space):
    T = build_T(wiener_kernel(null_space))
    np.testing.assert_allclose(T, np.diag([1.0, 1.0, 0.0]), atol=1e-14)


def test_build_T_rank_one_rows_are_the_weights():
    sp = MeasureSpace(("a", "b", "c"), (0.5, 0.3, 0.2))
    T = build_T(rank_one_kernel(sp))
    np.testing.assert_allclose(T, np.tile([0.5, 0.3, 0.2], (3, 1)), atol=1e-14)


def test_build_T_reproduces_kernel_on_sets(space):
    rng = np.random.default_rng(2)
    k = random_operator_kernel(rng, space)
    T = build_T(k)
    w = space.weight_array
    for A, B in zip(random_sets(rng, space, 20), random_sets(rng, space, 20)):
        lhs = float(space.indicator(A) @ (w[:, None] * T) @ space.indicator(B))
        assert lhs == pytest.approx(k(A, B), abs=1e-10)


def test_build_T_rejects_charged_null_atom(null_space):
    with pytest.raises(AbsoluteContinuityError):
        build_T(counting_kernel(null_space))


def test_build_T_rejects_indefinite_kernel(space):
    neg = SetKernel(space, -np.diag(space.weight_array), kind="negative")
    with pytest.raises(NotPositiveError):
        build_T(neg)


def test_sqrt_of_identity(space):
    np.testing.assert_allclose(psd_sqrt(Spectrum.of(np.eye(3), space.weight_array)), np.eye(3), atol=1e-14)


def test_sqrt_of_diagonal():
    sp = MeasureSpace(("a", "b"), (1.0, 1.0))
    R = psd_sqrt(Spectrum.of(np.diag([4.0, 9.0]), sp.weight_array))
    np.testing.assert_allclose(R, np.diag([2.0, 3.0]), atol=1e-12)


def test_sqrt_reconstructs_random_matrix():
    rng = np.random.default_rng(3)
    sp = random_space(rng, 6)
    T = random_nu_psd_matrix(rng, sp)
    R = psd_sqrt(Spectrum.of(T, sp.weight_array))
    assert np.abs(R @ R - T).max() <= 1e-9
    # nu-selfadjoint: w(x) R[x,y] == w(y) R[y,x]
    WR = sp.weight_array[:, None] * R
    assert np.abs(WR - WR.T).max() <= 1e-10


def test_sqrt_rejects_indefinite(space):
    with pytest.raises(NotPositiveError):
        Spectrum.of(np.diag([1.0, -1.0, 1.0]), space.weight_array).certify(1e-8, NotPositiveError, "matrix")


# ---------------------------------------------------------------------------
# realize: the forward direction


def test_realize_wiener_gives_indicators(space):
    fact = realize(wiener_kernel(space))
    sets = [space.subset("a"), space.subset("a", "c"), space.full_set()]
    np.testing.assert_allclose(fact.k_rows(sets), space.indicator_matrix(sets), atol=1e-12)


def test_realize_rank_one_gives_constant_vectors():
    sp = MeasureSpace(("a", "b", "c"), (0.5, 0.3, 0.2))
    fact = realize(rank_one_kernel(sp))
    A = sp.subset("a", "c")
    np.testing.assert_allclose(fact.k_rows([A])[0], sp.measure(A) * np.ones(3), atol=1e-12)


def test_realize_reproduces_kernel_exhaustively():
    # Every subset pair of an 8-atom space, vectorized over indicators.
    rng = np.random.default_rng(4)
    sp = random_space(rng, 8)
    M = random_nu_psd_matrix(rng, sp)
    fact = realize(operator_kernel(sp, M))
    n = sp.size
    C = np.array(
        [[(mask >> i) & 1 for i in range(n)] for mask in range(2**n)], dtype=float
    )
    kvecs = C @ fact.S.T
    inner = kvecs @ (sp.weight_array[:, None] * kvecs.T)
    target = C @ (sp.weight_array[:, None] * M) @ C.T
    assert np.abs(inner - target).max() <= 1e-8


def test_realize_rejects_counting_kernel_on_null_space(null_space):
    with pytest.raises(AbsoluteContinuityError):
        realize(counting_kernel(null_space))


@pytest.mark.parametrize(
    "Q, error",
    [
        ([[-1.0, 0.0], [0.0, 1.0]], AbsoluteContinuityError),  # K(X,X) = -1 on a null atom
        ([[1e-11, 3e-3], [3e-3, 1e6]], AbsoluteContinuityError),  # K({x},{y}) = 3e-3 off the diagonal
        ([[0.0, 0.0], [0.5, 1.0]], VerificationError),  # a null column, which no row rule sees
    ],
)
def test_realize_refuses_a_kernel_its_root_does_not_reproduce(Q, error):
    # before it, each was realized with residual 0.0 and a wrong K on some pair of sets
    sp = MeasureSpace(("X", "Y"), (0.0, 1.0))
    with pytest.raises(error):
        realize(SetKernel(sp, np.array(Q)))


NUDGES = st.sampled_from([1e-11, -1e-11, 3e-3, -0.5, 1.0])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_realize_reproduces_every_pair_or_refuses(data):
    # atom Grams near valid ones on spaces with a null atom: X X^T, its null rows and
    # columns cleared or not, and up to two entries nudged
    n = data.draw(st.integers(2, 5))
    w = data.draw(
        st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0]), min_size=n, max_size=n).filter(
            lambda w: 0.0 in w and any(w)
        )
    )
    sp = MeasureSpace(tuple(f"x{i}" for i in range(n)), tuple(w))
    X = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n * n, max_size=n * n))).reshape(n, n)
    keep = np.where(sp.positive, 1.0, 0.0)
    rows = keep if data.draw(st.booleans()) else np.ones(n)
    cols = keep if data.draw(st.booleans()) else np.ones(n)
    Q = rows[:, None] * (X @ X.T) * cols[None, :]
    entries = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), NUDGES)
    for i, j, value in data.draw(st.lists(entries, max_size=2)):
        Q[i, j] += value
    try:
        fact = realize(SetKernel(sp, Q))
    except SetKernError:
        return
    C = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(float)
    kvecs = fact.k_rows([MeasurableSet(frozenset(np.flatnonzero(row))) for row in C])
    inner = kvecs @ (sp.weight_array[:, None] * kvecs.T)
    assert np.abs(inner - C @ Q @ C.T).max() <= n * n * 1e-8


def test_check_realization_fails_an_asymmetric_Q_the_symmetrized_gram_passes(space):
    # the root of the kernel's spectrum realizes the symmetric part of Q, half the nudge off Q on either side;
    # the Gram symmetrized by halves compares with that part and passes
    Q = np.diag(space.weight_array)
    Q[0, 1] += 0.003
    kernel = SetKernel(space, Q)
    S = psd_sqrt(kernel.spectrum)
    family = [*space.singletons(), space.subset("a", "b"), space.subset("b", "c"), space.full_set()]
    K = space.indicator_matrix(family) @ S.T
    symmetrized = gram(kernel, family)
    assert np.abs(K @ (space.weight_array[:, None] * K.T) - symmetrized.entries).max() <= 1e-8 * symmetrized.scale
    for sets in (None, family):
        verdict = check_realization(kernel, S, sets, tol=1e-8)
        assert not verdict.passed and verdict.value == pytest.approx(0.0015, rel=1e-9), sets
    with pytest.raises(VerificationError, match="singleton residual 1.500e-03"):
        realize(kernel)


def test_check_realization_passes_the_roots_of_the_package(space):
    chain = MarkovChain.from_conductances(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 0.5)], {"a": 0.25})
    sets = [*space.singletons(), space.subset("a", "c"), space.full_set()]
    for kernel, root in ((wiener_kernel(space), realize(wiener_kernel(space)).S),
                         (green_kernel(chain), green_root(chain))):
        for family in (None, sets, []):
            assert check_realization(kernel, root, family, tol=1e-10).passed, (kernel.kind, family)
    fact = realize(rank_one_kernel(space))
    assert check_realization(fact.kernel, fact.S, tol=1e-8).value == fact.residual


# ---------------------------------------------------------------------------
# reverse direction


def test_reverse_direction_wiener(space):
    fact = realize(wiener_kernel(space))
    verdict = reverse_direction(fact)
    assert verdict.passed and verdict.value <= 1e-12


def test_reverse_direction_rank_one():
    sp = MeasureSpace(("a", "b", "c"), (0.5, 0.3, 0.2))
    fact = realize(rank_one_kernel(sp))
    B = sp.subset("a", "b")
    recovered = fact.kernel.T @ sp.indicator(B)
    np.testing.assert_allclose(recovered, sp.measure(B) * np.ones(3), atol=1e-12)
    verdict = reverse_direction(fact)
    assert verdict.passed and verdict.value <= 1e-12


def test_reverse_direction_random_operator(space):
    rng = np.random.default_rng(5)
    fact = realize(random_operator_kernel(rng, space))
    verdict = reverse_direction(fact, random_sets(rng, space, 20))
    assert verdict.passed and verdict.value <= 1e-9


def test_reverse_direction_detects_tampering(space):
    # before it, reverse_direction compared T with itself and never read S
    fact = realize(wiener_kernel(space))
    for scale in (0.0, np.sqrt(2.0)):
        bad = Factorization(kernel=fact.kernel, S=scale * fact.S, residual=0.0)
        assert not reverse_direction(bad).passed


def test_reverse_direction_refuses_a_kernel_that_charges_a_null_atom(null_space):
    kernel = counting_kernel(null_space)
    with pytest.raises(AbsoluteContinuityError, match=r"null atom 'c': max_y \|K\(\{'c'\},\{y\}\)\| = 1\.000e\+00"):
        reverse_direction(Factorization(kernel=kernel, S=np.eye(3), residual=0.0))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_a_null_atom_the_kernel_does_not_charge_changes_no_verdict(n, seed):
    rng = np.random.default_rng(seed)
    kernel = random_operator_kernel(rng, random_space(rng, n))
    wider = MeasureSpace((*kernel.space.atoms, "null"), (*kernel.space.weights, 0.0))
    Q = np.zeros((n + 1, n + 1))
    Q[:n, :n] = kernel.Q
    padded = SetKernel(wider, Q)
    assert check_absolute_continuity(padded) == check_absolute_continuity(kernel)
    fact, padded_fact = realize(kernel), realize(padded)
    assert padded_fact.residual == fact.residual
    verdict, padded_verdict = reverse_direction(fact), reverse_direction(padded_fact)
    assert padded_verdict.passed == verdict.passed
    assert abs(padded_verdict.value - verdict.value) <= 1e-12 * verdict.bound
    Q[n, :n] = Q[:n, n] = 1e-3 * kernel.scale
    assert not check_absolute_continuity(SetKernel(wider, Q)).passed


# ---------------------------------------------------------------------------
# isometry and co-isometry


def _element(f):
    """The coefficient row and the sets of ``f``'s terms, an element ``sum_i alpha_i K(., A_i)``."""
    return np.array([c for c, _ in f.terms]), [A for _, A in f.terms]


def test_isometry_sends_kernel_sections_to_factors(space):
    fact = realize(wiener_kernel(space))
    A = space.subset("a", "b")
    np.testing.assert_allclose(isometry_b(fact, [[1.0]], [A])[0], space.indicator(A), atol=1e-12)


def test_isometry_of_zero_element(space):
    fact = realize(wiener_kernel(space))
    image = isometry_b(fact, np.zeros((1, 0)), [])  # no terms: a zero-column alpha
    assert image.shape == (1, 3)
    assert space.norm_squared(image[0]) == 0.0


def test_isometry_linearity_cancels_duplicates(space):
    fact = realize(wiener_kernel(space))
    A = space.subset("a")
    np.testing.assert_allclose(isometry_b(fact, [[1.0, -1.0]], [A, A])[0], np.zeros(3), atol=1e-15)


def test_isometry_preserves_norms(space):
    rng = np.random.default_rng(6)
    k = random_operator_kernel(rng, space)
    fact = realize(k)
    for _ in range(100):
        alpha, sets = _element(random_simple_function(rng, space))
        n2 = alpha @ gram(k, sets).entries @ alpha
        image = space.norm_squared(isometry_b(fact, alpha[None], sets)[0])
        assert abs(image - n2) <= 1e-9 * max(1.0, n2)


def test_coisometry_on_wiener(space):
    fact = realize(wiener_kernel(space))
    A, B = space.subset("a", "b"), space.subset("b", "c")
    assert coisometry_b_star(fact, space.indicator(B)[None], [A])[0, 0] == pytest.approx(2.0)


def test_coisometry_annihilates_orthogonal_complement():
    sp = MeasureSpace(("a", "b"), (1.0, 1.0))
    fact = realize(wiener_kernel(sp))
    phi = np.array([0.0, 1.0])
    assert coisometry_b_star(fact, phi[None], [sp.subset("a")])[0, 0] == 0.0


def test_adjoint_identity(space):
    rng = np.random.default_rng(7)
    k = random_operator_kernel(rng, space)
    fact = realize(k)
    for _ in range(100):
        phi = rng.standard_normal(space.size)
        alpha, sets = _element(random_simple_function(rng, space))
        lhs = coisometry_b_star(fact, phi[None], sets)[0] @ alpha
        rhs = space.inner(phi, isometry_b(fact, alpha[None], sets)[0])
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_reproducing_property_through_b(space):
    # b*(b K(.,A))(B) recovers K(A, B).
    rng = np.random.default_rng(8)
    k = random_operator_kernel(rng, space)
    fact = realize(k)
    for A, B in zip(random_sets(rng, space, 20), random_sets(rng, space, 20)):
        image = isometry_b(fact, [[1.0]], [A])
        assert coisometry_b_star(fact, image, [B])[0, 0] == pytest.approx(k(A, B), abs=1e-9)


def test_batch_rows_match_the_single_element_views():
    rng = np.random.default_rng(10)
    space = random_space(rng, 7, zero_atoms=1)
    fact = realize(random_operator_kernel(rng, space))
    sets = list(space.singletons()) + random_sets(rng, space, 5)
    alpha = rng.uniform(-2.0, 2.0, size=(40, len(sets)))
    phi = rng.standard_normal((40, space.size))
    images = isometry_b(fact, alpha, sets)
    adjoints = coisometry_b_star(fact, phi, sets)
    for a, image in zip(alpha, images):
        reference = fact.S @ (a @ space.indicator_matrix(sets))  # S applied to sum_i alpha_i chi_(A_i)
        for single in (reference, isometry_b(fact, a[None], sets)[0]):
            assert np.abs(image - single).max() <= 1e-12 * np.abs(single).max()
    for p, row in zip(phi, adjoints):
        reference = np.array([space.inner(p, k) for k in fact.k_rows(sets)])
        for single in (reference, [coisometry_b_star(fact, p[None], [A])[0, 0] for A in sets]):
            assert np.abs(row - single).max() <= 1e-12 * np.abs(reference).max()


def test_coisometry_rejects_vectors_of_the_wrong_size(space):
    fact = realize(wiener_kernel(space))
    with pytest.raises(DomainError):
        coisometry_b_star(fact, np.ones((1, 2)), [space.subset("a")])
    with pytest.raises(DomainError):
        coisometry_b_star(fact, np.ones(3), [space.subset("a")])


@pytest.mark.parametrize("alpha", [np.ones((1, 3)), np.ones(1), np.ones((2, 1)), 1.0])
def test_isometry_rejects_coefficients_that_are_not_one_per_set(space, alpha):
    # a last axis other than len(sets) ended in numpy's matmul ValueError
    fact = realize(wiener_kernel(space))
    with pytest.raises(DomainError, match="one entry per set"):
        isometry_b(fact, alpha, [space.subset("a"), space.subset("b")])


# ---------------------------------------------------------------------------
# Parseval expansions


def test_onb_recovers_wiener_kernel(space):
    rng = np.random.default_rng(9)
    fact = realize(wiener_kernel(space))
    basis, _ = nu_orthonormal_bases(rng, space)
    A, B = space.subset("a", "b"), space.subset("b", "c")
    assert onb_factorization(fact, basis, [A, B])[0, 1] == pytest.approx(2.0, abs=1e-12)


def test_onb_on_empty_set(space):
    rng = np.random.default_rng(10)
    fact = realize(wiener_kernel(space))
    basis, _ = nu_orthonormal_bases(rng, space)
    assert onb_factorization(fact, basis, [MeasurableSet(frozenset()), space.subset("a")])[0, 1] == 0.0


def test_onb_sum_is_basis_independent(space):
    rng = np.random.default_rng(11)
    k = random_operator_kernel(rng, space)
    fact = realize(k)
    basis1, basis2 = nu_orthonormal_bases(rng, space)
    for A, B in zip(random_sets(rng, space, 10), random_sets(rng, space, 10)):
        s1 = onb_factorization(fact, basis1, [A, B])[0, 1]
        s2 = onb_factorization(fact, basis2, [A, B])[0, 1]
        assert abs(s1 - s2) <= 1e-10 * max(1.0, abs(s1))
        assert s1 == pytest.approx(k(A, B), abs=1e-9)


def test_onb_rejects_non_orthonormal(space):
    fact = realize(wiener_kernel(space))
    with pytest.raises(InvalidBasisError):
        onb_factorization(fact, list(np.eye(3) * 2.0), [space.subset("a"), space.subset("b")])


def test_onb_rejects_a_basis_with_a_nan_entry():
    # a raw > let the NaN Gram through, and the expansions came back NaN
    sp = MeasureSpace(("a", "b"), (1.0, 1.0))
    fact = realize(wiener_kernel(sp))
    with pytest.raises(InvalidBasisError, match="not orthonormal"):
        onb_factorization(fact, [[1.0, np.nan], [np.nan, 0.71]], sp.singletons())


def test_onb_rejects_an_empty_basis(space):
    fact = realize(wiener_kernel(space))
    with pytest.raises(InvalidBasisError, match="empty basis"):
        onb_factorization(fact, [], [space.subset("a")])


def test_onb_rejects_incomplete_basis(space):
    fact = realize(wiener_kernel(space))
    v = np.array([1.0, 0.0, 0.0])
    with pytest.raises(InvalidBasisError):
        onb_factorization(fact, [v], [space.subset("a"), space.subset("b")])


@pytest.mark.parametrize("basis", [[[1.0, 0.0, 0.0], [0.0]], [1.0, 2.0, 0.5], [[[1.0, 0.0, 0.0]]]])
def test_onb_rejects_a_basis_that_is_not_one_vector_per_row(space, basis):
    # a ragged basis ended in numpy's inhomogeneous-shape ValueError, a flat one in an IndexError
    fact = realize(wiener_kernel(space))
    with pytest.raises(InvalidBasisError, match="match the space size"):
        onb_factorization(fact, basis, [space.subset("a")])


# ---------------------------------------------------------------------------
# range dimension


def test_wiener_range_is_everything(null_space):
    fact = realize(wiener_kernel(null_space))
    assert b_range_dimension(fact) == 2  # two positive atoms


def test_rank_one_range_is_one_dimensional(space):
    fact = realize(rank_one_kernel(space))
    assert b_range_dimension(fact) == 1


def test_degenerate_operator_range():
    sp = MeasureSpace(("a", "b", "c"), (1.0, 1.0, 1.0))
    fact = realize(operator_kernel(sp, np.diag([1.0, 1.0, 0.0])))
    assert b_range_dimension(fact) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_range_rank_is_the_rank_of_the_realized_columns(n, null, seed):
    # before the shared kernel spectrum, the rank came from an SVD of these columns
    rng = np.random.default_rng(seed)
    sp = random_space(rng, n, zero_atoms=null)
    pos = sp.positive
    rank = int(rng.integers(0, pos.sum() + 1))
    X = np.zeros((n, rank))
    X[pos] = rng.standard_normal((pos.sum(), rank))
    fact = realize(SetKernel(sp, X @ X.T))
    family = random_sets(rng, sp, 3)
    columns = np.sqrt(sp.weight_array)[:, None] * (fact.S @ sp.indicator_matrix([*sp.singletons(), *family]).T)
    assert b_range_dimension(fact) == numerical_rank(columns) == rank


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(0, 3), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_certify_agrees_with_a_fresh_eigvalsh(n, null, shift, seed):
    rng = np.random.default_rng(seed)
    sp = random_space(rng, n, zero_atoms=null)
    pos, w = sp.positive, sp.weight_array
    X = rng.standard_normal((n, n))
    Q = (X @ X.T - shift * n * np.diag(w)) * np.outer(pos, pos)
    kernel = SetKernel(sp, Q)
    d = np.sqrt(w[pos])
    fresh = np.linalg.eigvalsh(Q[np.ix_(pos, pos)] / d[:, None] / d[None, :])
    np.testing.assert_allclose(kernel.spectrum.values, fresh, rtol=0, atol=1e-12 * np.abs(fresh).max())
    for tol in (1e-10, 1e-2, 0.5):
        try:
            kernel.spectrum.certify(tol, NotPositiveError, "kernel")
            certified = True
        except NotPositiveError:
            certified = False
        assert certified == (fresh.min() >= -tol * max(fresh.max(), 0.0))


def test_kernel_spectrum_is_read_only_and_computed_once(monkeypatch):
    # before it, operator_kernel and build_T each ran an eigvalsh, realize an eigh and b_range_dimension an svd
    calls = []

    def counting(name):
        fn = getattr(np.linalg, name)
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    rng = np.random.default_rng(21)
    sp = random_space(rng, 7, zero_atoms=2)
    kernel = random_operator_kernel(rng, sp, well_conditioned=True)
    fact = realize(kernel)
    assert b_range_dimension(fact) == 5
    assert calls == ["eigh"]
    spectrum = kernel.spectrum
    assert spectrum is kernel.spectrum
    for array in (spectrum.values, spectrum.vectors, spectrum.pos, spectrum.d):
        assert not array.flags.writeable
    with pytest.raises(AttributeError):
        spectrum.values = np.zeros(5)


# ---------------------------------------------------------------------------
# export


def test_export_contents(space):
    fact = realize(wiener_kernel(space))
    data = export_factorization(fact, [space.subset("a", "b")])
    assert data["atoms"] == ["a", "b", "c"]
    np.testing.assert_allclose(data["T"], np.eye(3))
    by_set = {tuple(entry["set"]): entry["vector"] for entry in data["k"]}
    np.testing.assert_allclose(by_set[("a", "b")], [1.0, 1.0, 0.0], atol=1e-12)


def assert_written_as_indented_json(fact, family, path):
    write_factorization(fact, path, family=family)
    expected = json.dumps(export_factorization(fact, family), indent=2, sort_keys=True) + "\n"
    assert path.read_text() == expected


@pytest.mark.parametrize("name", ["rank-one", "two-state-green", "wiener"])
def test_shipped_exports_are_indented_json(name, tmp_path):
    cfg = load_config(CONFIGS / f"{name}.yaml")
    kernel = green_kernel(cfg.chain) if cfg.kernel_type == "green" else cfg.kernel
    assert_written_as_indented_json(realize(kernel), cfg.family, tmp_path / "f.json")


def test_a_150_atom_export_is_indented_json(tmp_path):
    rng = np.random.default_rng(150)
    space = random_space(rng, 150)
    fact = realize(random_operator_kernel(rng, space, well_conditioned=True))
    assert_written_as_indented_json(fact, random_sets(rng, space, 50), tmp_path / "f.json")


def test_export_edge_cases_are_indented_json(tmp_path):
    # the weights carry -0.0 and both ends of the float domain, 2^-b and 2^b
    space = MeasureSpace(('quote"', "back\\slash", "new\nline", "ünï", "null"), (1.0, 2.0**-96, 2.0**96, 2.0, -0.0))
    fact = realize(wiener_kernel(space))
    assert_written_as_indented_json(fact, (), tmp_path / "empty-family.json")
    assert_written_as_indented_json(fact, [space.subset('quote"', "ünï")], tmp_path / "family.json")
    # the k vectors C S^T carry 5e-324, 1e300, NaN, and -Infinity where the full set's row overflows
    S = np.zeros((5, 5))
    S[0, 0], S[1, 0], S[2], S[4] = 5e-324, 1e300, np.nan, -1e308
    odd = Factorization(kernel=fact.kernel, S=S, residual=0.0)
    with np.errstate(over="ignore"):
        assert_written_as_indented_json(odd, [space.full_set()], tmp_path / "odd.json")
