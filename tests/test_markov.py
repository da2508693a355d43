"""Chains, transience certificates, Green functions and their kernels."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from setkern import (
    InconsistencyError,
    InvalidChainError,
    MarkovChain,
    MeasureSpace,
    NotTransientError,
    build_T,
    check_reversibility,
    check_transient,
    contractivity_check,
    gram,
    green,
    green_kernel,
    green_root,
    k_from_green,
    realize,
    reversibility_defect,
    spectral_gap,
    wiener_kernel,
)
from setkern.kernels import check_positive_definite
from support import random_conductance_chain, random_sets


@pytest.fixture
def flip_chain():
    """Two states, hop with probability 1/2, die otherwise."""
    sp = MeasureSpace(("1", "2"), (1.0, 1.0))
    return MarkovChain(sp, np.array([[0.0, 0.5], [0.5, 0.0]]))


def all_subsets(space):
    n = space.size
    from setkern import MeasurableSet

    return [
        MeasurableSet(frozenset(i for i in range(n) if (mask >> i) & 1))
        for mask in range(2**n)
    ]


# ---------------------------------------------------------------------------
# construction


def test_row_sums_above_one_are_rejected():
    sp = MeasureSpace(("a", "b"), (1.0, 1.0))
    with pytest.raises(InvalidChainError):
        MarkovChain(sp, np.array([[0.5, 1.0], [0.0, 0.5]]))


def test_negative_entries_are_rejected():
    sp = MeasureSpace(("a", "b"), (1.0, 1.0))
    with pytest.raises(InvalidChainError):
        MarkovChain(sp, np.array([[-0.1, 0.5], [0.5, 0.0]]))


def test_chains_need_positive_weights():
    sp = MeasureSpace(("a", "b"), (1.0, 0.0))
    with pytest.raises(InvalidChainError):
        MarkovChain(sp, np.zeros((2, 2)))


def test_conductance_chain_is_reversible_by_construction():
    rng = np.random.default_rng(0)
    for _ in range(20):
        chain = random_conductance_chain(rng, int(rng.integers(2, 12)))
        assert reversibility_defect(chain) <= 1e-14


def test_conductance_weights_formula():
    chain = MarkovChain.from_conductances(
        ["u", "v"], [("u", "v", 0.5)], {"u": 0.5, "v": 0.5}
    )
    np.testing.assert_allclose(chain.space.weight_array, [1.0, 1.0])
    np.testing.assert_allclose(chain.transitions, [[0.0, 0.5], [0.5, 0.0]])


def test_isolated_atom_is_rejected():
    with pytest.raises(InvalidChainError):
        MarkovChain.from_conductances(["u", "v"], [], {"u": 1.0})


def test_unknown_edge_atom_is_rejected():
    with pytest.raises(InvalidChainError):
        MarkovChain.from_conductances(["u"], [("u", "w", 1.0)], {"u": 0.1})


# ---------------------------------------------------------------------------
# reversibility


def test_detailed_balance_symmetric_case(flip_chain):
    assert check_reversibility(flip_chain)


def test_detailed_balance_violation():
    sp = MeasureSpace(("a", "b"), (1.0, 2.0))
    chain = MarkovChain(sp, np.array([[0.0, 0.5], [0.5, 0.0]]))
    assert not check_reversibility(chain)
    assert reversibility_defect(chain) == pytest.approx(0.5)


def test_zero_chain_is_reversible():
    sp = MeasureSpace(("a", "b"), (1.0, 2.0))
    assert check_reversibility(MarkovChain(sp, np.zeros((2, 2))))


# ---------------------------------------------------------------------------
# transience


def test_flip_chain_spectral_bound(flip_chain):
    assert check_transient(flip_chain) == pytest.approx(0.5, abs=1e-12)


def test_stochastic_chain_is_not_transient():
    sp = MeasureSpace(("a", "b"), (1.0, 1.0))
    chain = MarkovChain(sp, np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(NotTransientError) as err:
        check_transient(chain)
    assert err.value.spectral_bound == pytest.approx(1.0)


def test_zero_chain_is_transient():
    sp = MeasureSpace(("a", "b"), (1.0, 1.0))
    assert check_transient(MarkovChain(sp, np.zeros((2, 2)))) == 0.0


def test_transient_chains_have_a_spectral_gap():
    rng = np.random.default_rng(1)
    for _ in range(20):
        chain = random_conductance_chain(rng, int(rng.integers(2, 10)))
        check_transient(chain)
        assert spectral_gap(chain) >= 1e-10


# ---------------------------------------------------------------------------
# Green function


def test_flip_chain_green_matrix(flip_chain):
    # (I - P)^{-1} for the flip chain, inverted by hand: det 3/4.
    data = green(flip_chain)
    expected = np.array([[4.0 / 3.0, 2.0 / 3.0], [2.0 / 3.0, 4.0 / 3.0]])
    assert np.abs(data.G - expected).max() <= 1e-12


def test_zero_chain_green_is_identity():
    sp = MeasureSpace(("a", "b"), (1.0, 1.0))
    data = green(MarkovChain(sp, np.zeros((2, 2))))
    np.testing.assert_allclose(data.G, np.eye(2))


def test_diagonal_chain_green_is_geometric():
    sp = MeasureSpace(("a", "b"), (1.0, 1.0))
    data = green(MarkovChain(sp, np.diag([0.5, 0.5])))
    np.testing.assert_allclose(data.G, np.diag([2.0, 2.0]), atol=1e-12)


def test_green_identity_and_series_agreement():
    rng = np.random.default_rng(2)
    for _ in range(20):
        chain = random_conductance_chain(rng, int(rng.integers(2, 33)))
        data = green(chain)
        n = chain.space.size
        residual = np.abs((np.eye(n) - chain.transitions) @ data.G - np.eye(n)).max()
        assert residual <= 1e-9
        assert data.series_agreement <= 1e-8
        assert data.G.min() >= -1e-12


# ---------------------------------------------------------------------------
# Green kernel and its factorization


def test_two_state_green_kernel_values(flip_chain):
    k = green_kernel(flip_chain)
    sp = flip_chain.space
    assert k(sp.subset("1"), sp.subset("1")) == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert k(sp.subset("1"), sp.subset("2")) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert k(sp.subset("2"), sp.subset("1")) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_zero_chain_green_kernel_is_wiener():
    rng = np.random.default_rng(3)
    sp = MeasureSpace(("a", "b", "c"), (1.0, 2.0, 0.5))
    kg = green_kernel(MarkovChain(sp, np.zeros((3, 3))))
    kw = wiener_kernel(sp)
    for A, B in zip(random_sets(rng, sp, 20), random_sets(rng, sp, 20)):
        assert kg(A, B) == pytest.approx(kw(A, B), abs=1e-12)


def test_green_kernel_is_positive_definite():
    rng = np.random.default_rng(4)
    chain = random_conductance_chain(rng, 6)
    k = green_kernel(chain)
    family = list(chain.space.singletons()) + random_sets(rng, chain.space, 4)
    assert check_positive_definite(k, family)


def test_green_kernel_requires_reversibility():
    sp = MeasureSpace(("a", "b"), (1.0, 2.0))
    chain = MarkovChain(sp, np.array([[0.0, 0.5], [0.5, 0.0]]))
    with pytest.raises(InvalidChainError):
        green_kernel(chain)


def test_k_from_green_zero_chain_is_indicator():
    sp = MeasureSpace(("a", "b"), (1.0, 1.0))
    chain = MarkovChain(sp, np.zeros((2, 2)))
    A = sp.subset("a")
    np.testing.assert_allclose(k_from_green(chain, A), sp.indicator(A))


def test_k_from_green_two_state_norm(flip_chain):
    sp = flip_chain.space
    kA = k_from_green(flip_chain, sp.subset("1"))
    assert sp.norm_squared(kA) == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_k_from_green_reproduces_kernel_exhaustively():
    rng = np.random.default_rng(5)
    for n in (2, 4, 6):
        chain = random_conductance_chain(rng, n)
        k = green_kernel(chain)
        sp = chain.space
        subsets = all_subsets(sp)
        C = np.array([sp.indicator(A) for A in subsets])
        kvecs = C @ green_root(chain).T
        inner = kvecs @ (sp.weight_array[:, None] * kvecs.T)
        target = C @ (sp.weight_array[:, None] * k.matrix) @ C.T
        assert np.abs(inner - target).max() <= 1e-8


def test_two_factorization_routes_agree():
    # The kernel-only engine and the chain-side root must build the same factors.
    rng = np.random.default_rng(6)
    chain = random_conductance_chain(rng, 5)
    k = green_kernel(chain)
    fact = realize(k)
    for A in random_sets(rng, chain.space, 10):
        np.testing.assert_allclose(fact.k(A), k_from_green(chain, A), atol=1e-8)


def test_build_T_of_green_kernel_is_the_green_matrix():
    rng = np.random.default_rng(7)
    chain = random_conductance_chain(rng, 6)
    data = green(chain)
    T = build_T(green_kernel(chain))
    assert np.abs(T - data.G).max() <= 1e-8


# ---------------------------------------------------------------------------
# contractivity


def test_contractivity_random_chains():
    rng = np.random.default_rng(8)
    for _ in range(10):
        chain = random_conductance_chain(rng, int(rng.integers(2, 10)))
        assert contractivity_check(chain, seed=int(rng.integers(0, 2**32)))


def test_identity_chain_is_contractive_at_the_boundary():
    sp = MeasureSpace(("a", "b"), (1.0, 1.0))
    assert contractivity_check(MarkovChain(sp, np.eye(2)))


# ---------------------------------------------------------------------------
# the per-chain cache of spectrum, Green function and root


def near_recurrent_path(n=10, kill=1e-4, at=0):
    """Transient unit-conductance path killed at atom ``at``.

    With the defaults, solve and series differ by 1.2e-8 at ``max|G|`` near 2e4.
    """
    atoms = [f"p{i}" for i in range(n)]
    edges = [(atoms[i], atoms[i + 1], 1.0) for i in range(n - 1)]
    return MarkovChain.from_conductances(atoms, edges, {atoms[at]: kill})


def test_green_is_shared_and_read_only():
    chain = random_conductance_chain(np.random.default_rng(11), 8)
    first, second = green(chain), green(chain)
    np.testing.assert_array_equal(first.G, second.G)
    for array in (first.G, green_root(chain)):
        with pytest.raises(ValueError):
            array[0, 0] = 0.0


def test_agreement_bound_applies_on_every_call():
    chain = random_conductance_chain(np.random.default_rng(12), 8)
    relative = green(chain).relative_agreement
    assert relative > 0
    with pytest.raises(InconsistencyError):
        green(chain, agree_tol=relative / 2)
    # the path's gap of 1.2e-8 is 6e-13 of max|G| ~ 2e4: an absolute 1e-8 rejected it on every call
    path = near_recurrent_path()
    for _ in range(2):
        data = green(path)
        assert data.series_agreement > 1e-8
        assert data.relative_agreement == data.series_agreement / np.abs(data.G).max() < 1e-11
        with pytest.raises(InconsistencyError):
            green(path, agree_tol=data.relative_agreement / 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.floats(-7.0, -4.0), st.data())
def test_a_near_recurrent_chain_is_accepted_relative_to_its_green_function(n, log_kill, data):
    chain = near_recurrent_path(n, 10.0**log_kill, data.draw(st.integers(0, n - 1)))
    result = green(chain)
    G, eye = result.G, np.eye(n)
    scale = np.abs(G).max()
    assert scale >= 10.0**-log_kill
    assert np.abs((eye - chain.transitions) @ G - eye).max() <= 1e-12 * scale
    assert (G - eye).min() >= -1e-12 * scale


def test_series_tolerance_keys_its_own_series():
    chain = random_conductance_chain(np.random.default_rng(13), 8)
    tight = green(chain).series_terms
    loose = green(chain, series_tol=1e-3, agree_tol=1.0).series_terms
    assert loose < tight
    assert green(chain).series_terms == tight


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_cached_results_match_fresh_numpy(n, seed):
    chain = random_conductance_chain(np.random.default_rng(seed), n)
    P, w = chain.transitions, chain.space.weight_array
    d = np.sqrt(w)
    sym = d[:, None] * P / d[None, :]
    lam, U = np.linalg.eigh(0.5 * (sym + sym.T))
    root = ((U / np.sqrt(1.0 - lam)) @ U.T) / d[:, None] * d[None, :]

    def close(value, reference):
        assert np.abs(value - reference).max() <= 1e-12 * np.abs(reference).max()

    close(check_transient(chain), np.abs(np.linalg.eigvalsh(0.5 * (sym + sym.T))).max())
    close(spectral_gap(chain), 1.0 - lam.max())
    close(green(chain).G, np.linalg.inv(np.eye(n) - P))
    close(green_root(chain), root)


def test_one_eigendecomposition_and_one_refined_solve_per_chain(monkeypatch):
    calls = {"eigen": 0, "solve": 0}

    def counting(kind, fn):
        def counted(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)

        return counted

    for name, kind in (("eigh", "eigen"), ("eigvalsh", "eigen"), ("solve", "solve")):
        monkeypatch.setattr(np.linalg, name, counting(kind, getattr(np.linalg, name)))
    chain = random_conductance_chain(np.random.default_rng(14), 8)
    check_transient(chain)
    spectral_gap(chain)
    contractivity_check(chain)
    green(chain)
    green_kernel(chain)
    green_root(chain)
    assert calls == {"eigen": 1, "solve": 2}


def test_a_second_series_tolerance_reuses_the_solve(monkeypatch):
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(1) or solve(*args))
    chain = random_conductance_chain(np.random.default_rng(15), 50)
    tight = green(chain)
    loose = green(chain, series_tol=1e-6, agree_tol=1e-4)
    assert len(solves) == 2
    assert loose.G is tight.G
    assert loose.series_terms < tight.series_terms


def test_a_non_reversible_chain_is_judged_by_its_singular_values():
    # the symmetric part of D^{1/2} P D^{-1/2} has radius sqrt(3)/2, which was returned as rho,
    # and contractivity passed although ||P f||_w^2 = 3 ||f||_w^2 for f = (0, 1)
    chain = MarkovChain(MeasureSpace(("a", "b"), (3.0, 1.0)), np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotTransientError) as raised:
        check_transient(chain)
    assert raised.value.spectral_bound == pytest.approx(np.sqrt(3.0))
    assert not contractivity_check(chain)
    with pytest.raises(InvalidChainError):
        spectral_gap(chain)
    with pytest.raises(InvalidChainError):
        green_root(chain)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10), st.integers(0, 2**32 - 1))
def test_a_non_reversible_chain_bound_is_its_weighted_operator_norm(n, seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 3.0, size=n)
    P = rng.uniform(0.0, 1.0, size=(n, n))
    P *= rng.uniform(0.1, 1.0, size=(n, 1)) / P.sum(axis=1, keepdims=True)
    chain = MarkovChain(MeasureSpace(tuple(f"s{i}" for i in range(n)), tuple(w)), P)
    assume(not check_reversibility(chain))
    d = np.sqrt(w)
    norm = np.linalg.norm(d[:, None] * P / d[None, :], 2)
    try:
        rho = check_transient(chain)
    except NotTransientError as e:
        rho = e.spectral_bound
    assert abs(rho - norm) <= 1e-12 * norm
    assert contractivity_check(chain) == (norm <= 1 + 1e-10)


def test_a_reversible_chain_is_told_from_a_non_reversible_one_relative_to_its_scale():
    # conductances near 1e6 leave a roundoff balance defect of about 2e-10, above an absolute 1e-10,
    # and green_kernel rejected the chain
    rng = np.random.default_rng(16)
    atoms = [f"s{i}" for i in range(30)]
    edges = [(atoms[i], atoms[int(rng.integers(0, i))], float(rng.uniform(0.2, 2.0))) for i in range(1, 30)]
    small = MarkovChain.from_conductances(atoms, edges, {a: 0.1 for a in atoms})
    large = MarkovChain.from_conductances(atoms, [(x, y, c * 1e6) for x, y, c in edges], {a: 1e5 for a in atoms})
    WP = large.space.weight_array[:, None] * large.transitions
    assert np.abs(WP - WP.T).max() > 1e-10
    assert check_reversibility(large)
    green_kernel(large)
    assert spectral_gap(large) == pytest.approx(spectral_gap(small), rel=1e-12)
    assert check_transient(large) == pytest.approx(check_transient(small), rel=1e-12)
    np.testing.assert_allclose(green_root(large), green_root(small), rtol=0, atol=1e-10)


@pytest.mark.parametrize("scale", [1e-2, 1.0, 1e6])
@pytest.mark.parametrize("skew", [1e-13, 1e-8])
def test_every_reversibility_decision_is_the_same_rule(scale, skew):
    # on weights (0.01, 0.01) with skew 1e-8 the absolute defect is 5e-11: an absolute 1e-10
    # called the chain reversible, and a relative rule in green_root alone disagreed with green_kernel
    chain = MarkovChain(MeasureSpace(("a", "b"), (scale, scale)), np.array([[0.0, 0.5], [0.5 * (1 + skew), 0.0]]))
    reversible = skew < 1e-10
    assert check_reversibility(chain) == reversible
    assert reversibility_defect(chain) == pytest.approx(skew, rel=1e-3)
    for decide in (green_kernel, green_root, spectral_gap):
        if reversible:
            decide(chain)
        else:
            with pytest.raises(InvalidChainError):
                decide(chain)
