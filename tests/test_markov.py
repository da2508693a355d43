"""Chains, transience certificates, Green functions and their kernels."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from setkern import (
    DomainError,
    InconsistencyError,
    InvalidChainError,
    MarkovChain,
    MeasureSpace,
    NotTransientError,
    build_T,
    check_contractivity,
    check_reversibility,
    check_series,
    check_spectral_gap,
    check_transient,
    gram,
    green,
    green_kernel,
    green_root,
    realize,
    wiener_kernel,
)
from setkern.config import load_config
from setkern.linalg import DOMAIN_BITS
from setkern.markov import _neumann_sum
from support import (
    near_recurrent_path,
    neumann_sum_doubling,
    neumann_sum_from_identity,
    random_conductance_chain,
    random_sets,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
        defect, scale = check_reversibility(chain, 1.0)[:2]  # at tol 1 the bound is the scale
        assert defect <= 1e-14 * scale


def test_conductance_weights_formula():
    chain = MarkovChain.from_conductances(
        ["u", "v"], [("u", "v", 0.5)], {"u": 0.5, "v": 0.5}
    )
    np.testing.assert_allclose(chain.space.weight_array, [1.0, 1.0])
    np.testing.assert_allclose(chain.transitions, [[0.0, 0.5], [0.5, 0.0]])


def test_isolated_atom_is_rejected():
    with pytest.raises(InvalidChainError):
        MarkovChain.from_conductances(["u", "v"], [], {"u": 1.0})


DOMAIN = f"outside the float domain: zero or in [2^-{DOMAIN_BITS}, 2^{DOMAIN_BITS}]"


@pytest.mark.parametrize("edges, kill, message", [
    ([("u", "v", float("nan"))], None, f"conductance on ('u','v') is nan, {DOMAIN}"),
    ([("u", "v", float("inf"))], None, f"conductance on ('u','v') is inf, {DOMAIN}"),
    ([("u", "v", -1.0)], None, f"conductance on ('u','v') is -1.0, {DOMAIN}"),
    ([("u", "v", 1.0)], {"u": float("inf")}, f"killing mass at 'u' is inf, {DOMAIN}"),
    ([("u", "v", 1.0)], {"v": float("nan")}, f"killing mass at 'v' is nan, {DOMAIN}"),
    ([("u", "v", 1.0)], {"v": -0.5}, f"killing mass at 'v' is -0.5, {DOMAIN}"),
    ([("u", "v", 1.0), ("v", "u", 1.0e-320)], None, f"conductance on ('v','u') is 1e-320, {DOMAIN}"),
    ([("u", "v", 2.0 ** (DOMAIN_BITS + 1))], None, f"conductance on ('u','v') is {2.0 ** (DOMAIN_BITS + 1)!r}, {DOMAIN}"),
    ([("u", "v", 1.0)], {"u": 1.0, "v": 1.0e-320}, f"killing mass at 'v' is 1e-320, {DOMAIN}"),
    # each conductance is in the domain, but the weight they derive for v is 2^(b+1)
    ([("u", "v", 2.0**DOMAIN_BITS), ("v", "w", 2.0**DOMAIN_BITS)], None,
     f"weight of atom 'v' is {2.0 ** (DOMAIN_BITS + 1)!r}, {DOMAIN}"),
], ids=["nan-conductance", "inf-conductance", "negative-conductance", "inf-kill", "nan-kill", "negative-kill",
        "subnormal-conductance", "huge-conductance", "subnormal-kill", "huge-derived-weight"])
def test_a_bad_conductance_or_killing_mass_is_rejected_by_name(edges, kill, message):
    # a NaN passed c < 0 and killv.min() < 0, and the chain failed later as a bad weight
    with pytest.raises((InvalidChainError, DomainError)) as err:
        MarkovChain.from_conductances(["u", "v", "w"], edges, {"w": 1.0, **(kill or {})})
    assert str(err.value) == message


def test_the_green_series_bounds_every_entry_when_the_weights_span_the_float_domain():
    # the series stopped at one term, I, by the weighted-norm tail rho = 2^-96.5, and green() raised
    # InconsistencyError on the gap 0.5 at G[b, a] = P[b, a], which the weight ratio 2^191 had hidden
    b = DOMAIN_BITS
    chain = MarkovChain.from_conductances(["a", "b"], [("a", "b", 2.0**-b)], {"a": 2.0**b, "b": 2.0**-b})
    data = green(chain)
    assert check_series(chain).passed and data.series_agreement < 1e-50
    assert data.G[1, 0] == 0.5 and data.G[0, 1] == 2.0 ** (-2 * b)


def test_duplicate_atom_names_are_rejected():
    # the name index kept the last 'a', and the first was rejected as having neither conductance nor killing
    with pytest.raises(InvalidChainError) as err:
        MarkovChain.from_conductances(["a", "a"], [("a", "a", 1.0)])
    assert str(err.value) == "atom identifiers must be unique"


def test_a_kill_of_an_unknown_atom_is_rejected():
    with pytest.raises(InvalidChainError, match="killing references unknown atom 'z'"):
        MarkovChain.from_conductances(["u", "v"], [("u", "v", 1.0)], {"z": 0.5})


def test_a_chain_of_no_atom_is_rejected():
    with pytest.raises(InvalidChainError, match="need at least one atom"):
        MarkovChain.from_conductances([], [])


def test_unknown_edge_atom_is_rejected():
    with pytest.raises(InvalidChainError):
        MarkovChain.from_conductances(["u"], [("u", "w", 1.0)], {"u": 0.1})


# ---------------------------------------------------------------------------
# reversibility


def test_detailed_balance_symmetric_case(flip_chain):
    assert check_reversibility(flip_chain).passed


def test_detailed_balance_violation():
    sp = MeasureSpace(("a", "b"), (1.0, 2.0))
    chain = MarkovChain(sp, np.array([[0.0, 0.5], [0.5, 0.0]]))
    assert not check_reversibility(chain).passed
    defect, scale = check_reversibility(chain, 1.0)[:2]  # at tol 1 the bound is the scale
    assert defect / scale == pytest.approx(0.5)


def test_zero_chain_is_reversible():
    sp = MeasureSpace(("a", "b"), (1.0, 2.0))
    assert check_reversibility(MarkovChain(sp, np.zeros((2, 2)))).passed


# ---------------------------------------------------------------------------
# transience


def test_flip_chain_spectral_bound(flip_chain):
    assert check_transient(flip_chain).value == pytest.approx(0.5, abs=1e-12)


def test_stochastic_chain_is_not_transient():
    sp = MeasureSpace(("a", "b"), (1.0, 1.0))
    chain = MarkovChain(sp, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert check_transient(chain).value == pytest.approx(1.0)
    assert not check_transient(chain).passed
    with pytest.raises(NotTransientError, match="spectral bound 1 reaches 1"):
        green(chain)


def test_the_shipped_stochastic_chain_is_judged_not_transient_without_raising():
    # the check raised NotTransientError, and the CLI read the bound back out of the exception
    chain = load_config(CONFIGS / "stochastic-chain.yaml").chain
    assert check_transient(chain) == (1.0, 0.9999999999, False, None)


def test_zero_chain_is_transient():
    sp = MeasureSpace(("a", "b"), (1.0, 1.0))
    assert check_transient(MarkovChain(sp, np.zeros((2, 2)))).value == 0.0


def test_transient_chains_have_a_spectral_gap():
    rng = np.random.default_rng(1)
    for _ in range(20):
        chain = random_conductance_chain(rng, int(rng.integers(2, 10)))
        assert check_transient(chain).passed
        assert check_spectral_gap(chain).value >= 1e-10


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
    assert gram(k, family).psd(1e-10).passed


def test_green_kernel_requires_reversibility():
    sp = MeasureSpace(("a", "b"), (1.0, 2.0))
    chain = MarkovChain(sp, np.array([[0.0, 0.5], [0.5, 0.0]]))
    with pytest.raises(InvalidChainError):
        green_kernel(chain)


def test_green_kernel_judges_the_series_at_its_agree_tol():
    # on this path solve and series disagree by more than 1e-8 × max|G|, within 1e-6 × max|G|
    path = near_recurrent_path(10, 1e-8)
    with pytest.raises(InconsistencyError):
        green_kernel(path)
    kernel = green_kernel(path, agree_tol=1e-6)
    np.testing.assert_array_equal(kernel.Q, path.space.weight_array[:, None] * green(path, agree_tol=1e-6).G)


def test_k_from_green_zero_chain_is_indicator():
    sp = MeasureSpace(("a", "b"), (1.0, 1.0))
    chain = MarkovChain(sp, np.zeros((2, 2)))
    A = sp.subset("a")
    np.testing.assert_allclose(green_root(chain) @ sp.indicator(A), sp.indicator(A))


def test_k_from_green_two_state_norm(flip_chain):
    sp = flip_chain.space
    kA = green_root(flip_chain) @ sp.indicator(sp.subset("1"))
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
        target = C @ k.Q @ C.T  # Q = diag(w) G
        assert np.abs(inner - target).max() <= 1e-8


def test_two_factorization_routes_agree():
    # The kernel-only engine and the chain-side root must build the same factors.
    rng = np.random.default_rng(6)
    chain = random_conductance_chain(rng, 5)
    k = green_kernel(chain)
    fact = realize(k)
    sets = random_sets(rng, chain.space, 10)
    np.testing.assert_allclose(fact.k_rows(sets), chain.space.indicator_matrix(sets) @ green_root(chain).T, atol=1e-8)


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
        assert check_contractivity(chain).passed


def test_identity_chain_is_contractive_at_the_boundary():
    sp = MeasureSpace(("a", "b"), (1.0, 1.0))
    assert check_contractivity(MarkovChain(sp, np.eye(2))).passed


# ---------------------------------------------------------------------------
# the per-chain cache of spectrum, Green function and root


def test_green_is_shared_and_read_only():
    chain = random_conductance_chain(np.random.default_rng(11), 8)
    first, second = green(chain), green(chain)
    np.testing.assert_array_equal(first.G, second.G)
    for array in (first.G, green_root(chain)):
        with pytest.raises(ValueError):
            array[0, 0] = 0.0


def test_agreement_bound_applies_on_every_call():
    chain = random_conductance_chain(np.random.default_rng(12), 8)
    data = green(chain)
    relative = data.series_agreement / data.scale
    assert relative > 0
    with pytest.raises(InconsistencyError):
        green(chain, agree_tol=relative / 2)
    # the path's gap of 1.2e-8 is 6e-13 of max|G| ~ 2e4: an absolute 1e-8 rejected it on every call
    path = near_recurrent_path()
    for _ in range(2):
        data = green(path)
        assert data.series_agreement > 1e-8
        assert data.scale == np.abs(data.G).max()
        assert data.series_agreement / data.scale < 1e-11
        with pytest.raises(InconsistencyError):
            green(path, agree_tol=data.series_agreement / data.scale / 2)


def test_green_raises_by_the_series_verdict():
    # the series of this path differs from the solve by 1.52e-8 of max|G| ~ 2e8
    path = near_recurrent_path(10, 1e-8)
    data = green(path, agree_tol=1e-6)
    verdict = check_series(path)
    assert (verdict.value, verdict.bound, verdict.passed) == (data.series_agreement, 1e-8 * data.scale, False)
    assert check_series(path, tol=1e-6).passed
    with pytest.raises(InconsistencyError, match="series and solve disagree"):
        green(path)
    stochastic = MarkovChain(MeasureSpace(("a", "b"), (1.0, 1.0)), np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(NotTransientError):
        check_series(stochastic)


def test_a_chain_below_double_precision_names_its_gap():
    # with gap 4.5e-10 the series roundoff may reach eps / gap = 4.9e-7 of max|G|, beyond
    # agree_tol = 1e-8 (it is 1.77e-8 here); the message named neither the gap nor that scale
    chain = near_recurrent_path(12, 1e-8)
    gap = 1.0 - check_transient(chain).value
    assert 4e-10 < gap < 5e-10
    with pytest.raises(InconsistencyError, match="series and solve disagree") as raised:
        green(chain)
    assert f"1 - rho = {gap:.3e}" in str(raised.value)
    assert f"eps / (1 - rho) = {np.finfo(float).eps / gap:.3e}" in str(raised.value)


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

    close(check_transient(chain).value, np.abs(np.linalg.eigvalsh(0.5 * (sym + sym.T))).max())
    close(check_spectral_gap(chain).value, 1.0 - lam.max())
    close(green(chain).G, np.linalg.inv(np.eye(n) - P))
    close(green_root(chain), root)


@pytest.mark.parametrize("n, terms", [(2, 0), (2, 1), (2, 2), (2, 3), (5, 3), (8, None), (96, None), (192, None)])
def test_the_series_skips_the_square_it_never_reads(n, terms):
    # one reference also squares Q after its last step, a square no step reads;
    # the other starts from S = I, so that its first step is the product P @ I
    chain = random_conductance_chain(np.random.default_rng(n), n)
    terms = green(chain).series_terms if terms is None else terms
    P = chain.transitions
    assert _neumann_sum(P, terms).tobytes() == neumann_sum_doubling(P, terms).tobytes()
    assert _neumann_sum(P, terms).tobytes() == neumann_sum_from_identity(P, terms).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 24), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_the_series_of_any_chain_is_the_loop_from_the_identity_to_the_bit(n, terms, seed):
    P = random_conductance_chain(np.random.default_rng(seed), n).transitions
    assert _neumann_sum(P, terms).tobytes() == neumann_sum_from_identity(P, terms).tobytes()


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts of ``eigh``/``eigvalsh`` (as ``eigen``), ``solve`` and ``svd`` calls made from here on."""
    calls = {"eigen": 0, "solve": 0, "svd": 0}

    def counting(kind, fn):
        def counted(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)

        return counted

    for name, kind in (("eigh", "eigen"), ("eigvalsh", "eigen"), ("solve", "solve"), ("svd", "svd")):
        monkeypatch.setattr(np.linalg, name, counting(kind, getattr(np.linalg, name)))
    return calls


# detailed balance fails on these weights (3 × 0.5 against 1 × 0.2), and rho = 0.866
NON_REVERSIBLE_TRANSIENT = MarkovChain(
    MeasureSpace(("a", "b"), (3.0, 1.0)), np.array([[0.0, 0.5], [0.2, 0.0]])
)


def test_one_eigendecomposition_and_one_refined_solve_per_chain(linalg_calls):
    # the solve is refined by a Newton-Schulz step, not by a second solve
    chain = random_conductance_chain(np.random.default_rng(14), 8)
    for use in (check_transient, check_spectral_gap, check_contractivity, green, green_kernel, green_root):
        use(chain)
    assert linalg_calls == {"eigen": 1, "solve": 1, "svd": 0}


def test_a_non_reversible_transient_chain_makes_one_svd_and_one_solve(linalg_calls):
    # its norm is the largest singular value of D^{1/2} P D^{-1/2}
    chain = NON_REVERSIBLE_TRANSIENT
    assert not check_reversibility(chain).passed
    for use in (check_transient, check_contractivity, green, green):
        use(chain)
    assert linalg_calls == {"eigen": 0, "solve": 1, "svd": 1}


def test_a_non_reversible_transient_chain_is_inverted_by_its_solve():
    data = green(NON_REVERSIBLE_TRANSIENT)
    assert data.spectral_bound == pytest.approx(np.sqrt(0.75), rel=1e-12)
    # (I - P)^{-1} by hand: det 0.9
    expected = np.array([[1.0, 0.5], [0.2, 1.0]]) / 0.9
    assert np.abs(data.G - expected).max() <= 1e-15 * np.abs(expected).max()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40), st.floats(-7.0, -4.0), st.data())
def test_green_inverts_the_chain_at_the_edge_of_the_balance_rule(n, log_kill, data):
    # every transition is an off-diagonal entry, scaled down by up to 4e-11: the chain passes the
    # 1e-10 balance rule, so it is treated as reversible, but G must still invert P itself
    path = near_recurrent_path(n, 10.0**log_kill, data.draw(st.integers(0, n - 1)))
    skew = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(0.0, 4e-11, size=(n, n))
    chain = MarkovChain(path.space, path.transitions * (1.0 - skew))
    assert check_reversibility(chain).passed
    # below a gap of about 1e-8 no series certifies agree_tol (the test of the 1e-8 kill above):
    # G alone is judged here
    G, eye = green(chain, agree_tol=np.inf).G, np.eye(n)
    scale = np.abs(G).max()
    assert np.abs((eye - chain.transitions) @ G - eye).max() <= 1e-12 * scale
    # inv is itself accurate only to about eps / (1 - rho) of max|G|: at n = 31 and kill 1e-7 the
    # solve and inv differed by 1.4e-8 of it, each within 6e-9 of a 60-digit inverse
    floor = max(1e-8, np.finfo(float).eps / check_spectral_gap(chain).value)
    assert np.abs(G - np.linalg.inv(eye - chain.transitions)).max() <= floor * scale


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 16), st.integers(0, 2**32 - 1))
def test_permuting_the_atoms_permutes_every_result(n, seed):
    rng = np.random.default_rng(seed)
    chain = random_conductance_chain(rng, n)
    sp = chain.space
    p = rng.permutation(n)
    moved = MarkovChain(
        MeasureSpace(tuple(sp.atoms[i] for i in p), tuple(sp.weight_array[p])),
        chain.transitions[np.ix_(p, p)],
    )

    def close(value, reference):
        assert np.abs(value - reference).max() <= 1e-12 * np.abs(reference).max()

    for decide in (check_reversibility, check_contractivity):
        assert decide(moved).passed == decide(chain).passed
    close(check_transient(moved).value, check_transient(chain).value)
    close(check_spectral_gap(moved).value, check_spectral_gap(chain).value)
    close(green(moved).G, green(chain).G[np.ix_(p, p)])
    close(green_root(moved), green_root(chain)[np.ix_(p, p)])
    k, k_moved = green_kernel(chain), green_kernel(moved)

    def relabel(A):
        return moved.space.subset(*(sp.atoms[i] for i in A.indices))

    pairs = list(zip(random_sets(rng, sp, 8), random_sets(rng, sp, 8)))
    close(np.array([k_moved(relabel(A), relabel(B)) for A, B in pairs]), np.array([k(A, B) for A, B in pairs]))


def test_a_non_reversible_chain_is_judged_by_its_singular_values():
    # the symmetric part of D^{1/2} P D^{-1/2} has radius sqrt(3)/2, which was returned as rho,
    # and contractivity passed although ||P f||_w^2 = 3 ||f||_w^2 for f = (0, 1)
    chain = MarkovChain(MeasureSpace(("a", "b"), (3.0, 1.0)), np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert check_transient(chain).value == pytest.approx(np.sqrt(3.0))
    assert not check_transient(chain).passed
    assert not check_contractivity(chain).passed
    with pytest.raises(InvalidChainError):
        check_spectral_gap(chain)
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
    assume(not check_reversibility(chain).passed)
    d = np.sqrt(w)
    norm = np.linalg.norm(d[:, None] * P / d[None, :], 2)
    rho = check_transient(chain).value
    assert abs(rho - norm) <= 1e-12 * norm
    assert check_contractivity(chain).passed == (norm <= 1 + 1e-10)


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
    assert check_reversibility(large).passed
    green_kernel(large)
    assert check_spectral_gap(large).value == pytest.approx(check_spectral_gap(small).value, rel=1e-12)
    assert check_transient(large).value == pytest.approx(check_transient(small).value, rel=1e-12)
    np.testing.assert_allclose(green_root(large), green_root(small), rtol=0, atol=1e-10)


@pytest.mark.parametrize("scale", [1e-2, 1.0, 1e6])
@pytest.mark.parametrize("skew", [1e-13, 1e-8])
def test_every_reversibility_decision_is_the_same_rule(scale, skew):
    # on weights (0.01, 0.01) with skew 1e-8 the absolute defect is 5e-11: an absolute 1e-10
    # called the chain reversible, and a relative rule in green_root alone disagreed with green_kernel
    chain = MarkovChain(MeasureSpace(("a", "b"), (scale, scale)), np.array([[0.0, 0.5], [0.5 * (1 + skew), 0.0]]))
    reversible = skew < 1e-10
    assert check_reversibility(chain).passed == reversible
    defect, scale = check_reversibility(chain, 1.0)[:2]  # at tol 1 the bound is the scale
    assert defect / scale == pytest.approx(skew, rel=1e-3)
    for decide in (green_kernel, green_root, check_spectral_gap):
        if reversible:
            decide(chain)
        else:
            with pytest.raises(InvalidChainError):
                decide(chain)
