"""Gaussian field sampling, stochastic-integral moments, projection sweeps."""

import dataclasses
import os
import signal
import sys
import threading

import numpy as np
import pytest

import setkern.field
from setkern import (
    DomainError,
    InvalidCovarianceError,
    MarkovChain,
    MeasurableSet,
    MeasureSpace,
    OrderingError,
    Partition,
    SetKernel,
    SimpleFunction,
    build_sampler,
    cross_moment_check,
    green_kernel,
    ito_isometry_check,
    operator_kernel,
    projection_second_moment,
    rank_one_kernel,
    realize,
    refinement_sweep,
    wiener_kernel,
)
from setkern.field import CHUNK_SIZE
from support import (
    chunk_generator,
    conditioned_operator_kernel,
    exact_projection_moment,
    projected_factor,
    projected_moment,
    random_conductance_chain,
    random_nu_psd_matrix,
    random_refinement_chain,
    random_set,
    random_sets,
    random_simple_function,
    random_space,
)


@pytest.fixture
def space():
    return MeasureSpace(("a", "b", "c"), (1.0, 2.0, 0.5))


@pytest.fixture
def unit_space():
    return MeasureSpace(("a", "b", "c"), (1.0, 1.0, 1.0))


# ---------------------------------------------------------------------------
# sampler construction


def test_disjoint_singletons_factor_is_diagonal(space):
    sampler = build_sampler(wiener_kernel(space), [space.subset("a"), space.subset("b")], seed=0)
    L = sampler.factor
    np.testing.assert_allclose(L @ L.T, np.diag([1.0, 2.0]), atol=1e-12)


def test_rank_one_factor_has_rank_one(space):
    rng = np.random.default_rng(0)
    sampler = build_sampler(rank_one_kernel(space), random_sets(rng, space, 5), seed=0)
    assert sampler.rank == 1


def test_empty_family_sampler(space):
    sampler = build_sampler(wiener_kernel(space), [], seed=0)
    assert sampler.sample(10).shape == (10, 0)


def test_factor_reconstructs_gram(space):
    rng = np.random.default_rng(1)
    family = list(space.singletons()) + random_sets(rng, space, 5)
    sampler = build_sampler(wiener_kernel(space), family, seed=0)
    G = sampler.gram.entries
    assert np.abs(sampler.factor @ sampler.factor.T - G).max() <= 1e-10 * np.abs(G).max()


def test_indefinite_gram_is_rejected(space):
    neg = SetKernel(space, -np.diag(space.weight_array), kind="negative")
    with pytest.raises(InvalidCovarianceError):
        build_sampler(neg, [space.subset("a")], seed=0)


# ---------------------------------------------------------------------------
# sampling


def test_same_seed_same_stream(space):
    family = [space.subset("a"), space.subset("a", "b")]
    s1 = build_sampler(wiener_kernel(space), family, seed=42)
    s2 = build_sampler(wiener_kernel(space), family, seed=42)
    assert np.array_equal(s1.sample(5000), s2.sample(5000))
    assert not np.array_equal(s1.sample(5000), build_sampler(wiener_kernel(space), family, seed=43).sample(5000))


def test_worker_count_does_not_change_samples(space):
    family = [space.subset("a"), space.subset("b", "c")]
    sampler = build_sampler(wiener_kernel(space), family, seed=9)
    base = sampler.sample(30000)
    for workers in (2, 4):
        assert np.array_equal(base, sampler.sample(30000, workers=workers))


def test_sample_mean_is_consistent_with_zero(space):
    family = [space.subset("a"), space.subset("a", "b")]
    sampler = build_sampler(wiener_kernel(space), family, seed=3)
    draws = sampler.sample(200000)
    mean = draws.mean(axis=0)
    bound = 5 * draws.std(axis=0) / np.sqrt(draws.shape[0])
    assert np.all(np.abs(mean) <= bound)


def test_sample_covariance_matches_gram():
    # Entrywise five-standard-error agreement for >= 95% of entries over 20 seeds.
    sp = MeasureSpace(("a", "b", "c"), (1.0, 2.0, 0.5))
    family = [sp.subset("a"), sp.subset("a", "b"), sp.subset("b", "c")]
    kernel = wiener_kernel(sp)
    n = 200000
    hits = 0
    total = 0
    for seed in range(20):
        sampler = build_sampler(kernel, family, seed=seed)
        draws = sampler.sample(n)
        emp = draws.T @ draws / n
        G = sampler.gram.entries
        se = np.sqrt((np.outer(np.diag(G), np.diag(G)) + G**2) / n)
        hits += int(np.sum(np.abs(emp - G) <= 5 * se))
        total += G.size
    assert hits / total >= 0.95


def test_nested_family_marginals_are_consistent(space):
    kernel = wiener_kernel(space)
    small = [space.subset("a"), space.subset("b")]
    large = small + [space.subset("a", "b"), space.subset("c")]
    g_small = build_sampler(kernel, small, seed=0).gram.entries
    g_large = build_sampler(kernel, large, seed=0).gram.entries
    np.testing.assert_allclose(g_large[:2, :2], g_small)


# ---------------------------------------------------------------------------
# second-moment checks


def test_isometry_wiener_indicator(space):
    kernel = wiener_kernel(space)
    fact = realize(kernel)
    A = space.subset("a", "b")
    res = ito_isometry_check(kernel, fact, SimpleFunction(((1.0, A),)), 100000, seed=1)
    assert res.exact == pytest.approx(3.0)
    assert res.within(5.0)


def test_isometry_exact_value_is_the_quadratic_form(space):
    rng = np.random.default_rng(2)
    kernel = wiener_kernel(space)
    fact = realize(kernel)
    phi = random_simple_function(rng, space)
    res = ito_isometry_check(kernel, fact, phi, 10, seed=0)
    sets_ = phi.sets()
    alpha = np.zeros(len(sets_))
    for coef, s in phi.terms:
        alpha[sets_.index(s)] += coef
    oracle = sum(
        alpha[i] * alpha[j] * kernel(sets_[i], sets_[j])
        for i in range(len(sets_))
        for j in range(len(sets_))
    )
    assert res.exact == pytest.approx(oracle, abs=1e-10)


def test_isometry_on_two_state_green_kernel():
    sp = MeasureSpace(("1", "2"), (1.0, 1.0))
    chain = MarkovChain(sp, np.array([[0.0, 0.5], [0.5, 0.0]]))
    kernel = green_kernel(chain)
    fact = realize(kernel)
    phi = SimpleFunction(((1.0, sp.subset("1")),))
    res = ito_isometry_check(kernel, fact, phi, 200000, seed=4)
    assert res.exact == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert res.within(5.0)


def test_moment_checks_refuse_a_factorization_of_another_kernel(space, unit_space):
    # the check compared one kernel's sampler with the other kernel's exact moment
    phi = SimpleFunction(((1.0, space.subset("a", "b")),))
    kernel = wiener_kernel(space)
    others = (realize(rank_one_kernel(space)), realize(SetKernel(unit_space, kernel.Q)))
    for check, integrands in ((ito_isometry_check, (phi,)), (cross_moment_check, (phi, phi))):
        for fact in others:
            with pytest.raises(DomainError, match="realizes another kernel"):
                check(kernel, fact, *integrands, 100, seed=0)
        assert check(kernel, realize(wiener_kernel(space)), *integrands, 100, seed=0).exact == 3.0


def test_cross_moment_reduces_to_isometry(space):
    kernel = wiener_kernel(space)
    fact = realize(kernel)
    phi = SimpleFunction(((1.0, space.subset("a")), (2.0, space.subset("b"))))
    iso = ito_isometry_check(kernel, fact, phi, 20000, seed=5)
    cross = cross_moment_check(kernel, fact, phi, phi, 20000, seed=5)
    assert cross.estimate == iso.estimate
    assert cross.exact == iso.exact


def test_cross_moment_disjoint_indicators_vanishes(space):
    kernel = wiener_kernel(space)
    fact = realize(kernel)
    phi = SimpleFunction(((1.0, space.subset("a")),))
    psi = SimpleFunction(((1.0, space.subset("b")),))
    res = cross_moment_check(kernel, fact, phi, psi, 100000, seed=6)
    assert res.exact == 0.0
    assert res.within(5.0)


def test_cross_moment_exact_matches_bilinear_oracle():
    rng = np.random.default_rng(7)
    sp = random_space(rng, 4)
    kernel = wiener_kernel(sp)
    fact = realize(kernel)
    phi = random_simple_function(rng, sp)
    psi = random_simple_function(rng, sp)
    res = cross_moment_check(kernel, fact, phi, psi, 10, seed=0)
    oracle = sum(
        a * b * kernel(A, B) for a, A in phi.terms for b, B in psi.terms
    )
    assert res.exact == pytest.approx(oracle, abs=1e-10)


def test_checks_are_deterministic(space):
    kernel = wiener_kernel(space)
    fact = realize(kernel)
    phi = SimpleFunction(((1.0, space.subset("a")), (-0.5, space.subset("b", "c"))))
    r1 = ito_isometry_check(kernel, fact, phi, 50000, seed=8)
    r2 = ito_isometry_check(kernel, fact, phi, 50000, seed=8)
    r3 = ito_isometry_check(kernel, fact, phi, 50000, seed=8, workers=4)
    assert (r1.estimate, r1.std_error) == (r2.estimate, r2.std_error)
    assert (r1.estimate, r1.std_error) == (r3.estimate, r3.std_error)


# ---------------------------------------------------------------------------
# projections and refinement sweeps


def test_projection_of_adapted_function_is_exact(space):
    kernel = wiener_kernel(space)
    fact = realize(kernel)
    part = Partition((space.subset("a"), space.subset("b", "c")))
    # constant on blocks
    phi = SimpleFunction(((2.0, space.subset("a")), (3.0, space.subset("b", "c"))))
    q = projection_second_moment(fact, phi, part)
    assert q == pytest.approx(fact.s_norm_squared(phi), abs=1e-10)


def test_projection_hand_oracle(unit_space):
    sp = unit_space
    kernel = wiener_kernel(sp)
    fact = realize(kernel)
    phi = SimpleFunction(((1.0, sp.subset("a")), (2.0, sp.subset("b"))))
    # projection onto the constant: <phi, 1>^2 / w(X) = 9 / 3
    assert projection_second_moment(fact, phi, Partition((sp.full_set(),))) == pytest.approx(3.0, abs=1e-12)
    # full singleton span recovers the whole second moment
    assert projection_second_moment(fact, phi, Partition(sp.singletons())) == pytest.approx(5.0, abs=1e-12)


def test_projection_rejects_non_partition(space):
    kernel = wiener_kernel(space)
    fact = realize(kernel)
    bad = Partition((space.subset("a"),))
    with pytest.raises(DomainError):
        projection_second_moment(fact, SimpleFunction(()), bad)


def test_sweep_hand_oracle(unit_space):
    sp = unit_space
    kernel = wiener_kernel(sp)
    fact = realize(kernel)
    phi = SimpleFunction(((1.0, sp.subset("a")), (2.0, sp.subset("b"))))
    chain = [
        Partition((sp.full_set(),)),
        Partition((sp.subset("a"), sp.subset("b", "c"))),
        Partition(sp.singletons()),
    ]
    qs = refinement_sweep(fact, phi, chain)
    # middle level: c = (1, 2), block Gram diag(1, 2), q = 1 + 4/2
    np.testing.assert_allclose(qs, [3.0, 3.0, 5.0], atol=1e-12)
    assert all(qs[i] <= qs[i + 1] + 1e-10 for i in range(len(qs) - 1))


def test_sweep_constant_function_is_flat(unit_space):
    sp = unit_space
    kernel = wiener_kernel(sp)
    fact = realize(kernel)
    c = 1.7
    phi = SimpleFunction(((c, sp.full_set()),))
    chain = [
        Partition((sp.full_set(),)),
        Partition((sp.subset("a"), sp.subset("b", "c"))),
        Partition(sp.singletons()),
    ]
    qs = refinement_sweep(fact, phi, chain)
    np.testing.assert_allclose(qs, c**2 * sum(sp.weights), atol=1e-10)


def test_sweep_zero_function(unit_space):
    kernel = wiener_kernel(unit_space)
    fact = realize(kernel)
    chain = [Partition((unit_space.full_set(),)), Partition(unit_space.singletons())]
    qs = refinement_sweep(fact, SimpleFunction(()), chain)
    np.testing.assert_allclose(qs, [0.0, 0.0], atol=1e-15)


def test_sweep_rejects_non_refining_chain(unit_space):
    sp = unit_space
    kernel = wiener_kernel(sp)
    fact = realize(kernel)
    chain = [
        Partition((sp.subset("a"), sp.subset("b", "c"))),
        Partition((sp.subset("a", "b"), sp.subset("c"))),
    ]
    with pytest.raises(OrderingError):
        refinement_sweep(fact, SimpleFunction(()), chain)


def test_sweep_on_singular_gram():
    # Product kernel: block Grams are rank one but the projection is well defined.
    sp = MeasureSpace(("a", "b", "c"), (0.5, 0.3, 0.2))
    kernel = rank_one_kernel(sp)
    fact = realize(kernel)
    phi = SimpleFunction(((1.0, sp.subset("a")), (1.0, sp.subset("b", "c"))))
    chain = [Partition((sp.full_set(),)), Partition(sp.singletons())]
    qs = refinement_sweep(fact, phi, chain)
    assert qs[0] <= qs[1] + 1e-10
    assert qs[-1] == pytest.approx(fact.s_norm_squared(phi), abs=1e-9)


def test_block_vectors_parallel_in_a_rank_two_kernel_span_one_direction():
    # M = v1 v1^T + v2 v2^T / 2 on four unit atoms, with v2 = (1, -1, 1, -1) / 2 orthogonal to both blocks
    # of the middle partition: k_B1 = k_B2 = v1, so the roundoff direction beside them must be cut by the
    # rank rule, which q_1 = q_0 = 1/4 checks (keeping it read q_1 = 0.264)
    sp = MeasureSpace(("a", "b", "c", "d"), (1.0,) * 4)
    v1, v2 = np.full(4, 0.5), np.array([0.5, -0.5, 0.5, -0.5])
    fact = realize(operator_kernel(sp, np.outer(v1, v1) + 0.5 * np.outer(v2, v2)))
    chain = [
        Partition((sp.full_set(),)),
        Partition((sp.subset("a", "b"), sp.subset("c", "d"))),
        Partition(sp.singletons()),
    ]
    qs = refinement_sweep(fact, SimpleFunction(((1.0, sp.subset("a")),)), chain)
    np.testing.assert_allclose(qs, [0.25, 0.25, 0.375], atol=1e-12)


def _halving_chain(rng, space):
    """Partitions of 1, 2, 4 and ``space.size`` blocks of a random atom order; ``space.size`` a multiple of 4."""
    atoms = rng.permutation(space.size).tolist()
    return [
        Partition(tuple(MeasurableSet(atoms[i : i + space.size // k]) for i in range(0, space.size, space.size // k)))
        for k in (1, 2, 4, space.size)
    ]


@pytest.mark.parametrize("kappa", [1.0, 1e3, 1e6, 1e9, 1e12])
def test_every_sweep_level_is_the_exact_rational_projection_moment(kappa):
    # c^T pinv(G) c read up to 4.7e-9 of |phi|^2_w lambda_max, and 15 of these 60 configs past 1e-10;
    # the projection from the factor's SVD reads at most 1.9e-12 on them
    rng = np.random.default_rng([29, int(np.log10(kappa))])
    for _ in range(12):
        space = random_space(rng, 12)
        kernel = conditioned_operator_kernel(rng, space, kappa)
        chain = _halving_chain(rng, space)
        phi = SimpleFunction(tuple((float(rng.uniform(-2.0, 2.0)), random_set(rng, space)) for _ in range(3)))
        qs = refinement_sweep(realize(kernel), phi, chain)
        scale = space.norm_squared(phi.values(space.size)) * kernel.spectrum.top
        for level, (q, part) in enumerate(zip(qs, chain)):
            exact = exact_projection_moment(kernel, phi, part)
            assert abs(q - float(exact)) <= 1e-10 * scale, (level, q, float(exact), scale)


@pytest.mark.parametrize("kind", ["wiener", "rank_one", "operator"])
def test_a_null_atom_leaves_the_sweep_unchanged(kind):
    # z joins phi's first set and the last block of every partition but the singletons, where it is a block;
    # a splitting chain's last block holds the next one's, so the chain with z still refines
    rng = np.random.default_rng(["wiener", "rank_one", "operator"].index(kind))
    for _ in range(10):
        space = random_space(rng, 7)
        z = space.size
        null = MeasureSpace(space.atoms + ("z",), space.weights + (0.0,))
        if kind == "operator":
            M = np.zeros((z + 1, z + 1))
            M[:z, :z] = random_nu_psd_matrix(rng, space)
            kernels = operator_kernel(space, M[:z, :z]), operator_kernel(null, M)
        else:
            build = wiener_kernel if kind == "wiener" else rank_one_kernel
            kernels = build(space), build(null)
        chain = random_refinement_chain(rng, space, min_length=4)
        phi = random_simple_function(rng, space)
        Z = MeasurableSet({z})
        chain_z = [
            Partition(p.blocks + (Z,) if all(len(b) == 1 for b in p.blocks) else p.blocks[:-1] + (p.blocks[-1] | Z,))
            for p in chain
        ]
        (c0, A0), *rest = phi.terms
        phi_z = SimpleFunction(((c0, A0 | Z), *rest))
        qs = refinement_sweep(realize(kernels[0]), phi, chain)
        qs_z = refinement_sweep(realize(kernels[1]), phi_z, chain_z)
        scale = space.norm_squared(phi.values(z)) * kernels[0].spectrum.top
        np.testing.assert_allclose(qs_z, qs, rtol=0.0, atol=1e-13 * scale)


# ---------------------------------------------------------------------------
# the chunk engine: stream, folded reduction, helper threads, bad counts


def _mc_threads():
    return [t for t in threading.enumerate() if t.name.startswith("setkern-mc")]


def _thread_of_chunk(start, z):
    return threading.current_thread()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sample_is_the_per_chunk_stream(space, workers):
    family = [space.subset("a"), space.subset("b", "c"), space.subset("a", "b")]
    sampler = build_sampler(wiener_kernel(space), family, seed=21)
    n = 2 * CHUNK_SIZE + 100
    chunks = []
    for i, start in enumerate(range(0, n, CHUNK_SIZE)):
        rng = chunk_generator(21, i)
        chunks.append(rng.standard_normal((min(CHUNK_SIZE, n - start), sampler.rank)) @ sampler.factor.T)
    assert sampler.sample(n, workers=workers).tobytes() == np.vstack(chunks).tobytes()


def _chunk_normals(seed, chunks):
    """The normals ``_each_chunk`` draws at ``seed`` for each of ``chunks`` chunks of one column, in chunk order."""
    return setkern.field._each_chunk(seed, chunks * CHUNK_SIZE, 1, lambda start, z: z.copy(), 1)


def test_a_seed_past_32_bits_keys_chunks_of_its_own():
    # keyed by the entropy [seed, i], whose trailing zero word SeedSequence drops, seed s + t * 2**32 chunk 0 is seed s chunk t
    s, t = 5, 7
    assert not np.array_equal(_chunk_normals(s + t * 2**32, 1)[0], _chunk_normals(s, t + 1)[t])
    top = _chunk_normals(2**64 - 1, 2)
    assert np.array_equal(top[1], chunk_generator(2**64 - 1, 1).standard_normal((CHUNK_SIZE, 1)))
    assert not np.array_equal(top[0], top[1])


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_chunk_keys_are_the_state_words_of_the_spawned_seed_sequences(seed):
    # one pass over every chunk, on SeedSequence's frozen hash, in place of one SeedSequence per chunk
    expected = [np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(3, np.uint64) for i in range(300)]
    keys = setkern.field._chunk_keys(seed, 300)
    assert keys.dtype == np.uint64 and keys.flags.c_contiguous
    assert keys.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("seed", [-1, 2**64, 2.5, True, "7"])
def test_a_seed_outside_64_bits_or_not_an_integer_is_rejected(space, seed):
    kernel = wiener_kernel(space)
    fact = realize(kernel)
    phi = SimpleFunction(((1.0, space.subset("a")),))
    # seed -1 raised OverflowError, and 2.5 was truncated to 2
    with pytest.raises(DomainError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        build_sampler(kernel, [space.subset("a")], seed=seed)
    for check, integrands in ((ito_isometry_check, (phi,)), (cross_moment_check, (phi, phi))):
        with pytest.raises(DomainError, match="seed must be"):
            check(kernel, fact, *integrands, 10, seed=seed)


def _moments(values):
    n = len(values)
    mean = values.mean()
    var = (np.mean(values * values) - mean * mean) * n / (n - 1) if n > 1 else 0.0
    return mean, np.sqrt(var / n)


def _pair(sampler, coef):
    """``(a, b)`` of the check's pair, ``b`` None for the isometry."""
    a = sampler.factor.T @ coef[0]
    return a, (sampler.factor.T @ coef[1] if len(coef) > 1 else None)


@pytest.mark.parametrize("n", [1, CHUNK_SIZE - 1, 3 * CHUNK_SIZE + 17])
def test_folded_moments_match_the_sampled_field_for_any_worker_count(n):
    rng = np.random.default_rng(22)
    sp = random_space(rng, 5)
    kernel = wiener_kernel(sp)
    fact = realize(kernel)
    phi, psi = random_simple_function(rng, sp), random_simple_function(rng, sp)
    for check, integrands in ((ito_isometry_check, (phi,)), (cross_moment_check, (phi, psi))):
        results = [check(kernel, fact, *integrands, n, seed=23, workers=w) for w in (1, 2, 3)]
        assert len({(r.estimate, r.std_error) for r in results}) == 1
        family = list(dict.fromkeys(phi.sets() + integrands[-1].sets()))
        sampler = build_sampler(kernel, family, seed=23)
        coef = [setkern.field._coefficients(f, sampler) for f in integrands]
        R = projected_factor(*_pair(sampler, coef))
        # the projected pair has the law of (Z_phi, Z_psi) in the sampled field
        C, M = np.array([coef[0], coef[-1]]), R[:, [0, -1]]
        cov = C @ sampler.gram.entries @ C.T
        np.testing.assert_allclose(M.T @ M, cov, rtol=0, atol=1e-10 * np.abs(cov).max())
        # and the check's moments are those of the field sampled from the factor R^T, on the same keys
        pair = dataclasses.replace(sampler, family=sampler.family[:1] * R.shape[1], factor=R.T)
        draws = pair.sample(n)
        mean, se = _moments(draws[:, 0] * draws[:, -1])
        assert results[0].estimate == pytest.approx(mean, rel=1e-12)
        assert results[0].std_error == pytest.approx(se, rel=1e-12)


def _rank_cases():
    sp = MeasureSpace(tuple("abcdef"), (1.0, 2.0, 0.5, 1.5, 0.7, 3.0))
    phi = SimpleFunction(((1.0, sp.subset("a", "b")), (2.0, sp.subset("c")), (-0.7, sp.subset("d", "e", "f"))))
    psi = SimpleFunction(((0.5, sp.subset("a", "b", "c")), (-1.0, sp.subset("d", "e", "f"))))
    chain = random_conductance_chain(np.random.default_rng(24), 6)
    singletons = list(chain.space.singletons())
    phi6 = SimpleFunction(tuple((0.3 * i - 0.8, s) for i, s in enumerate(singletons)))
    psi6 = SimpleFunction(((1.2, singletons[0] | singletons[3]), (-0.4, singletons[5])))
    return {
        "rank_one": (rank_one_kernel(sp), phi, psi, 1),
        "wiener": (wiener_kernel(sp), phi, psi, 3),
        "green": (green_kernel(chain), phi6, psi6, 6),
    }


@pytest.mark.parametrize("case", ["rank_one", "wiener", "green"])
@pytest.mark.parametrize("n", [1, CHUNK_SIZE, 3 * CHUNK_SIZE + 17])
def test_moment_checks_are_the_per_chunk_stream_to_the_bit(case, n):
    kernel, phi, psi, rank = _rank_cases()[case]
    fact = realize(kernel)
    for check, integrands in ((ito_isometry_check, (phi,)), (cross_moment_check, (phi, psi))):
        sampler = build_sampler(kernel, dict.fromkeys(phi.sets() + integrands[-1].sets()), seed=25)
        assert sampler.rank == rank
        coef = [setkern.field._coefficients(f, sampler) for f in integrands]
        mean, se, d = projected_moment(25, *_pair(sampler, coef), n)
        assert d == (1 if check is ito_isometry_check else min(rank, 2))
        for workers in (1, 2, 3):
            result = check(kernel, fact, *integrands, n, seed=25, workers=workers)
            assert (result.estimate, result.std_error, result.normals) == (mean, se, n * d)


@pytest.mark.parametrize("workers, n", [(1, 50000), (2, 50000), (3, 50000), (64, 20000)])
def test_each_call_runs_its_chunks_on_its_own_threads(workers, n):
    # a shared pool could hand both strides of a two-worker call to one idle thread
    chunks = -(-n // CHUNK_SIZE)
    caller = threading.current_thread()
    for _ in range(300):
        ran = setkern.field._each_chunk(0, n, 1, _thread_of_chunk, workers)
        # Thread objects, not idents: an ident is reused once a helper exits
        assert len(set(ran)) == min(workers, chunks)
        assert ran[0] is caller
        assert _mc_threads() == []


def test_threads_are_capped_at_the_chunk_count(space, monkeypatch):
    ran = set()
    each_chunk = setkern.field._each_chunk

    def recording(seed, n, rank, work, workers):
        def traced(start, z):
            ran.add(threading.current_thread())
            return work(start, z)

        return each_chunk(seed, n, rank, traced, workers)

    monkeypatch.setattr(setkern.field, "_each_chunk", recording)
    sampler = build_sampler(wiener_kernel(space), [space.subset("a")], seed=0)
    draws = sampler.sample(20000, workers=64)  # 3 chunks
    assert len(ran) == 3
    assert np.array_equal(draws, sampler.sample(20000))


def _record_widths(monkeypatch) -> list[int]:
    """The draw width of every ``_each_chunk`` call from now on, in call order."""
    widths = []
    each_chunk = setkern.field._each_chunk

    def recording(seed, n, width, work, workers):
        widths.append(width)
        return each_chunk(seed, n, width, work, workers)

    monkeypatch.setattr(setkern.field, "_each_chunk", recording)
    return widths


@pytest.mark.parametrize("case", ["rank_one", "wiener", "green"])
def test_moment_checks_draw_only_the_columns_their_pair_spans(case, monkeypatch):
    kernel, phi, psi, rank = _rank_cases()[case]
    fact = realize(kernel)
    widths = _record_widths(monkeypatch)
    iso = ito_isometry_check(kernel, fact, phi, 1000, seed=26, workers=2)
    cross = cross_moment_check(kernel, fact, phi, psi, 1000, seed=26, workers=2)
    build_sampler(kernel, dict.fromkeys(phi.sets() + psi.sets()), seed=26).sample(1000)
    assert widths == [1, min(rank, 2), rank]
    assert (iso.normals, cross.normals) == (1000, 1000 * min(rank, 2))


def test_a_zero_integrand_draws_the_same_width_and_estimates_zero(space, monkeypatch):
    kernel = wiener_kernel(space)
    fact = realize(kernel)
    zero = SimpleFunction(((0.0, space.subset("a", "b")),))
    phi = SimpleFunction(((1.0, space.subset("a")), (2.0, space.subset("b", "c"))))
    widths = _record_widths(monkeypatch)
    results = [
        ito_isometry_check(kernel, fact, zero, 5000, seed=27),
        cross_moment_check(kernel, fact, zero, phi, 5000, seed=27),
        cross_moment_check(kernel, fact, phi, zero, 5000, seed=27),
    ]
    assert widths == [1, 2, 2]  # the family {a, b}, {a}, {b, c} has rank 3
    for res in results:
        assert (res.estimate, res.std_error, res.exact) == (0.0, 0.0, 0.0)
        assert res.within(5.0)


@pytest.mark.parametrize("weights, rank", [((1.0, 2.0), 1), ((1.0, 0.0), 0)])
def test_a_sampler_of_rank_at_most_one_draws_its_rank_for_the_cross_moment(weights, rank, monkeypatch):
    # the reduced QR of a rank x 2 matrix has rank rows
    sp = MeasureSpace(("a", "b"), weights)
    kernel = rank_one_kernel(sp)
    fact = realize(kernel)
    phi = SimpleFunction(((1.0, sp.subset("b")),))
    psi = SimpleFunction(((-2.0, sp.subset("b")),))
    assert build_sampler(kernel, [sp.subset("b")], seed=28).rank == rank
    widths = _record_widths(monkeypatch)
    res = cross_moment_check(kernel, fact, phi, psi, 20000, seed=28)
    assert widths == [rank]
    assert res.normals == 20000 * rank
    assert res.exact == pytest.approx(-2.0 * weights[1] ** 2, abs=1e-12)
    assert res.within(5.0)


def test_an_error_on_a_helper_chunk_is_raised_by_the_call():
    def work(start, z):
        if start == CHUNK_SIZE:  # chunk 1 runs on the first helper
            raise ValueError("chunk 1 failed")
        return threading.current_thread()

    with pytest.raises(ValueError, match="chunk 1 failed"):
        setkern.field._each_chunk(0, 3 * CHUNK_SIZE, 1, work, 3)
    assert _mc_threads() == []


@pytest.mark.parametrize("n", [-5, 0, 2.5])
def test_a_moment_check_needs_a_positive_integer_count(space, n):
    kernel = wiener_kernel(space)
    fact = realize(kernel)
    phi = SimpleFunction(((1.0, space.subset("a")),))
    # n = -5 returned estimate -0.0 over n_samples -5, and n = 0 divided by zero
    for check, integrands in ((ito_isometry_check, (phi,)), (cross_moment_check, (phi, phi))):
        with pytest.raises(DomainError, match="n must be"):
            check(kernel, fact, *integrands, n, seed=0)


def test_sample_needs_a_nonnegative_count(space):
    sampler = build_sampler(wiener_kernel(space), [space.subset("a")], seed=0)
    assert sampler.sample(0).shape == (0, 1)
    with pytest.raises(DomainError, match="n must be"):
        sampler.sample(-3)


@pytest.mark.parametrize("argument, value", [("n", True), ("n", 2**40), ("n", 2**70), ("workers", True), ("workers", 2.0)])
def test_a_count_outside_the_integer_domain_raises_naming_the_argument(space, argument, value):
    # True ran as 1, n = 2**40 was accepted and n = 2**70 ended in MemoryError
    kernel = wiener_kernel(space)
    fact = realize(kernel)
    phi = SimpleFunction(((1.0, space.subset("a")),))
    counts = {"n": 10, "workers": 1, argument: value}
    match = rf"^{argument} must be an integer in \["
    with pytest.raises(DomainError, match=match):
        build_sampler(kernel, [space.subset("a")], seed=0).sample(**counts)
    for check, integrands in ((ito_isometry_check, (phi,)), (cross_moment_check, (phi, phi))):
        with pytest.raises(DomainError, match=match):
            check(kernel, fact, *integrands, seed=0, **counts)


@pytest.mark.parametrize("workers", [0, -1])
def test_worker_count_must_be_positive(space, workers):
    kernel = wiener_kernel(space)
    fact = realize(kernel)
    phi = SimpleFunction(((1.0, space.subset("a")),))
    sampler = build_sampler(kernel, [space.subset("a")], seed=0)
    with pytest.raises(DomainError, match="workers must be"):
        sampler.sample(10, workers=workers)
    with pytest.raises(DomainError, match="workers must be"):
        ito_isometry_check(kernel, fact, phi, 10, seed=0, workers=workers)


def test_concurrent_callers_growing_the_pool_get_the_serial_results(space):
    family = [space.subset("a"), space.subset("b", "c")]
    sampler = build_sampler(wiener_kernel(space), family, seed=31)
    n = 4 * CHUNK_SIZE + 3
    expected = sampler.sample(n)
    results, errors = {}, []

    def caller(workers):
        try:
            for _ in range(3):
                results.setdefault(workers, []).append(sampler.sample(n, workers=workers))
        except Exception as e:  # reported by the main thread
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(w,)) for w in (2, 3, 4, 5)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert errors == []
    assert all(np.array_equal(draws, expected) for runs in results.values() for draws in runs)
    assert sorted(len(runs) for runs in results.values()) == [3, 3, 3, 3]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_a_forked_child_starts_its_own_pool(space):
    # a forked child inherits none of its parent's threads; its threaded calls start their own
    sampler = build_sampler(wiener_kernel(space), [space.subset("a"), space.subset("b")], seed=1)
    expected = sampler.sample(20000, workers=2)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(30)
            code = 0 if np.array_equal(sampler.sample(20000, workers=2), expected) else 2
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
