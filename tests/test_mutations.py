"""Every report row can fail: the rows that each mutation of the library fails.

Each mutation breaks one library internal by ``monkeypatch``, as a defect
would; nothing in ``setkern`` knows of it.  Each config runs every command
through ``support.cli_outcome``, and a cell of the table is the set of rows
that fail over all of those commands.  A row that fails under no mutation
cannot see anything, and a change that leaves a row blind changes its cells.

Two cells mark what the rows cannot see yet: the root at ``1 + 1e-10`` and
the sampler factor at ``1 + 1e-3`` pass every row.
"""

from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import yaml

from setkern import factorization, field, kernels, markov
from setkern.cli import CHECKS, COMMANDS, LEVELS
from setkern.kernels import SetKernel
from setkern.markov import MarkovChain
from support import cli_outcome, random_operator_config

SHIPPED = Path(__file__).resolve().parent.parent / "configs"


CHAIN = """\
space: {atoms: [s0, s1, s2, s3, s4, s5]}
chain:
  edges: [[s0, s1, 1.0], [s1, s2, 0.5], [s2, s3, 2.0], [s3, s4, 1.0], [s4, s5, 0.25], [s5, s0, 1.5], [s1, s4, 0.75]]
  kill: {s0: 0.5, s3: 0.2}
kernel: {type: green}
family: [[s0, s1], [s2, s3, s4]]
phi: [[1.0, [s0]], [-0.5, [s2, s3]]]
psi: [[2.0, [s1, s5]]]
partitions: [[[s0, s1, s2, s3, s4, s5]], [[s0, s1, s2], [s3, s4, s5]], [[s0], [s1], [s2], [s3], [s4], [s5]]]
mc: {seed: 6}
"""

CONFIGS = {
    **{p.stem: p.read_text() for p in sorted(SHIPPED.glob("*.yaml"))},
    "operator-48": yaml.safe_dump({**random_operator_config(np.random.default_rng(48), 48, zero_atoms=2), "mc": {"seed": 48}}),
    "chain-6": CHAIN,
}


# ---------------------------------------------------------------------------
# the mutations: each takes monkeypatch and breaks one internal


def _root(change):
    """``realize`` returns the root ``change(S, w)``; its residual is the true root's, so ``realization`` passes."""
    realize = factorization.realize

    def mutated(monkeypatch):
        monkeypatch.setattr(factorization, "realize", lambda kernel, tol: replace(
            fact := realize(kernel, tol=tol), S=change(fact.S, kernel.space.weight_array)))

    return mutated


def _root_term(S, w, symmetric):
    """``S + D^{-1} E`` on the positive atoms, ``E`` symmetric or antisymmetric of size ``1e-8 max|D S|``."""
    E = np.random.default_rng(0).standard_normal(S.shape)
    E = E + E.T if symmetric else E - E.T
    E *= 1e-8 * np.abs(w[:, None] * S).max() / np.abs(E).max()
    pos = w > 0
    term = np.zeros_like(S)
    term[np.ix_(pos, pos)] = E[np.ix_(pos, pos)] / w[pos, None]
    return S + term


def _b_star_by_w2(monkeypatch):
    monkeypatch.setattr(factorization, "coisometry_b_star", lambda fact, phi, sets: (
        np.asarray(phi, dtype=float) * fact.space.weight_array**2) @ fact.k_rows(sets).T)


def _sampler(c):
    build = field.build_sampler

    def mutated(monkeypatch):
        monkeypatch.setattr(field, "build_sampler", lambda kernel, family, seed: replace(
            sampler := build(kernel, family, seed), factor=c * sampler.factor))

    return mutated


def _green_root(monkeypatch):
    root = markov.green_root
    monkeypatch.setattr(markov, "green_root", lambda chain: (1 + 1e-6) * root(chain))


def _green_function(monkeypatch):
    """``G`` and its series both ``1 + 1e-6`` times too large, so they still agree."""
    solve, series = MarkovChain._green.func, markov._neumann_sum
    monkeypatch.setattr(MarkovChain, "_green", property(lambda chain: (1 + 1e-6) * solve(chain)))
    monkeypatch.setattr(markov, "_neumann_sum", lambda P, terms: (1 + 1e-6) * series(P, terms))


def _gram_of(change):
    """Every Gram the CLI forms is that of the atom Gram ``change(Q)``; ``Q`` itself is unchanged."""
    gram = kernels.gram

    def mutated(monkeypatch):
        monkeypatch.setattr(kernels, "gram", lambda kernel, sets: gram(
            SetKernel(kernel.space, change(kernel.Q.copy(), np.abs(kernel.Q).max())), sets))

    return mutated


def _asymmetric(Q, scale):
    Q[0, 1] += 1e-8 * scale
    return Q


def _indefinite(Q, scale):
    Q[0, 0] -= 2 * scale
    return Q


def _kernel(change):
    """Every kernel is built with the atom Gram ``change(Q, w)``."""
    init = SetKernel.__post_init__

    def post_init(kernel):
        init(kernel)
        object.__setattr__(kernel, "Q", change(kernel.Q.copy(), kernel.space.weight_array))

    return lambda monkeypatch: monkeypatch.setattr(SetKernel, "__post_init__", post_init)


def _charge_null_atoms(Q, w):
    Q[w == 0, w == 0] += 1e-6 * np.abs(Q).max()
    return Q


def _bump_first_atom(Q, w):
    Q[0, 0] += 1e-6 * np.abs(Q).max()
    return Q


def _transitions(change):
    """Every chain runs on ``change(P)``, past the checks of its constructor."""
    init = MarkovChain.__post_init__

    def post_init(chain):
        init(chain)
        object.__setattr__(chain, "transitions", change(chain.transitions.copy()))

    return lambda monkeypatch: monkeypatch.setattr(MarkovChain, "__post_init__", post_init)


def _norm_past_one(P):
    return P * (1 + 1e-6) / np.abs(np.linalg.eigvals(P)).max()


def _unbalanced(P):
    P[0, 1] *= 1 + 1e-6
    return P


def _sweep(change):
    sweep = field.refinement_sweep
    return lambda monkeypatch: monkeypatch.setattr(field, "refinement_sweep", lambda *args: change(sweep(*args)))


MUTATIONS = {
    "none": lambda monkeypatch: None,
    "root x (1 + 1e-6)": _root(lambda S, w: (1 + 1e-6) * S),
    "root x (1 + 1e-10)": _root(lambda S, w: (1 + 1e-10) * S),
    "nu-antisymmetric root term 1e-8": _root(partial(_root_term, symmetric=False)),
    "nu-selfadjoint root term 1e-8": _root(partial(_root_term, symmetric=True)),
    "b* weighted by w^2": _b_star_by_w2,
    "sampler factor x (1 + 1e-3)": _sampler(1 + 1e-3),
    "sampler factor x (1 + 5e-2)": _sampler(1 + 5e-2),
    "Green root x (1 + 1e-6)": _green_root,
    "Green function x (1 + 1e-6) in solve and series": _green_function,
    "asymmetric Gram": _gram_of(_asymmetric),
    "indefinite Gram": _gram_of(_indefinite),
    "kernel charges the null atoms": _kernel(_charge_null_atoms),
    "first diagonal entry of Q + 1e-6 max|Q|": _kernel(_bump_first_atom),
    "transitions scaled to norm 1 + 1e-6": _transitions(_norm_past_one),
    "one transition x (1 + 1e-6)": _transitions(_unbalanced),
    "sweep reversed": _sweep(lambda qs: qs[::-1]),
    "sweep x (1 + 1e-6)": _sweep(lambda qs: [(1 + 1e-6) * q for q in qs]),
    "first sweep level nan": _sweep(lambda qs: [float("nan"), *qs[1:]]),
}


# ---------------------------------------------------------------------------
# the table

CONFIG_ERRORS = {
    "counting-null-atom": "markov-green simulate refine-sweep",
    "rank-one": "markov-green simulate refine-sweep",
    "stochastic-chain": "simulate refine-sweep",
    "two-state-green": "refine-sweep",
    "wiener": "markov-green",
    "operator-48": "markov-green",
    "chain-6": "",
}
"""The commands each config does not support: each ends in a config error, under every mutation."""

BASELINE = {
    "counting-null-atom": "absolute-continuity",
    "stochastic-chain": "transience spectral-gap green-identity series-solve green-psd green-factor",
}
"""The rows each config fails unmutated; a config left out fails none."""

ROOT = "density-consistency isometry parseval"
TABLE = {
    "none": {},
    "root x (1 + 1e-6)": {c: ROOT for c in ("rank-one", "two-state-green", "wiener", "operator-48", "chain-6")},
    "root x (1 + 1e-10)": {},
    "nu-antisymmetric root term 1e-8": {
        **{c: f"adjoint {ROOT}" for c in ("rank-one", "two-state-green", "operator-48", "chain-6")},
        "wiener": "adjoint density-consistency",
    },
    "nu-selfadjoint root term 1e-8": {c: ROOT for c in ("rank-one", "two-state-green", "wiener", "operator-48", "chain-6")},
    # two-state-green has unit weights, so w^2 = w there
    "b* weighted by w^2": {c: "adjoint parseval" for c in ("rank-one", "wiener", "operator-48", "chain-6")},
    "sampler factor x (1 + 1e-3)": {},
    "sampler factor x (1 + 5e-2)": {
        **{c: "ito-isometry" for c in ("two-state-green", "operator-48", "chain-6")},
        "wiener": "ito-isometry cross-moment",
    },
    "Green root x (1 + 1e-6)": {c: "green-factor" for c in ("two-state-green", "chain-6")},
    "Green function x (1 + 1e-6) in solve and series": {c: "green-identity green-factor" for c in ("two-state-green", "chain-6")},
    "asymmetric Gram": {
        **{c: "symmetry" for c in ("two-state-green", "wiener", "operator-48", "chain-6")},
        "counting-null-atom": "symmetry absolute-continuity",
        "rank-one": "symmetry gram-psd schwarz",  # the Gram of a rank-one kernel has no room for the symmetric half
    },
    "indefinite Gram": {
        **{c: "gram-psd schwarz" for c in ("rank-one", "wiener", "operator-48")},
        **{c: "gram-psd schwarz green-psd" for c in ("two-state-green", "chain-6")},
        "counting-null-atom": "gram-psd schwarz absolute-continuity",
    },
    # a refine-sweep realizes without validating, so only its realization fails
    "kernel charges the null atoms": {"operator-48": "absolute-continuity realization"},
    # the rank-one kernel gains a rank, and a Green kernel leaves its chain's root
    "first diagonal entry of Q + 1e-6 max|Q|": {"rank-one": "range-rank", **{c: "green-factor" for c in ("two-state-green", "chain-6")}},
    # neither mutated chain has a Green kernel, so every row that reads one fails
    "transitions scaled to norm 1 + 1e-6": {
        "stochastic-chain": f"contractivity {BASELINE['stochastic-chain']}",
        "two-state-green": "contractivity transience symmetry gram-psd schwarz absolute-continuity spectral-gap "
                           "green-identity series-solve green-psd green-factor",
        "chain-6": "contractivity transience symmetry gram-psd schwarz absolute-continuity realization spectral-gap "
                   "green-identity series-solve green-psd green-factor",
    },
    "one transition x (1 + 1e-6)": {
        "stochastic-chain": f"detailed-balance contractivity {BASELINE['stochastic-chain']}",
        "two-state-green": "detailed-balance symmetry gram-psd schwarz absolute-continuity spectral-gap green-psd green-factor",
        "chain-6": "detailed-balance symmetry gram-psd schwarz absolute-continuity realization spectral-gap green-psd "
                   "green-factor",
    },
    "sweep reversed": {c: "q-monotone q-attained" for c in ("wiener", "operator-48", "chain-6")},
    "sweep x (1 + 1e-6)": {c: "q-bound q-attained" for c in ("wiener", "operator-48", "chain-6")},
    "first sweep level nan": {c: "q-level-0 q-monotone" for c in ("wiener", "operator-48", "chain-6")},
}
"""The rows each mutation fails, by config; a config left out fails exactly its ``BASELINE`` rows."""


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_the_rows_each_mutation_fails(tmp_path, monkeypatch, mutation):
    MUTATIONS[mutation](monkeypatch)
    runs = {c: {command: cli_outcome(tmp_path, command, text) for command, *_ in COMMANDS} for c, text in CONFIGS.items()}
    # the commands that end in a config error, and the rows that fail over every other command
    assert {c: {m for m, run in r.items() if run.code == 2} for c, r in runs.items()} == {
        c: set(CONFIG_ERRORS[c].split()) for c in CONFIGS}
    failed = {c: {check for run in r.values() for check, status in run.statuses if status == "fail"} for c, r in runs.items()}
    expected = {c: TABLE[mutation].get(c, BASELINE.get(c, "")) for c in CONFIGS}
    assert failed == {c: set(rows.split()) for c, rows in expected.items()}


def test_every_row_fails_under_some_mutation_where_it_passes_unmutated():
    caught = {
        LEVELS if row.startswith("q-level-") else row
        for cells in TABLE.values() for c, rows in cells.items() for row in set(rows.split()) - set(BASELINE.get(c, "").split())
    }
    assert caught == {*CHECKS, LEVELS}
    assert set(TABLE) == set(MUTATIONS)


def test_the_known_blind_spots_pass_every_row():
    # a root 1e-10 off is below every factorize bound, and a sampler covariance 2e-3 off is below
    # the Monte Carlo resolution at 200000 samples; a row that can see either flips its cell
    assert TABLE["root x (1 + 1e-10)"] == TABLE["sampler factor x (1 + 1e-3)"] == {}
