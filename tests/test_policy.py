from __future__ import annotations

import math
import re
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banditriage.policy import (
    ArmPredicate,
    ArmSpec,
    PolicyConfig,
    PolicyError,
    Sampler,
    Selection,
    UncoveredCandidateError,
    rank_candidates,
    select,
    split_budget,
    thompson_allocate,
    update_arm,
)
from banditriage.records import FEATURE_NAMES, PATTERN_FEATURES
from banditriage.scoring import (PATTERN_CODES, ModelKind, RiskModel, rule_based_model,
                                 score_matrix)
from banditriage.seeds import derive_seed

from banditriage.synthgen import generate_cohort

from conftest import (codes_of, feature_array, pool_model, pool_policy, small_params,
                      traced_peak)


def linear_model(**kv):
    return RiskModel(kind=ModelKind.LINEAR, weights=feature_array(**kv), bias=0.0)


def pool_of(vectors):
    """A pool of the feature vectors: record ids 0.., and their pattern codes."""
    ids = np.arange(len(vectors), dtype=np.int64)
    return ids, codes_of(np.stack(vectors)).astype(np.uint16)


def ranked_ids(model, ids, X, seed):
    """The pool's ids in the model's seeded ranking order."""
    return ids[rank_candidates(score_matrix(model, PATTERN_CODES), X, len(X), seed)]


def picked_ids(sel, ids):
    """A selection's (exploit, explore) record ids from the pool with these ids."""
    picks = ids[sel.positions].tolist()
    return picks[:sel.n_exploit], picks[sel.n_exploit:]


def allocate(arms, k, patterns, seed):
    """thompson_allocate's picks as (pool position, arm name) pairs, and its shortfall."""
    chosen, arm, shortfall = thompson_allocate(arms, k, patterns, seed)
    assert len(chosen) == len(arm)
    return list(zip(chosen.tolist(), [arms[i].name for i in arm.tolist()])), shortfall


class TestSplitBudget:
    def test_thirty_percent_exploration(self):
        assert split_budget(1000, 0.3) == (700, 300)

    def test_pure_exploitation(self):
        assert split_budget(1000, 0.0) == (1000, 0)

    def test_floor_favors_exploitation(self):
        assert split_budget(7, 0.5) == (4, 3)

    @pytest.mark.parametrize("capacity", [0, 1, 13, 999])
    @pytest.mark.parametrize("rho", [0.0, 0.1, 0.33, 0.5, 0.999, 1.0])
    def test_parts_sum_to_capacity(self, capacity, rho):
        k_exploit, k_explore = split_budget(capacity, rho)
        assert k_exploit + k_explore == capacity
        assert k_explore <= rho * capacity

    def test_bad_inputs(self):
        with pytest.raises(PolicyError):
            split_budget(-1, 0.5)
        with pytest.raises(PolicyError):
            split_budget(10, 1.5)

    def test_capacity_up_to_the_largest_float(self):
        largest = int(sys.float_info.max)
        assert split_budget(largest, 1.0) == (0, largest)
        for capacity in (largest + 1, 10**400):
            with pytest.raises(PolicyError, match="capacity must not exceed"):
                split_budget(capacity, 0.3)
            with pytest.raises(PolicyError, match="capacity must not exceed"):
                PolicyConfig(capacity=capacity)


class TestRankCandidates:
    def test_descending_scores(self):
        ids, X = pool_of([
            feature_array(cough=1),                       # rule score 1
            feature_array(contact_with_confirmed=1, cough=1),  # rule score 3
            feature_array(fever=1, cough=1),              # rule score 2
        ])
        ranked = ranked_ids(rule_based_model(), ids, X, seed=0)
        assert ranked.tolist() == [1, 2, 0]

    def test_contact_outranks_fever_only(self):
        ids, X = pool_of([feature_array(fever=1), feature_array(contact_with_confirmed=1)])
        ranked = ranked_ids(rule_based_model(), ids, X, seed=4)
        assert ranked.tolist() == [1, 0]

    def test_ties_reproducible_and_seed_dependent(self):
        ids, X = pool_of([feature_array() for _ in range(50)])  # all score 0
        a = ranked_ids(rule_based_model(), ids, X, seed=1)
        b = ranked_ids(rule_based_model(), ids, X, seed=1)
        c = ranked_ids(rule_based_model(), ids, X, seed=2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert sorted(a.tolist()) == list(range(50))

    def test_tie_breaking_is_unbiased(self):
        # Input-order bias check: over many seeds, each of 10 tied candidates
        # lands in first place with frequency within 3 sigma of 1/10.
        ids, X = pool_of([feature_array() for _ in range(10)])
        model = rule_based_model()
        first = np.zeros(10)
        trials = 4000
        for s in range(trials):
            first[ranked_ids(model, ids, X, seed=s)[0]] += 1
        freq = first / trials
        sigma = np.sqrt(0.1 * 0.9 / trials)
        assert np.all(np.abs(freq - 0.1) < 3 * sigma)

    def test_empty_pool_rejected(self):
        with pytest.raises(PolicyError):
            rank_candidates(score_matrix(rule_based_model(), PATTERN_CODES), np.zeros(0, np.uint16),
                            k=0, seed=0)

    def test_top_k_is_prefix_of_full_ranking(self):
        # select's exploit set at capacity k is the first k of the one seeded
        # ranking of the pool, whatever k is.
        ids, X = pool_of([feature_array(cough=c, fever=f) for c in (0, 1) for f in (0, 1)] * 25)
        model = rule_based_model()
        for seed in range(5):
            full = ranked_ids(model, ids, X, seed)
            assert sorted(full.tolist()) == list(range(100))
            assert np.all(np.diff(score_matrix(model, X)[full]) <= 0)
            for k in (1, 30, 100, 150):
                sel = select(X, model, uniform_config(k, 0.0), seed=seed)
                assert picked_ids(sel, ids) == (full[:k].tolist(), [])


_PALETTE = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, np.nan]) | st.floats()


@settings(max_examples=300, deadline=None)
@given(st.lists(_PALETTE, min_size=1, max_size=8), st.integers(1, 2000), st.data(),
       st.integers(0, 2**32 - 1))
@example([0.0, -0.0, np.nan], 2000, None, 7).via("every k: both zeros and NaN tie in groups")
def test_rank_candidates_is_the_float_ranking_prefix(palette, n, data, seed):
    # The reference ranks the rows themselves: the same pre-shuffle, then a
    # stable float sort of the negated scores (NaN last, -0.0 equal to 0.0),
    # cut at k. The code scores repeat a few values, so groups are large.
    rng = np.random.default_rng(seed)
    code_scores = np.array(palette)[rng.integers(len(palette), size=len(PATTERN_CODES))]
    patterns = rng.integers(0, len(PATTERN_CODES), size=n).astype(np.uint16)
    perm = np.random.default_rng(derive_seed(seed, "rank")).permutation(n)
    reference = perm[np.argsort(-code_scores[patterns][perm], kind="stable")]
    ks = range(n + 2) if data is None else [data.draw(st.integers(0, n + 1), label="k")]
    for k in ks:
        ranked = rank_candidates(code_scores, patterns, k, seed)
        assert ranked.tolist() == reference[:k].tolist()


def test_thompson_select_peak_memory_is_bounded_per_row():
    # A 50k-row pool at capacity 6000 with Thompson exploration: only the
    # exploit prefix is sorted, on uint16 score-group keys, and each arm's
    # members are shuffled in int32. Sorting the whole pool by its float
    # scores peaked near 47 bytes a row.
    cohort = generate_cohort(small_params(n_per_week=25_000, weeks=(1, 2), seed=5))
    pool = np.concatenate([cohort.week_patterns(week) for week in cohort.weeks])
    model, config = pool_model(), pool_policy()
    select(pool, model, config, seed=1)
    sel, peak = traced_peak(lambda: select(pool, model, config, seed=1))
    assert peak <= 32 * len(pool)
    assert len(sel.positions) == config.capacity and sel.n_exploit == 3600


def uniform_config(capacity, rho, **kv):
    return PolicyConfig(capacity=capacity, exploration_fraction=rho,
                        sampler=Sampler.UNIFORM_RANDOM, **kv)


class TestSelect:
    def make_pool(self, n=100, seed=0):
        rng = np.random.default_rng(seed)
        vecs = []
        for _ in range(n):
            fv = feature_array(
                cough=int(rng.random() < 0.4),
                fever=int(rng.random() < 0.3),
                contact_with_confirmed=int(rng.random() < 0.2),
            )
            if fv[5] == 0.0:
                fv[7] = 1.0
            vecs.append(fv)
        return pool_of(vecs)

    def test_pure_exploitation_is_top_k(self):
        ids, X = self.make_pool()
        config = uniform_config(20, 0.0)
        sel = select(X, rule_based_model(), config, seed=5)
        ranked = ranked_ids(rule_based_model(), ids, X, seed=5)
        assert picked_ids(sel, ids) == (ranked[:20].tolist(), [])

    def test_pure_exploration_is_uniform_sample(self):
        ids, X = self.make_pool()
        sel = select(X, rule_based_model(), uniform_config(20, 1.0), seed=5)
        exploit, explore = picked_ids(sel, ids)
        assert exploit == []
        assert len(explore) == 20
        assert len(set(explore)) == 20
        assert sel.arm.tolist() == [-1] * 20

    def test_small_pool_selected_in_full(self):
        ids, X = self.make_pool(n=50)
        sel = select(X, rule_based_model(), uniform_config(100, 0.3), seed=5)
        assert sorted(ids[sel.positions].tolist()) == list(range(50))

    def test_disjoint_and_within_capacity(self):
        ids, X = self.make_pool(n=200)
        for rho in (0.0, 0.25, 0.5, 1.0):
            sel = select(X, rule_based_model(), uniform_config(60, rho), seed=9)
            exploit, explore = picked_ids(sel, ids)
            assert len(exploit + explore) == 60
            assert set(exploit).isdisjoint(explore)
            assert set(exploit + explore) <= set(ids.tolist())

    def test_pure_function_of_inputs(self):
        ids, X = self.make_pool()
        config = uniform_config(30, 0.4)
        a = select(X, rule_based_model(), config, seed=3)
        b = select(X, rule_based_model(), config, seed=3)
        for name in ("positions", "scores", "arm"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert (a.n_exploit, a.explore_shortfall) == (b.n_exploit, b.explore_shortfall)

    def test_uniform_sampler_frequencies(self):
        # 10-element pool, k=1 exploration slot: over 10,000 seeded trials each
        # element is chosen with frequency within 3 sigma of 1/10.
        ids, X = pool_of([feature_array() for _ in range(10)])
        config = uniform_config(1, 1.0)
        counts = np.zeros(10)
        trials = 10_000
        for s in range(trials):
            sel = select(X, rule_based_model(), config, seed=s)
            counts[picked_ids(sel, ids)[1][0]] += 1
        freq = counts / trials
        sigma = np.sqrt(0.1 * 0.9 / trials)
        assert np.all(np.abs(freq - 0.1) < 3 * sigma)

    def test_scores_belong_to_the_picks(self):
        # ids that differ from pool positions, so a position/id mix-up shows
        ids, X = self.make_pool(n=120)
        ids = 1000 + np.random.default_rng(1).permutation(len(ids))
        model = linear_model(cough=0.5, fever=1.5, contact_with_confirmed=2.0)
        score_of = dict(zip(ids.tolist(), score_matrix(model, X).tolist()))
        thompson = PolicyConfig(
            capacity=40, exploration_fraction=0.5, sampler=Sampler.THOMPSON,
            arms=(ArmSpec("c", CONTACT), ArmSpec("n", NO_CONTACT)),
        )
        for config in (uniform_config(40, 0.5), uniform_config(500, 0.3), thompson):
            sel = select(X, model, config, seed=4)
            assert sel.scores.tolist() == [score_of[i] for i in ids[sel.positions].tolist()]

    def test_selection_rejects_overlap(self):
        with pytest.raises(PolicyError):
            Selection(positions=np.array([1, 2, 2, 3]), n_exploit=2, scores=np.zeros(4),
                      arm=np.array([-1, -1]))


CONTACT = ArmPredicate.from_text("contact_with_confirmed=1")
NO_CONTACT = ArmPredicate.from_text("contact_with_confirmed=0")
FEVER = ArmPredicate.from_text("fever=1")


class TestThompson:
    def two_arm_pool(self, n_contact=50, n_other=50):
        vecs = [feature_array(contact_with_confirmed=1) for _ in range(n_contact)]
        vecs += [feature_array(other_indication=1) for _ in range(n_other)]
        return pool_of(vecs)

    def test_single_arm_takes_all_slots(self):
        _, X = self.two_arm_pool()
        arms = [ArmSpec("all", ArmPredicate.from_text("female=0"))]
        picks, shortfall = allocate(arms, 10, X, seed=0)
        assert len(picks) == 10 and shortfall == 0
        assert all(arm == "all" for _, arm in picks)

    def test_zero_slots(self):
        _, X = self.two_arm_pool()
        arms = [ArmSpec("c", CONTACT)]
        picks, shortfall = allocate(arms, 0, X, seed=0)
        assert picks == [] and shortfall == 0

    def test_confident_posterior_dominates(self):
        # Beta(100,1) vs Beta(1,100): the first arm wins at least 95% of 1000
        # slots (Monte Carlo oracle on the Beta draws).
        _, X = self.two_arm_pool(n_contact=1200, n_other=1200)
        arms = [
            ArmSpec("hot", CONTACT, alpha=100.0, beta=1.0),
            ArmSpec("cold", NO_CONTACT, alpha=1.0, beta=100.0),
        ]
        picks, shortfall = allocate(arms, 1000, X, seed=11)
        assert shortfall == 0
        hot = sum(1 for _, arm in picks if arm == "hot")
        assert hot >= 950

    def test_truncation_reported(self):
        _, X = self.two_arm_pool(n_contact=3, n_other=100)
        arms = [ArmSpec("c", CONTACT)]
        picks, shortfall = allocate(arms, 10, X, seed=0)
        assert len(picks) == 3 and shortfall == 7

    def test_deterministic(self):
        _, X = self.two_arm_pool()
        arms = [
            ArmSpec("c", CONTACT),
            ArmSpec("n", NO_CONTACT),
        ]
        a = allocate(arms, 20, X, seed=8)
        b = allocate(arms, 20, X, seed=8)
        assert a == b

    def test_overlapping_arms_share_members(self):
        _, X = self.two_arm_pool(n_contact=5, n_other=0)
        arms = [
            ArmSpec("a", CONTACT),
            ArmSpec("b", ArmPredicate.from_text("female=0")),
        ]
        picks, shortfall = allocate(arms, 5, X, seed=2)
        assert {pid for pid, _ in picks} == set(range(5))
        assert shortfall == 0

    def test_exact_allocation_law(self):
        # Pool {0: A only, 1: A and B, 2: B only}, both arms Beta(1, 1), two
        # slots. Each slot goes to a live arm with probability 1/live and the
        # pick is uniform over that arm's untaken members; the frequency of
        # every ordered pair of picks over 4000 seeds lies within 4 s.d. of
        # that law. One shuffle shared by the arms would give the pair
        # ((2, B), (0, A)) 1/12 in place of 1/16, 5.4 s.d. off.
        members = {"A": {0, 1}, "B": {1, 2}}
        arms = [ArmSpec("A", CONTACT), ArmSpec("B", FEVER)]
        _, X = pool_of([feature_array(contact_with_confirmed=1),
                        feature_array(contact_with_confirmed=1, fever=1),
                        feature_array(fever=1)])

        def law(taken: frozenset, slots: int) -> dict:
            if not slots:
                return {(): Fraction(1)}
            out = Counter()
            live = [name for name, m in members.items() if m - taken]
            for name in live:
                left = members[name] - taken
                for rid in left:
                    for rest, q in law(taken | {rid}, slots - 1).items():
                        out[((rid, name),) + rest] += q / (len(live) * len(left))
            return out

        exact = law(frozenset(), 2)
        assert sum(exact.values()) == 1 and len(exact) == 10
        trials = 4000
        counts = Counter(tuple(allocate(arms, 2, X, seed)[0])
                         for seed in range(trials))
        assert set(counts) <= set(exact)
        for pair, p in exact.items():
            p = float(p)
            assert abs(counts[pair] / trials - p) < 4 * math.sqrt(p * (1 - p) / trials), pair

    @pytest.mark.parametrize("seed", range(5))
    def test_arms_die_mid_batch(self, seed):
        # Overlapping arms and k past the covered pool, so every arm runs out
        # while slots remain (the confident small arm first): the covered
        # pool is taken exactly once and the rest of k is the shortfall.
        rng = np.random.default_rng(seed)
        patterns = rng.integers(0, len(PATTERN_FEATURES), 300)
        arms = [ArmSpec("both", ArmPredicate.from_text("contact_with_confirmed=1 & fever=1"),
                        alpha=50.0, beta=1.0),
                ArmSpec("contact", CONTACT), ArmSpec("fever", FEVER, alpha=1.0, beta=5.0)]
        masks = {arm.name: arm.predicate.mask(PATTERN_FEATURES)[patterns] for arm in arms}
        covered = np.flatnonzero(np.logical_or.reduce(list(masks.values()))).tolist()
        k = len(covered) + 40
        picks, shortfall = allocate(arms, k, patterns, seed)
        assert sorted(position for position, _ in picks) == covered
        assert shortfall == k - len(covered)
        assert all(masks[name][position] for position, name in picks)

    def test_strict_coverage_error(self):
        _, X = self.two_arm_pool(n_contact=5, n_other=5)
        config = PolicyConfig(
            capacity=6, exploration_fraction=1.0, sampler=Sampler.THOMPSON,
            arms=(ArmSpec("c", CONTACT),), strict_arm_coverage=True,
        )
        # the uncovered members are named by their pool positions
        with pytest.raises(UncoveredCandidateError,
                           match=r"^5 pool candidates match no arm \(first: \[5, 6, 7, 8, 9\]\)$"):
            select(X, rule_based_model(), config, seed=0)

    def test_lenient_coverage_truncates(self):
        _, X = self.two_arm_pool(n_contact=5, n_other=5)
        config = PolicyConfig(
            capacity=8, exploration_fraction=1.0, sampler=Sampler.THOMPSON,
            arms=(ArmSpec("c", CONTACT),),
        )
        sel = select(X, rule_based_model(), config, seed=0)
        assert sel.n_exploit == 0
        assert len(sel.positions) == 5  # only covered candidates reachable
        assert sel.explore_shortfall == 3
        assert sel.arm.tolist() == [0] * 5


def reference_thompson_allocate(arms, k, X, seed):
    """The allocation contract over sets of pool positions, the oracle for
    the allocator's picks, over the pool's 0/1 feature rows X. Same rng calls
    in the same order: one permutation of each arm's members in pool order,
    then one Beta block of min(k, covered) rows. Each row's slot goes to the
    first argmax among the arms that still have members, and the pick is the
    first of the winner's shuffled members still untaken."""
    rng = np.random.default_rng(derive_seed(seed, "thompson"))
    members = [set(np.flatnonzero(arm.predicate.mask(X)).tolist()) for arm in arms]
    queues = [rng.permutation(sorted(m)).tolist() for m in members]
    draws = rng.beta([arm.alpha for arm in arms], [arm.beta for arm in arms],
                     size=(min(k, len(set().union(*members))), len(arms)))
    picks = []
    for row in draws.tolist():
        winner = max((i for i, m in enumerate(members) if m), key=row.__getitem__)
        chosen = next(p for p in queues[winner] if p in members[winner])
        picks.append((chosen, arms[winner].name))
        for remaining in members:
            remaining.discard(chosen)
    return picks, k - len(picks)


@st.composite
def pools(draw, max_size=120):
    """Unique record ids in no particular order, with random pattern codes."""
    rows = draw(st.lists(
        st.tuples(st.integers(0, 10**9), st.integers(0, len(PATTERN_FEATURES) - 1)),
        unique_by=lambda row: row[0], max_size=max_size,
    ))
    ids = np.array([rid for rid, _ in rows], dtype=np.int64)
    return ids, np.array([code for _, code in rows], dtype=np.uint16)


@st.composite
def arm_sets(draw):
    """1-5 arms over random one- or two-clause predicates (so they overlap
    and leave some of the pool uncovered) with random Beta posteriors."""
    arms = []
    for i in range(draw(st.integers(1, 5))):
        names = draw(st.lists(st.sampled_from(FEATURE_NAMES), min_size=1, max_size=2,
                              unique=True))
        predicate = ArmPredicate(tuple((name, float(draw(st.integers(0, 1)))) for name in names))
        arms.append(ArmSpec(f"arm{i}", predicate,
                            alpha=draw(st.floats(0.1, 50.0)), beta=draw(st.floats(0.1, 50.0))))
    return arms


@settings(max_examples=200, deadline=None)
@given(pools(), arm_sets(), st.data(), st.integers(0, 2**32 - 1))
def test_thompson_allocate_matches_reference(pool, arms, data, seed):
    _, X = pool
    k = data.draw(st.integers(0, len(X) + 5), label="k")  # up to past the covered pool
    assert allocate(arms, k, X, seed) == reference_thompson_allocate(
        arms, k, PATTERN_FEATURES[X], seed)


@settings(max_examples=150, deadline=None)
@given(pools(max_size=80).filter(lambda pool: len(pool[0]) > 0), arm_sets(),
       st.integers(1, 100), st.floats(0.0, 1.0), st.sampled_from(Sampler),
       st.integers(0, 2**32 - 1), st.data())
def test_selection_invariants(pool, arms, capacity, rho, sampler, seed, data):
    ids, X = pool
    weights = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=len(FEATURE_NAMES),
                                 max_size=len(FEATURE_NAMES)), label="weights")
    model = RiskModel(kind=ModelKind.LINEAR, weights=np.array(weights), bias=0.0)
    config = PolicyConfig(capacity=capacity, exploration_fraction=rho, sampler=sampler,
                          arms=tuple(replace(arm, alpha=1.0, beta=1.0) for arm in arms))
    sel = select(X, model, config, arm_states=arms, seed=seed)
    k_exploit, k_explore = split_budget(capacity, rho)
    exploit, explore = picked_ids(sel, ids)

    assert len(exploit) == min(k_exploit, len(ids))
    assert len(sel.scores) == len(sel.positions) and len(sel.arm) == len(explore)
    if len(ids) > capacity:
        assert len(explore) + sel.explore_shortfall == k_explore
    else:
        assert sorted(exploit + explore) == sorted(ids.tolist())
    assert len(set(exploit + explore)) == len(exploit + explore)
    assert set(explore) <= set(ids.tolist()) - set(exploit)
    if sampler is Sampler.THOMPSON and len(ids) > capacity:
        for position, arm in zip(sel.positions[sel.n_exploit:].tolist(), sel.arm.tolist()):
            assert arm >= 0 and arms[arm].predicate.mask(PATTERN_FEATURES[X[[position]]])[0]
    else:
        assert sel.arm.tolist() == [-1] * len(explore)
    assert sel.scores.tolist() == score_matrix(model, X)[sel.positions].tolist()


class TestUpdateArm:
    def test_conjugate_update(self):
        arm = ArmSpec("a", CONTACT, alpha=1.0, beta=1.0)
        assert (update_arm(arm, 3, 7).alpha, update_arm(arm, 3, 7).beta) == (4.0, 8.0)

    def test_zero_counts_identity(self):
        arm = ArmSpec("a", CONTACT, alpha=2.0, beta=5.0)
        updated = update_arm(arm, 0, 0)
        assert (updated.alpha, updated.beta) == (2.0, 5.0)

    def test_batches_commute(self):
        arm = ArmSpec("a", CONTACT)
        ab = update_arm(update_arm(arm, 3, 1), 2, 6)
        ba = update_arm(update_arm(arm, 2, 6), 3, 1)
        assert (ab.alpha, ab.beta) == (ba.alpha, ba.beta)

    @pytest.mark.parametrize("count", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("which", ["alpha", "beta"])
    def test_pseudo_counts_must_be_finite_and_positive(self, which, count):
        with pytest.raises(PolicyError, match="finite and > 0"):
            ArmSpec("a", CONTACT, **{which: count})

    def test_negative_counts_rejected(self):
        arm = ArmSpec("a", CONTACT)
        with pytest.raises(PolicyError):
            update_arm(arm, -1, 0)


class TestPolicyConfig:
    def test_validation(self):
        with pytest.raises(PolicyError):
            PolicyConfig(capacity=0)
        with pytest.raises(PolicyError):
            PolicyConfig(capacity=10, exploration_fraction=1.2)
        with pytest.raises(PolicyError):
            PolicyConfig(capacity=10, sampler=Sampler.THOMPSON)  # no arms
        with pytest.raises(PolicyError):
            PolicyConfig(capacity=10, retrain_on="sometimes")

    def test_from_file(self, tmp_path):
        text = """
[policy]
capacity = 500
exploration_fraction = 0.4
sampler = thompson
retrain_on = exploration_only

[arm contacts]
predicate = contact_with_confirmed=1
alpha = 2
beta = 3

[arm symptomatic]
predicate = cough=1 & fever=1
"""
        path = tmp_path / "p.policy"
        path.write_text(text, encoding="utf-8")
        config = PolicyConfig.from_file(path)
        assert config.capacity == 500
        assert config.exploration_fraction == pytest.approx(0.4)
        assert config.sampler is Sampler.THOMPSON
        assert config.retrain_on == "exploration_only"
        names = [a.name for a in config.arms]
        assert names == ["contacts", "symptomatic"]
        assert config.arms[0].alpha == 2.0
        assert config.arms[1].predicate.constraints == (("cough", 1.0), ("fever", 1.0))

    @pytest.mark.parametrize("text, message", [
        # the seed comes from the command line, so a seed key is a typo too
        ("[policy]\ncapacity = 10\nseed = 12\n", "unknown key 'seed' in [policy]"),
        ("[policy]\ncapacity = 10\nexploraton_fraction = 0.4\n",
         "unknown key 'exploraton_fraction' in [policy]"),
        ("[policy]\ncapacity = 10\n[arm a]\npredicate = cough=1\nalpah = 2\n",
         "unknown key 'alpah' in [arm a]"),
        ("[policy]\ncapacity = 10\n[arms]\npredicate = cough=1\n", "unknown section [arms]"),
        ("[policy]\nexploration_fraction = 0.4\n", "needs a capacity"),
    ])
    def test_from_file_rejects_unknown_and_missing_keys(self, tmp_path, text, message):
        path = tmp_path / "p.policy"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(PolicyError, match=re.escape(message)):
            PolicyConfig.from_file(path)

    def test_arm_name_must_not_be_empty(self, tmp_path):
        with pytest.raises(PolicyError, match="an arm name must not be empty"):
            PolicyConfig(capacity=10, arms=(ArmSpec("", CONTACT),))
        path = tmp_path / "p.policy"
        path.write_text("[policy]\ncapacity = 10\n[arm ]\npredicate = cough=1\n",
                        encoding="utf-8")
        with pytest.raises(PolicyError, match=re.escape(f"{path}: an arm name must not be empty")):
            PolicyConfig.from_file(path)

    def test_from_file_errors(self, tmp_path):
        path = tmp_path / "p.policy"
        path.write_text("[policy]\ncapacity = 10\nsampler = magic\n", encoding="utf-8")
        with pytest.raises(PolicyError):
            PolicyConfig.from_file(path)
        with pytest.raises(PolicyError):
            PolicyConfig.from_file(tmp_path / "missing.policy")

    def test_predicate_parse_errors(self):
        with pytest.raises(PolicyError):
            ArmPredicate.from_text("cough")
        with pytest.raises(PolicyError):
            ArmPredicate.from_text("age=1")
        with pytest.raises(PolicyError):
            ArmPredicate.from_text("cough=2")
        assert ArmPredicate.from_text("cough=1 & fever=0").to_text() == "cough=1 & fever=0"
