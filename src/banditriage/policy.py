"""Per-period testing decisions: split the capacity into exploitation and
exploration budgets, take the top-ranked exploit set, and fill the explore
set by uniform random sampling or Thompson sampling over expert-defined arms.
A decision (:class:`Selection`) names its picks by their positions in the pool.

The exploit set breaks ties among equal scores by a seeded shuffle
(:func:`rank_candidates`), because it must name actual records; the recall
tables of :mod:`banditriage.evaluate` take the mean over tie orders instead.
Rounding favors exploitation: the explore budget is floor(rho * capacity).
Exploration draws from the pool excluding the exploit picks, so no candidate
is tested twice. Thompson arm posteriors stay frozen within a period (results
only arrive at period end); :func:`update_arm` applies the period-end counts.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .records import FEATURE_NAMES, PATTERN_FEATURES, one_of, read_ini, switch
from .scoring import PATTERN_CODES, RiskModel, as_pattern_codes, score_matrix
from .seeds import derive_seed

log = logging.getLogger(__name__)


class Sampler(Enum):
    UNIFORM_RANDOM = "uniform_random"
    THOMPSON = "thompson"


class PolicyError(Exception):
    pass


class UncoveredCandidateError(PolicyError):
    """Strict arm coverage: pool members match no arm predicate. The error
    names the first few of ``candidates``, which are pool positions or
    record ids, in pool order."""

    def __init__(self, candidates: np.ndarray):
        super().__init__(f"{len(candidates)} pool candidates match no arm "
                         f"(first: {candidates[:5].tolist()})")
        self.candidates = candidates


@dataclass(frozen=True)
class ArmPredicate:
    """Conjunction of feature = value constraints over the base encoding."""

    constraints: tuple[tuple[str, float], ...]

    def __post_init__(self):
        for name, value in self.constraints:
            if name not in FEATURE_NAMES:
                raise PolicyError(f"unknown feature {name!r} in arm predicate")
            if value not in (0.0, 1.0):
                raise PolicyError(f"arm predicate values must be 0 or 1, got {value}")

    @classmethod
    def from_text(cls, text: str) -> "ArmPredicate":
        """Parse e.g. ``contact_with_confirmed=1 & fever=0``."""
        constraints = []
        for clause in text.split("&"):
            clause = clause.strip()
            if not clause:
                continue
            name, sep, value = clause.partition("=")
            if not sep:
                raise PolicyError(f"bad predicate clause {clause!r} (want feature=value)")
            constraints.append((name.strip(), float(value.strip())))
        if not constraints:
            raise PolicyError(f"empty arm predicate {text!r}")
        return cls(constraints=tuple(constraints))

    def to_text(self) -> str:
        return " & ".join(f"{name}={int(value)}" for name, value in self.constraints)

    def mask(self, X: np.ndarray) -> np.ndarray:
        """Boolean membership over the rows of a feature matrix (PATTERN_FEATURES)."""
        out = np.ones(len(X), dtype=bool)
        for name, value in self.constraints:
            out &= X[:, FEATURE_NAMES.index(name)] == value
        return out


@dataclass(frozen=True)
class ArmSpec:
    """An expert-defined arm and its Beta posterior: the configured prior
    pseudo-counts, then the counts :func:`update_arm` returns."""

    name: str
    predicate: ArmPredicate
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise PolicyError(f"arm {self.name!r}: Beta pseudo-counts must be finite and > 0, "
                              f"got alpha={self.alpha}, beta={self.beta}")


def update_arm(arm: ArmSpec, positives: int, negatives: int) -> ArmSpec:
    """Conjugate Beta-Bernoulli update with a period's outcome counts."""
    if positives < 0 or negatives < 0:
        raise PolicyError("outcome counts must be >= 0")
    return replace(arm, alpha=arm.alpha + positives, beta=arm.beta + negatives)


#: Policy file layout (see :func:`banditriage.records.read_ini`).
_LAYOUT = {
    "policy": {"capacity": int, "exploration_fraction?": float,
               "sampler?": one_of({s.value: s for s in Sampler}, "sampler"), "retrain_on?": str,
               "strict_arm_coverage?": switch},
    "arm *": {"predicate": ArmPredicate.from_text, "alpha?": float, "beta?": float},
}


@dataclass(frozen=True)
class PolicyConfig:
    capacity: int
    exploration_fraction: float = 0.0
    sampler: Sampler = Sampler.UNIFORM_RANDOM
    arms: tuple[ArmSpec, ...] = ()
    retrain_on: str = "all_labeled"  # "all_labeled" | "exploration_only"
    strict_arm_coverage: bool = False

    def __post_init__(self):
        if self.capacity <= 0:
            raise PolicyError("capacity must be a positive integer")
        split_budget(self.capacity, self.exploration_fraction)  # the budget's own checks
        if self.retrain_on not in ("all_labeled", "exploration_only"):
            raise PolicyError(f"unknown retrain_on {self.retrain_on!r}")
        if self.sampler is Sampler.THOMPSON and not self.arms:
            raise PolicyError("Thompson sampling needs at least one arm")
        names = [a.name for a in self.arms]
        if len(set(names)) != len(names):
            raise PolicyError("arm names must be unique")

    @classmethod
    def from_file(cls, path: str | Path) -> "PolicyConfig":
        """Load an INI policy file: a [policy] block plus [arm NAME] blocks.
        A section or key outside that layout is an error, not ignored."""
        ini = read_ini(path, PolicyError, "policy file", _LAYOUT)
        try:
            arms = [ArmSpec(section[4:].strip(), **keys)
                    for section, keys in ini.items() if section != "policy"]
            return cls(arms=tuple(arms), **ini["policy"])
        except PolicyError as exc:
            raise PolicyError(f"{path}: {exc}") from None


@dataclass(frozen=True, eq=False)
class Selection:
    """One period's decision as parallel arrays in pick order: the exploit
    picks in rank order, then the explore picks in draw order. A pick's
    record id and label are the pool's at its position."""

    positions: np.ndarray  # in the pool
    n_exploit: int
    scores: np.ndarray  # under the model that ranked the pool
    arm: np.ndarray  # per explore pick, the index of its arm in the policy; -1 if none drew it
    explore_shortfall: int = 0

    def __post_init__(self):
        seen = np.zeros(self.positions.max(initial=-1) + 1, bool)
        seen[self.positions] = True
        if np.count_nonzero(seen) != len(self.positions):
            raise PolicyError("a pool position is picked twice")


def split_budget(capacity: int, exploration_fraction: float) -> tuple[int, int]:
    """(k_exploit, k_explore) with k_explore = floor(rho * capacity), for a
    capacity from 0 up to the largest float."""
    if capacity < 0:
        raise PolicyError("capacity must be >= 0")
    if capacity > sys.float_info.max:
        raise PolicyError(f"capacity must not exceed {sys.float_info.max:g}")
    if not 0.0 <= exploration_fraction <= 1.0:
        raise PolicyError("exploration_fraction must lie in [0, 1]")
    k_explore = math.floor(exploration_fraction * capacity)
    return capacity - k_explore, k_explore


def rank_candidates(code_scores: np.ndarray, patterns: np.ndarray, k: int,
                    seed: int) -> np.ndarray:
    """The first ``min(k, n)`` positions of a pool's ranking, best first:
    the pool being its records' pattern codes, ranked by their codes' scores
    (``code_scores``, one per code).

    Ties are broken by a pre-shuffle: the pool is permuted uniformly at
    random (one ``rng.permutation`` draw from the stream derived from
    ``seed``) before a stable sort, so tie order is reproducible for a given
    seed but carries no input-order bias. NaN scores rank last, and -0.0
    ties with 0.0. The sort key is a record's score group: the rank of its
    code's score among the distinct code scores, in uint16, so the stable
    sort is a radix sort. Only the rows of the groups up to the first one
    that reaches k are sorted.
    """
    if len(patterns) == 0:
        raise PolicyError("cannot rank an empty pool")
    k = min(k, len(patterns))
    rng = np.random.default_rng(derive_seed(seed, "rank"))
    perm = rng.permutation(len(patterns))
    _, group = np.unique(-code_scores, return_inverse=True)  # best first, NaN last
    keys = group.astype(np.uint16)[patterns[perm]]
    last = np.searchsorted(np.cumsum(np.bincount(keys)), k)  # the group that reaches k
    prefix = np.flatnonzero(keys <= last)
    return perm[prefix[np.argsort(keys[prefix], kind="stable")[:k]]]


def thompson_allocate(
    arms: Sequence[ArmSpec],
    k: int,
    patterns: np.ndarray,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Assign up to k exploration slots across a pool's records (their
    pattern codes) by Thompson sampling.

    Every draw comes first: one in-place ``rng.shuffle`` per arm, in arm
    order, of its members in pool order (ascending record id in every pool
    that :func:`select` builds), which draws what ``rng.permutation`` of
    them would; then one ``rng.beta`` block of ``min(k, covered)`` rows, a
    theta ~ Beta(alpha, beta) per arm in each.
    Slot t goes to the first argmax arm of row t, whose cursor walks its
    shuffled members past those already taken. An arm whose cursor runs off
    the end has no untested members: its column is dropped from rows t on
    and slot t is redone. Posteriors are frozen for the whole batch, so each
    slot goes to the argmax of independent draws over the live arms and the
    pick is uniform over the winner's remaining members. Skipping costs at
    most k per arm, O(1) a slot amortised. Returns the picks in slot order
    as their positions in the pool and the index of the arm that drew each,
    and the shortfall. A positive shortfall means the covered pool ran out
    before k slots were filled.
    """
    if k < 0:
        raise PolicyError("k must be >= 0")
    if not arms:
        raise PolicyError("need at least one arm")
    rng = np.random.default_rng(derive_seed(seed, "thompson"))

    patterns = np.asarray(patterns)
    masks = [arm.predicate.mask(PATTERN_FEATURES) for arm in arms]
    rows = min(k, int(np.count_nonzero(np.logical_or.reduce(masks)[patterns])))
    # A cursor passes only taken records, and fewer than `rows` are taken
    # while a slot is open, so no cursor reads past the first `rows` members.
    queues = []
    for mask in masks:
        members = np.flatnonzero(mask[patterns])
        rng.shuffle(members)
        queues.append(members[:rows].tolist())
        del members  # so that no two arms' members are held at once
    theta = rng.beta([arm.alpha for arm in arms], [arm.beta for arm in arms],
                     size=(rows, len(arms)))
    winners = theta.argmax(axis=1).tolist()
    cursors = [0] * len(arms)
    taken = bytearray(len(patterns))
    positions: list[int] = []
    t = 0
    while t < rows:  # some arm stays live while a covered record is untaken
        winner = winners[t]
        queue, cursor = queues[winner], cursors[winner]
        while cursor < len(queue) and taken[queue[cursor]]:
            cursor += 1
        if cursor == len(queue):  # the winner has no untested members left
            theta[t:, winner] = -np.inf
            winners[t:] = theta[t:].argmax(axis=1).tolist()
            continue
        cursors[winner] = cursor + 1
        taken[queue[cursor]] = 1
        positions.append(queue[cursor])
        t += 1
    shortfall = k - rows
    if shortfall:
        log.warning("thompson allocation truncated: %d uncovered slots", shortfall)
    # winners[t] was last set while slot t was open, so it names the arm that filled it
    return np.array(positions, dtype=np.intp), np.array(winners, dtype=np.intp), shortfall


def select(
    patterns: np.ndarray,
    model: RiskModel,
    config: PolicyConfig,
    arm_states: Sequence[ArmSpec] | None = None,
    *,
    seed: int,
) -> Selection:
    """One period's selection from the pool (its records' pattern codes)
    under the policy, its picks named by their positions in the pool.

    The exploit set is the top of the ranking (:func:`rank_candidates`, over
    the model's scores of the 512 codes, which also give each pick's score);
    the explore set is drawn without replacement from the rest by the
    configured sampler. A pool no larger than the capacity is selected in
    full. Pure function of (pool, model, config/arm_states, seed). A code
    outside 0..511 is a ValueError. A strict-coverage error names the
    uncovered members by their pool positions.
    """
    if len(patterns) == 0:
        raise PolicyError("cannot select from an empty pool")
    patterns = as_pattern_codes(patterns)
    k_exploit, k_explore = split_budget(config.capacity, config.exploration_fraction)
    code_scores = score_matrix(model, PATTERN_CODES)

    def picked(exploit: np.ndarray, explore: np.ndarray, arm: np.ndarray | None = None,
               shortfall: int = 0) -> Selection:
        positions = np.concatenate([exploit, explore])
        return Selection(positions=positions, n_exploit=len(exploit),
                         scores=code_scores[patterns[positions]],
                         arm=np.full(len(explore), -1, dtype=np.intp) if arm is None else arm,
                         explore_shortfall=shortfall)

    if len(patterns) <= config.capacity:
        ranked = rank_candidates(code_scores, patterns, len(patterns), seed)
        return picked(ranked[:k_exploit], ranked[k_exploit:])

    exploit = rank_candidates(code_scores, patterns, k_exploit, seed)
    rest_mask = np.ones(len(patterns), dtype=bool)
    rest_mask[exploit] = False
    rest = np.flatnonzero(rest_mask).astype(np.int32)  # held through the exploration

    if k_explore == 0:
        return picked(exploit, rest[:0])

    if config.sampler is Sampler.UNIFORM_RANDOM:
        rng = np.random.default_rng(derive_seed(seed, "explore"))
        take = min(k_explore, len(rest))
        chosen = rng.choice(rest, size=take, replace=False)
        return picked(exploit, chosen, shortfall=k_explore - take)

    rest_patterns = patterns[rest]
    arms = config.arms if arm_states is None else arm_states
    if config.strict_arm_coverage:
        covered = np.logical_or.reduce(
            [arm.predicate.mask(PATTERN_FEATURES) for arm in arms])[rest_patterns]
        if not covered.all():
            raise UncoveredCandidateError(rest[~covered])
    chosen, arm, shortfall = thompson_allocate(arms, k_explore, rest_patterns, seed)
    return picked(exploit, rest[chosen], arm, shortfall)
