"""Per-period testing decisions: split the capacity into exploitation and
exploration budgets, take the top-ranked exploit set, and fill the explore
set by uniform random sampling or Thompson sampling over expert-defined arms.

Rounding favors exploitation: the explore budget is floor(rho * capacity).
Exploration draws from the pool excluding the exploit picks, so no candidate
is tested twice. Thompson arm posteriors stay frozen within a period (results
only arrive at period end); :func:`update_arm` applies the period-end counts.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .records import FEATURE_NAMES, one_of, read_ini, switch
from .scoring import RiskModel, score_matrix
from .seeds import derive_seed

log = logging.getLogger(__name__)


class Sampler(Enum):
    UNIFORM_RANDOM = "uniform_random"
    THOMPSON = "thompson"


class PolicyError(Exception):
    pass


class UncoveredCandidateError(PolicyError):
    """Strict arm coverage: a pool member matches no arm predicate."""


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
        """Boolean membership over rows of a base feature matrix."""
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
        if not 0.0 <= self.exploration_fraction <= 1.0:
            raise PolicyError("exploration_fraction must lie in [0, 1]")
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


@dataclass(frozen=True)
class Selection:
    """One period's decision: who gets tested, through which channel, and
    each pick's score under the model that ranked the pool."""

    exploit_ids: tuple[int, ...]
    explore_ids: tuple[int, ...]
    arm_assignments: Mapping[int, str] = field(default_factory=dict)
    explore_shortfall: int = 0
    scores: tuple[float, ...] = ()  # one per entry of all_ids, in that order

    @property
    def all_ids(self) -> tuple[int, ...]:
        return self.exploit_ids + self.explore_ids

    def __post_init__(self):
        overlap = set(self.exploit_ids) & set(self.explore_ids)
        if overlap:
            raise PolicyError(f"exploit and explore sets overlap: {sorted(overlap)[:5]}")


def split_budget(capacity: int, exploration_fraction: float) -> tuple[int, int]:
    """(k_exploit, k_explore) with k_explore = floor(rho * capacity)."""
    if capacity < 0:
        raise PolicyError("capacity must be >= 0")
    if not 0.0 <= exploration_fraction <= 1.0:
        raise PolicyError("exploration_fraction must lie in [0, 1]")
    k_explore = math.floor(exploration_fraction * capacity)
    return capacity - k_explore, k_explore


def top_k(scores: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Positions of the k highest scores, best first.

    Ties are broken by a pre-shuffle: the pool is permuted uniformly at
    random (one ``rng.permutation`` draw) before a stable sort, so tie order
    is reproducible for a given rng state but carries no input-order bias.
    """
    if k < 0:
        raise PolicyError(f"k must be >= 0, got {k}")
    perm = rng.permutation(len(scores))
    return perm[np.argsort(-scores[perm], kind="stable")[:k]]


def rank_candidates(scores: np.ndarray, seed: int, k: int | None = None) -> np.ndarray:
    """:func:`top_k` of a pool's scores (the whole ranking when k is None),
    with the tie-break stream derived from ``seed``."""
    if len(scores) == 0:
        raise PolicyError("cannot rank an empty pool")
    rng = np.random.default_rng(derive_seed(seed, "rank"))
    return top_k(scores, len(scores) if k is None else k, rng)


class _ArmMembers:
    """One arm's members as positions into the id-sorted pool, with a Fenwick
    tree (Fenwick, SP&E 1994) over which of them are still untested, so the
    r-th remaining member and a removal each cost O(log n). The state is
    int32 numpy arrays, read and written through memoryviews, which index
    to plain ints at about half the cost of numpy scalar indexing."""

    def __init__(self, member: np.ndarray):
        positions = np.flatnonzero(member).astype(np.int32)
        local = np.cumsum(member, dtype=np.int32)  # 1-based member index
        local[~member] = 0  # 0: not a member
        # node i of a tree over all-present members counts lowbit(i) of them
        nodes = np.arange(len(positions) + 1, dtype=np.int32)
        self.positions, self.local = memoryview(positions), memoryview(local)
        self.tree = memoryview(nodes & -nodes)
        self.size = self.remaining = len(positions)
        self.top = 1 << (self.size.bit_length() - 1) if self.size else 0

    def nth(self, r: int) -> int:
        """Pool position of the r-th (0-based) remaining member."""
        tree, size, node, step = self.tree, self.size, 0, self.top
        while step:
            nxt = node + step
            if nxt <= size and tree[nxt] <= r:
                node = nxt
                r -= tree[nxt]
            step >>= 1
        return self.positions[node]

    def discard(self, position: int) -> None:
        """Remove a remaining pool position; no-op if it is not a member."""
        i = self.local[position]
        if not i:
            return
        tree, size = self.tree, self.size
        while i <= size:
            tree[i] -= 1
            i += i & -i
        self.remaining -= 1


def thompson_allocate(
    arms: Sequence[ArmSpec],
    k: int,
    ids: np.ndarray | Sequence[int],
    X: np.ndarray,
    seed: int,
) -> tuple[list[tuple[int, str]], int]:
    """Assign up to k exploration slots across arms by Thompson sampling.

    Per slot: draw theta ~ Beta(alpha, beta) (one scalar ``rng.beta``) for
    every arm with untested members left, in arm order; give the slot to the
    first argmax arm; pick its r-th remaining member in ascending record_id
    order, r = ``rng.integers(remaining)``; remove the pick from every arm.
    Posteriors are frozen for the whole batch. The pool is sorted once and a
    slot costs O(log n) plus the draws. Returns (picks as (record_id,
    arm_name), shortfall). A positive shortfall means the covered pool ran
    out before k slots were filled.
    """
    if k < 0:
        raise PolicyError("k must be >= 0")
    if not arms:
        raise PolicyError("need at least one arm")
    ids = np.asarray(ids, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    if np.any(sorted_ids[1:] == sorted_ids[:-1]):
        raise PolicyError("pool record ids must be unique")
    rng = np.random.default_rng(derive_seed(seed, "thompson"))

    members = {arm.name: _ArmMembers(arm.predicate.mask(X)[order]) for arm in arms}
    picks: list[tuple[int, str]] = []
    for _ in range(k):
        live = [arm for arm in arms if members[arm.name].remaining]
        if not live:
            break
        draws = [rng.beta(arm.alpha, arm.beta) for arm in live]
        winner = live[int(np.argmax(draws))]
        pool = members[winner.name]
        position = pool.nth(int(rng.integers(pool.remaining)))
        picks.append((int(sorted_ids[position]), winner.name))
        for remaining in members.values():
            remaining.discard(position)
    shortfall = k - len(picks)
    if shortfall:
        log.warning("thompson allocation truncated: %d uncovered slots", shortfall)
    return picks, shortfall


def select(
    ids: np.ndarray | Sequence[int],
    X: np.ndarray,
    model: RiskModel,
    config: PolicyConfig,
    arm_states: Sequence[ArmSpec] | None = None,
    *,
    seed: int,
) -> Selection:
    """One period's selection from the pool (ids, X) under the policy.

    The exploit set is the top of the ranking; the explore set is drawn
    without replacement from the rest by the configured sampler. A pool no
    larger than the capacity is selected in full. Pure function of
    (pool, model, config/arm_states, seed).
    """
    ids = np.asarray(ids, dtype=np.int64)
    if len(ids) == 0:
        raise PolicyError("cannot select from an empty pool")
    k_exploit, k_explore = split_budget(config.capacity, config.exploration_fraction)
    scores = score_matrix(model, X)
    ranked = rank_candidates(scores, seed)

    def picked(exploit: np.ndarray, explore: np.ndarray, **extra) -> Selection:
        return Selection(
            exploit_ids=tuple(ids[exploit].tolist()),
            explore_ids=tuple(ids[explore].tolist()),
            scores=tuple(scores[np.concatenate([exploit, explore])].tolist()),
            **extra,
        )

    if len(ids) <= config.capacity:
        return picked(ranked[:k_exploit], ranked[k_exploit:])

    exploit = ranked[:k_exploit]
    rest_mask = np.ones(len(ids), dtype=bool)
    rest_mask[exploit] = False
    rest = np.flatnonzero(rest_mask)

    if k_explore == 0:
        return picked(exploit, rest[:0])

    if config.sampler is Sampler.UNIFORM_RANDOM:
        rng = np.random.default_rng(derive_seed(seed, "explore"))
        take = min(k_explore, len(rest))
        chosen = rng.choice(rest, size=take, replace=False)
        return picked(exploit, chosen, explore_shortfall=k_explore - take)

    rest = rest[np.argsort(ids[rest], kind="stable")]  # the allocator's own id order
    rest_ids = ids[rest]
    rest_X = X[rest]
    arms = config.arms if arm_states is None else arm_states
    if config.strict_arm_coverage:
        covered = np.zeros(len(rest_ids), dtype=bool)
        for arm in arms:
            covered |= arm.predicate.mask(rest_X)
        if not covered.all():
            missing = ids[np.sort(rest[~covered])]  # in pool order
            raise UncoveredCandidateError(
                f"{len(missing)} pool candidates match no arm (first: {missing[:5].tolist()})"
            )
    picks, shortfall = thompson_allocate(arms, k_explore, rest_ids, rest_X, seed)
    chosen = rest[np.searchsorted(rest_ids, [pid for pid, _ in picks])]
    return picked(exploit, chosen, arm_assignments=dict(picks), explore_shortfall=shortfall)
