"""Output checks for the benchmark workloads.

Each check reads the program's artifacts and compares them with values the
benchmark computes on its own (from the cohort CSV as it parses it, or from
the ground truth it generated), or with properties the method must have.
Nothing is compared with a stored copy of earlier output. A failed check
raises :class:`CheckFailed`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np

import inputs
from workloads import BOOTSTRAP_REPLICATES, BULK_K_LIST, Context

TOL = 1e-9


class CheckFailed(Exception):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Independent readers and computations.
# ---------------------------------------------------------------------------


def read_rows(path: Path) -> list[list[str]]:
    """CSV rows (header first), skipping '#' comment lines."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


@dataclass
class CohortView:
    """A cohort CSV as the benchmark reads it; record_id is the row index."""

    week: np.ndarray
    X: np.ndarray  # (n, 9) in the documented feature order, unknown reads 0
    y: np.ndarray


def read_cohort(path: Path) -> CohortView:
    table = read_rows(path)
    require(tuple(table[0]) == inputs.COHORT_HEADER, f"{path.name}: unexpected header")
    body = table[1:]
    cols = [np.array(c, dtype=object) for c in zip(*body)] if body else [np.array([])] * 9
    weeks = {d: date.fromisoformat(d).isocalendar()[1] for d in set(cols[0].tolist())}
    X = np.zeros((len(body), len(inputs.FEATURES)))
    for j in range(5):
        X[:, j] = cols[1 + j] == "1"
    for j, spelling in enumerate(inputs.COHORT_INDICATION):
        X[:, 5 + j] = cols[8] == spelling
    X[:, 8] = cols[7] == "female"
    return CohortView(
        week=np.array([weeks[d] for d in cols[0].tolist()], dtype=np.int64),
        X=X,
        y=cols[6] == "positive",
    )


def read_model(path: Path) -> tuple[str, np.ndarray, float]:
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = {}
    for i, line in enumerate(lines):
        key, _, value = line.partition(" ")
        fields[key] = value
        if key == "weights":
            weights = np.array([float(v) for v in lines[i + 1: i + 1 + int(value)]])
            return fields["kind"], weights, float(fields["bias"])
    raise CheckFailed(f"{path.name}: no weights")


def poly2_scores(X: np.ndarray, weights: np.ndarray, bias: float) -> np.ndarray:
    """Base features, then products x_i*x_j for i < j in lexicographic order."""
    d = X.shape[1]
    pairs = [X[:, i] * X[:, j] for i in range(d) for j in range(i + 1, d)]
    return np.column_stack([X] + pairs) @ weights + bias


def rule_scores(X: np.ndarray) -> np.ndarray:
    """The expert rule: 2 * contact + cough + fever."""
    return 2 * X[:, 5] + X[:, 0] + X[:, 1]


def read_trace(path: Path) -> tuple[dict, list[dict]]:
    with open(path, encoding="utf-8") as fh:
        objs = [json.loads(line) for line in fh]
    require(objs and objs[0].get("type") == "header", f"{path.name}: no header")
    return objs[0], [o for o in objs[1:] if o.get("type") == "period"]


def pearson_table(view: CohortView, weeks: list[int]) -> np.ndarray:
    """numpy Pearson of each feature with the label per week; NaN where
    either column is constant within the week."""
    out = np.full((len(weeks), view.X.shape[1]), np.nan)
    for i, w in enumerate(weeks):
        m = view.week == w
        y = view.y[m].astype(float)
        for j in range(view.X.shape[1]):
            x = view.X[m, j]
            if x.std() > 0 and y.std() > 0:
                out[i, j] = np.corrcoef(x, y)[0, 1]
    return out


def tie_bounds(scores: np.ndarray, y: np.ndarray, k: int) -> tuple[float, float]:
    """Lowest and highest recall@k over every order of tied scores."""
    n_pos = int(y.sum())
    if n_pos == 0:
        return 0.0, 0.0
    levels = np.unique(scores)[::-1]
    taken = worst = best = 0
    for s in levels:
        group = scores == s
        size, pos = int(group.sum()), int(y[group].sum())
        r = min(size, k - taken)
        worst += max(0, r - (size - pos))
        best += min(r, pos)
        taken += r
        if taken == k:
            break
    return worst / n_pos, best / n_pos


def artifact_digest(out: Path) -> dict[str, str]:
    """sha256 of every artifact; manifests carry timestamps and are left out."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file() and not p.name.endswith(".manifest.json")
    }


def check_same_artifacts(first: Path, other: Path) -> None:
    a, b = artifact_digest(first), artifact_digest(other)
    require(a == b, f"{other.name}: artifacts differ from {first.name}: "
            f"{sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))}")


# ---------------------------------------------------------------------------
# Checks shared by the replay workloads.
# ---------------------------------------------------------------------------


def _pools(view: CohortView) -> dict[int, np.ndarray]:
    return {int(w): np.nonzero(view.week == w)[0] for w in np.unique(view.week)}


def replay_selection(ctx: Context) -> None:
    """Per period: exploit takes capacity - floor(rho * capacity), exploration
    fills the rest up to its shortfall (none without arms, so the period
    selects min(capacity, pool)), the channels are disjoint and every id is
    in that week's pool."""
    pools = _pools(read_cohort(ctx.cohort))
    k_explore = math.floor(ctx.rho * ctx.capacity)
    periods = read_trace(ctx.out / "trace.jsonl")[1]
    require(periods, "trace has no periods")
    for p in periods:
        pool = set(pools[p["period"]].tolist())
        exploit, explore = p["exploit_ids"], p["explore_ids"]
        shortfall = p["explore_shortfall"]
        require(p["pool_size"] == len(pool) > ctx.capacity,
                f"period {p['period']}: pool size {p['pool_size']} vs {len(pool)}")
        require(len(exploit) == ctx.capacity - k_explore,
                f"period {p['period']}: {len(exploit)} exploit picks")
        require(len(explore) + shortfall == k_explore and (ctx.arms or not shortfall),
                f"period {p['period']}: {len(explore)} explore picks + "
                f"{shortfall} shortfall != {k_explore}")
        chosen = exploit + explore
        require(len(set(chosen)) == len(chosen), f"period {p['period']}: channels overlap")
        require(set(chosen) <= pool, f"period {p['period']}: ids outside the week's pool")


def replay_recall(ctx: Context) -> None:
    """Revealed labels and recall, recounted from the cohort's labels."""
    view = read_cohort(ctx.cohort)
    pools = _pools(view)
    for p in read_trace(ctx.out / "trace.jsonl")[1]:
        chosen = p["exploit_ids"] + p["explore_ids"]
        revealed = {str(i): bool(view.y[i]) for i in chosen}
        require(p["revealed"] == revealed, f"period {p['period']}: revealed labels differ")
        positives = int(view.y[pools[p["period"]]].sum())
        recall = sum(revealed.values()) / positives if positives else 0.0
        require(abs(p["recall"] - recall) <= TOL,
                f"period {p['period']}: recall {p['recall']} != recount {recall}")


def replay_exploit_order(ctx: Context) -> None:
    """No record outside the exploit set outscores an exploit pick.

    Scores are the benchmark's own poly2 scores from the model file's
    weights for periods replayed with that model (version 0). For every
    period, explore picks in selections.csv score no higher than the
    period's lowest exploit pick, and version-0 scores match the benchmark's.
    """
    view = read_cohort(ctx.cohort)
    kind, weights, bias = read_model(ctx.model)
    require(kind == "poly2", f"{ctx.model.name}: kind {kind}")
    pools = _pools(view)
    table = read_rows(ctx.out / "selections.csv")
    require(table[0] == ["record_id", "period", "channel", "arm", "score"],
            "selections.csv: unexpected header")
    by_period: dict[int, list[list[str]]] = {}
    for row in table[1:]:
        by_period.setdefault(int(row[1]), []).append(row)
    for p in read_trace(ctx.out / "trace.jsonl")[1]:
        rows = by_period.get(p["period"], [])
        exploit_scores = [float(r[4]) for r in rows if r[2] == "exploit"]
        explore_scores = [float(r[4]) for r in rows if r[2] == "explore"]
        require(sorted(int(r[0]) for r in rows) == sorted(p["exploit_ids"] + p["explore_ids"]),
                f"selections.csv: period {p['period']} rows differ from the trace")
        require(not explore_scores or max(explore_scores) <= min(exploit_scores) + TOL,
                f"period {p['period']}: an explore pick outscores an exploit pick")
        if p["model_version"] != 0:
            continue
        pool = pools[p["period"]]
        scores = dict(zip(pool.tolist(), poly2_scores(view.X[pool], weights, bias).tolist()))
        for r in rows:
            require(abs(float(r[4]) - scores[int(r[0])]) <= TOL,
                    f"period {p['period']}: score of {r[0]} differs from the model's")
        exploit = set(p["exploit_ids"])
        outside = [s for i, s in scores.items() if i not in exploit]
        require(max(outside) <= min(scores[i] for i in exploit) + TOL,
                f"period {p['period']}: an unselected record outscores an exploit pick")


def mean_trace_recall(ctx: Context) -> float:
    _, periods = read_trace(ctx.out / "trace.jsonl")
    return float(np.mean([p["recall"] for p in periods]))


# ---------------------------------------------------------------------------
# walkthrough
# ---------------------------------------------------------------------------


def check_correlation_file(table_path: Path, view: CohortView) -> None:
    table = read_rows(table_path)
    require(tuple(table[0]) == ("week",) + inputs.FEATURES, f"{table_path.name}: header")
    weeks = [int(r[0]) for r in table[1:-1]]
    require(weeks == sorted(set(view.week.tolist())), f"{table_path.name}: weeks differ")
    got = np.array([[float(v) if v else np.nan for v in r[1:]] for r in table[1:-1]])
    want = pearson_table(view, weeks)
    require(np.array_equal(np.isnan(got), np.isnan(want)),
            f"{table_path.name}: undefined cells differ from constant columns")
    require(np.nanmax(np.abs(got - want), initial=0.0) <= TOL,
            f"{table_path.name}: correlations differ from numpy Pearson")
    medians = [float(v) if v else np.nan for v in table[-1][1:]]
    for j, m in enumerate(medians):
        column = want[:, j][~np.isnan(want[:, j])]
        expected = float(np.median(column)) if len(column) else np.nan
        require(np.isnan(m) == np.isnan(expected) and (np.isnan(m) or abs(m - expected) <= TOL),
                f"{table_path.name}: median of {inputs.FEATURES[j]} differs")


def walkthrough_correlations(ctx: Context) -> None:
    check_correlation_file(ctx.out / "correlations.csv", read_cohort(ctx.out / "cohort.csv"))
    check_correlation_file(ctx.out / "weekly_correlations.csv",
                           read_cohort(ctx.out / "shift.csv"))


def walkthrough_beats_random(ctx: Context) -> None:
    """The model's recall at capacity beats the random rate capacity/pool,
    by the benchmark's own ranking (ties broken against the model), by the
    program's bootstrap mean and by the replay's mean recall."""
    view = read_cohort(ctx.cohort)
    _, weights, bias = read_model(ctx.model)
    pools = _pools(view)
    own, rate = [], []
    for p in read_trace(ctx.out / "trace.jsonl")[1]:
        pool = pools[p["period"]]
        scores = poly2_scores(view.X[pool], weights, bias)
        own.append(tie_bounds(scores, view.y[pool], ctx.capacity)[0])
        rate.append(ctx.capacity / len(pool))
    random_rate = float(np.mean(rate))
    boot = read_rows(ctx.out / "bootstrap.csv")[1]
    for name, value in (("own top-k", float(np.mean(own))), ("bootstrap", float(boot[3])),
                        ("simulate", mean_trace_recall(ctx))):
        require(value > random_rate, f"{name} recall {value} <= random rate {random_rate}")


def walkthrough_bootstrap(ctx: Context) -> None:
    rows = read_rows(ctx.out / "bootstrap.csv")
    require(rows[0] == ["k", "replicates", "level", "mean", "lo", "hi", "skipped_replicates"],
            "bootstrap.csv: header")
    k, replicates, level, mean, lo, hi, skipped = rows[1]
    require(int(k) == ctx.capacity and int(replicates) + int(skipped) == BOOTSTRAP_REPLICATES,
            f"bootstrap.csv: k={k}, replicates={replicates}, skipped={skipped}")
    require(float(lo) <= float(mean) <= float(hi) and 0.0 <= float(mean) <= 1.0,
            f"bootstrap.csv: interval ({lo}, {hi}) does not bracket {mean}")


def walkthrough_crossover(ctx: Context) -> None:
    rows = read_rows(ctx.out / "crossover.csv")
    require(rows[0] == ["k", "recall_a", "recall_b"], "crossover.csv: header")
    ks = [int(r[0]) for r in rows[1:]]
    require(ks == sorted(ks), "crossover.csv: capacities out of order")
    for col in (1, 2):
        values = [float(r[col]) for r in rows[1:]]
        require(all(0.0 <= v <= 1.0 for v in values), "crossover.csv: recall outside [0, 1]")
        require(all(a <= b for a, b in zip(values, values[1:])),
                f"crossover.csv: {rows[0][col]} decreases with k")


# ---------------------------------------------------------------------------
# thompson_pool
# ---------------------------------------------------------------------------


def _arm_masks(view: CohortView, arms) -> dict[str, np.ndarray]:
    masks = {}
    for name, predicate, _, _ in arms:
        mask = np.ones(len(view.y), dtype=bool)
        for clause in predicate.split("&"):
            feature, _, value = clause.strip().partition("=")
            mask &= view.X[:, inputs.FEATURES.index(feature)] == float(value)
        masks[name] = mask
    return masks


def thompson_arm_predicates(ctx: Context) -> None:
    """Every explore pick has an arm, and satisfies that arm's predicate."""
    view = read_cohort(ctx.cohort)
    masks = _arm_masks(view, ctx.arms)
    for p in read_trace(ctx.out / "trace.jsonl")[1]:
        assigned = p["arm_assignments"]
        require(sorted(int(i) for i in assigned) == sorted(p["explore_ids"]),
                f"period {p['period']}: arm assignments differ from the explore picks")
        for rid, arm in assigned.items():
            require(arm in masks and masks[arm][int(rid)],
                    f"period {p['period']}: record {rid} does not satisfy arm {arm!r}")


def thompson_posteriors(ctx: Context) -> None:
    """Each arm's posterior is its prior plus the revealed positives and
    negatives of its own picks, summed over the periods so far."""
    view = read_cohort(ctx.cohort)
    posterior = {name: [a, b] for name, _, a, b in ctx.arms}
    for p in read_trace(ctx.out / "trace.jsonl")[1]:
        for rid, arm in p["arm_assignments"].items():
            posterior[arm][0 if view.y[int(rid)] else 1] += 1
        got = {name: list(v) for name, v in p["arm_posteriors"].items()}
        require(got == posterior, f"period {p['period']}: posteriors {got} != {posterior}")


# ---------------------------------------------------------------------------
# bulk_ingest
# ---------------------------------------------------------------------------


def _truth(ctx: Context) -> tuple[dict, dict[int, str]]:
    with np.load(ctx.inputs / "truth.npz") as npz:
        pop = {k: npz[k] for k in npz.files}
    return pop, {int(k): v for k, v in ctx.meta["spoiled"].items()}


def bulk_rejections(ctx: Context) -> None:
    """accepted + rejected = rows; rejected rows are exactly the spoiled ones,
    each for the spoiled column."""
    pop, spoiled = _truth(ctx)
    with open(ctx.out / "rejections.tsv", encoding="utf-8") as fh:
        lines = [line.rstrip("\n").split("\t", 1) for line in fh]
    rejected = {int(row): reason for row, reason in lines}
    require(len(rejected) == len(lines), "rejections.tsv: repeated row numbers")
    require(rejected.keys() == spoiled.keys(),
            f"rejections.tsv: {len(rejected.keys() - spoiled.keys())} unexpected rows, "
            f"{len(spoiled.keys() - rejected.keys())} spoiled rows accepted")
    marker = dict(inputs.SPOIL_KINDS)
    for row, kind in spoiled.items():
        require(rejected[row].startswith(marker[kind]),
                f"rejections.tsv: row {row} ({kind}) rejected for {rejected[row]!r}")
    accepted = len(read_rows(ctx.out / "cohort.csv")) - 1
    require(accepted + len(rejected) == len(pop["week"]),
            f"{accepted} accepted + {len(rejected)} rejected != {len(pop['week'])} rows")


def bulk_cohort(ctx: Context) -> None:
    """The written cohort, read back, equals the benchmark's canonical rows."""
    pop, spoiled = _truth(ctx)
    keep = [i for i in range(len(pop["week"])) if i + 1 not in spoiled]
    table = read_rows(ctx.out / "cohort.csv")
    require(tuple(table[0]) == inputs.COHORT_HEADER, "cohort.csv: header")
    require(table[1:] == inputs.cohort_rows(pop, keep),
            "cohort.csv: rows differ from the canonical accepted rows")


def bulk_weekly_counts(ctx: Context) -> None:
    view = read_cohort(ctx.out / "cohort.csv")
    want = [[str(w), str(int((view.week == w).sum())), str(int(view.y[view.week == w].sum()))]
            for w in sorted(set(view.week.tolist()))]
    table = read_rows(ctx.out / "weekly_counts.csv")
    require(table[0] == ["week", "tests", "positives"] and table[1:] == want,
            "weekly_counts.csv differs from the benchmark's counts")


def bulk_correlations(ctx: Context) -> None:
    check_correlation_file(ctx.out / "weekly_correlations.csv", read_cohort(ctx.out / "cohort.csv"))


def bulk_rule_recall(ctx: Context) -> None:
    """Rule-based recall@k lies between the worst and best tie-break bounds."""
    view = read_cohort(ctx.out / "cohort.csv")
    table = read_rows(ctx.out / "model_comparison.csv")
    row = dict(zip(table[0], table[1]))
    require(row.get("model") == "rule_based", "model_comparison.csv: no rule_based row")
    pools = _pools(view)
    for k in BULK_K_LIST:
        bounds = [tie_bounds(rule_scores(view.X[pool]), view.y[pool], k)
                  for pool in pools.values()]
        lo, hi = (float(np.mean([b[i] for b in bounds])) for i in (0, 1))
        got = float(row[f"recall@{k}"])
        require(lo - TOL <= got <= hi + TOL,
                f"recall@{k} = {got} outside the tie-break bounds [{lo}, {hi}]")


def walkthrough_mean_recall(ctx: Context) -> float:
    """The bootstrap mean recall@capacity of the trained model: the replay's
    mean recall also carries random exploration and small-store retraining,
    and spreads 5-10 times more across seeds."""
    return float(read_rows(ctx.out / "bootstrap.csv")[1][3])


def bulk_mean_recall(ctx: Context) -> float:
    table = read_rows(ctx.out / "model_comparison.csv")
    k = BULK_K_LIST[len(BULK_K_LIST) // 2]
    return float(dict(zip(table[0], table[1]))[f"recall@{k}"])


CHECKS = {
    "walkthrough": (walkthrough_correlations, replay_selection, replay_recall,
                    replay_exploit_order, walkthrough_beats_random, walkthrough_bootstrap,
                    walkthrough_crossover),
    "thompson_pool": (replay_selection, replay_recall, replay_exploit_order,
                      thompson_arm_predicates, thompson_posteriors),
    "bulk_ingest": (bulk_rejections, bulk_cohort, bulk_weekly_counts, bulk_correlations,
                    bulk_rule_recall),
}

MEAN_RECALL = {
    "walkthrough": walkthrough_mean_recall,
    "thompson_pool": mean_trace_recall,
    "bulk_ingest": bulk_mean_recall,
}
