"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines. Criteria 1
and 2 need the public tested-individuals CSV export and skip unless
BANDITRIAGE_TESTED_CSV points at it (BANDITRIAGE_TESTED_MAPPING optionally
names a vocabulary overlay; the shipped hebrew_export mapping is the default).
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from banditriage.cli import main as cli_main
from banditriage.evaluate import (
    bootstrap_ci,
    mean_weekly_recall,
    weekly_correlations,
    weekly_recall_table,
)
from banditriage.policy import ArmPredicate, ArmSpec, PolicyConfig, Sampler
from banditriage.records import ValueMapping, load_cohort
from banditriage.scoring import ModelKind, RiskModel, TrainConfig, rule_based_model, train
from banditriage.seeds import derive_seed
from banditriage.simulate import (
    run_replay,
    sweep_exploration,
    train_eval_split_experiment,
)
from banditriage.synthgen import (
    GeneratorParams,
    generate_cohort,
    planted_model,
    resolve_scenario,
)

from conftest import feature_array


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def logit(p: float) -> float:
    return math.log(p / (1.0 - p))


# -- criteria 1 & 2: conditional on the real data export ---------------------

REAL_CSV = os.environ.get("BANDITRIAGE_TESTED_CSV", "")
needs_real_data = pytest.mark.skipif(
    not REAL_CSV, reason="BANDITRIAGE_TESTED_CSV not set; dataset-conditional"
)

# Published reference values for the real export (weekly recall of the
# pairwise ranker at capacities 1000..5000, and median weekly feature-label
# correlations). Tolerances per the exit criteria.
PUBLISHED_WEEKLY_RECALL = {
    13: [0.231, 0.429, 0.623, 0.667, 0.732],
    14: [0.267, 0.502, 0.618, 0.689, 0.696],
    15: [0.369, 0.565, 0.585, 0.596, 0.609],
    16: [0.509, 0.590, 0.608, 0.613, 0.622],
}
PUBLISHED_RECALL_5000_CI = (0.647, 0.683)
PUBLISHED_CORRELATION_MEDIANS = [
    ("contact_with_confirmed", 0.587),
    ("head_ache", 0.292),
    ("fever", 0.129),
    ("cough", 0.124),
    ("sore_throat", 0.094),
    ("shortness_of_breath", 0.084),
    ("abroad", -0.002),
    ("female", -0.015),
    ("other_indication", -0.433),
]


def load_real_cohort():
    mapping_path = os.environ.get("BANDITRIAGE_TESTED_MAPPING", "")
    if mapping_path:
        mapping = ValueMapping.from_file(mapping_path)
    else:
        shipped = resources.files("banditriage").joinpath(
            "mappings", "hebrew_export.mapping"
        )
        with resources.as_file(shipped) as p:
            mapping = ValueMapping.from_file(p)
    cohort, rep = load_cohort(REAL_CSV, mapping)
    return cohort, rep


@needs_real_data
def test_criterion_1_real_data_recall():
    t0 = time.monotonic()
    cohort, _ = load_real_cohort()
    train_weeks = [w for w in cohort.weeks if w <= 12]
    eval_weeks = [w for w in (13, 14, 15, 16) if w in cohort.weeks]
    sub = cohort.subset_weeks(train_weeks)
    X = np.concatenate([sub.week_patterns(w) for w in sub.weeks])
    y = np.concatenate([sub.week_labels(w) for w in sub.weeks])
    model = train(X, y, ModelKind.POLY2, TrainConfig())

    rows = weekly_recall_table(cohort, model, ks=[1000, 2000, 3000, 4000, 5000],
                               weeks=eval_weeks)
    deviations = []
    for row in rows:
        expected = PUBLISHED_WEEKLY_RECALL[row["week"]]
        got = [row[f"recall@{k}"] for k in (1000, 2000, 3000, 4000, 5000)]
        deviations.append(max(abs(g - e) for g, e in zip(got, expected)))
    mean5000 = mean_weekly_recall(cohort, model, 5000, weeks=eval_weeks)
    elapsed = time.monotonic() - t0
    lo, hi = PUBLISHED_RECALL_5000_CI
    ok = (
        lo <= mean5000 <= hi
        and all(d <= 0.05 for d in deviations)
        and elapsed < 300.0
    )
    report(1, ok, f"mean recall@5000={mean5000:.3f} in ({lo},{hi}); "
                  f"max weekly deviation={max(deviations):.3f}<=0.05; {elapsed:.0f}s")


@needs_real_data
def test_criterion_2_real_data_correlation_ordering():
    cohort, _ = load_real_cohort()
    medians = weekly_correlations(cohort).median_by_feature()
    ordered = sorted(medians.items(), key=lambda kv: -kv[1])
    got_order = [name for name, _ in ordered]
    want_order = [name for name, _ in PUBLISHED_CORRELATION_MEDIANS]
    max_dev = max(
        abs(medians[name] - value) for name, value in PUBLISHED_CORRELATION_MEDIANS
    )
    ok = got_order == want_order and max_dev <= 0.02
    report(2, ok, f"ordering {'matches' if got_order == want_order else got_order}; "
                  f"max median deviation {max_dev:.3f} <= 0.02")


# -- criterion 3: oracle-ranker law, exact ------------------------------------


def saturated_params(seed: int, n: int, contact_prev: float) -> GeneratorParams:
    """Separable planted model: every attainable |z| >= 1000, so labels are a
    deterministic function of the features and the predictor ranks every
    positive strictly above every negative."""
    prev = feature_array(
        cough=0.3, fever=0.25, sore_throat=0.2, shortness_of_breath=0.15,
        head_ache=0.2, contact_with_confirmed=contact_prev, abroad=0.1,
        other_indication=max(0.9 - contact_prev, 0.05), female=0.5,
    )
    coeffs = RiskModel(
        kind=ModelKind.LINEAR,
        weights=feature_array(
            cough=300, fever=250, sore_throat=150, shortness_of_breath=100,
            head_ache=50, contact_with_confirmed=3000, female=50,
        ),
        bias=-2000.0,
    )
    return GeneratorParams(n_per_week=n, weeks=(1, 5), feature_prevalence=prev,
                           coefficients=coeffs, seed=seed)


def test_criterion_3_oracle_ranker_law():
    t0 = time.monotonic()
    checked = 0
    expected_checks = 0
    variants = [
        resolve_scenario("oracle"),
        saturated_params(seed=101, n=700, contact_prev=0.25),
        saturated_params(seed=202, n=1500, contact_prev=0.4),
    ]
    for params in variants:
        cohort = generate_cohort(params)
        model = planted_model(params)
        positives = cohort.positives_by_week()
        for capacity in (60, 350):
            expected_checks += len(cohort.weeks)
            policy = PolicyConfig(capacity=capacity, exploration_fraction=0.0,
                                  sampler=Sampler.UNIFORM_RANDOM)
            trace = run_replay(cohort, model, policy, retrain_every=0,
                               seed=derive_seed(3, "oracle", capacity))
            for p in trace.periods:
                expected = min(capacity, positives[p.period]) / positives[p.period]
                assert p.recall == expected, (p.period, capacity, p.recall, expected)
                checked += 1
    elapsed = time.monotonic() - t0
    ok = checked == expected_checks and elapsed < 10.0
    report(3, ok, f"recall == min(K,P_w)/P_w exactly in {checked} period checks "
                  f"across {len(variants)} cohorts; {elapsed:.1f}s < 10s")


# -- criterion 4: random-baseline law -----------------------------------------


def test_criterion_4_random_baseline_envelope():
    t0 = time.monotonic()
    params = replace(resolve_scenario("default"), n_per_week=5000, seed=777)
    cohort = generate_cohort(params)
    k, n = 500, 5000
    policy = PolicyConfig(capacity=k, exploration_fraction=1.0,
                          sampler=Sampler.UNIFORM_RANDOM)
    recalls = []
    for run in range(100):
        trace = run_replay(cohort, rule_based_model(), policy, retrain_every=0,
                           seed=derive_seed(4, "run", run))
        recalls.extend(p.recall for p in trace.periods)
    positives = cohort.positives_by_week()
    # binomial sampling oracle: X_w ~ Bin(K, P_w/N), recall_w = X_w / P_w
    var_sum = sum(k * (P / n) * (1 - P / n) / P**2 for P in positives.values())
    sigma_mean = math.sqrt(100 * var_sum) / len(recalls)
    mean = float(np.mean(recalls))
    elapsed = time.monotonic() - t0
    ok = abs(mean - k / n) <= 1.96 * sigma_mean and elapsed < 60.0
    report(4, ok, f"mean recall {mean:.5f} within {1.96 * sigma_mean:.5f} of "
                  f"{k / n:.5f} over 100 runs x 8 weeks; {elapsed:.0f}s < 60s")


# -- criterion 5: ranking beats random ----------------------------------------


def test_criterion_5_ranking_beats_random():
    t0 = time.monotonic()
    base = resolve_scenario("default")
    k = int(0.1 * base.n_per_week)
    recalls = []
    for seed in range(20):
        params = replace(base, seed=derive_seed(5, "cohort", seed))
        cohort = generate_cohort(params)
        sub = cohort.subset_weeks([1, 2, 3])
        X = np.concatenate([sub.week_patterns(w) for w in sub.weeks])
        y = np.concatenate([sub.week_labels(w) for w in sub.weeks])
        model = train(X, y, ModelKind.POLY2, TrainConfig())
        recalls.append(
            mean_weekly_recall(cohort, model, k, weeks=[4, 5, 6, 7, 8])
        )
    median = float(np.median(recalls))
    random_baseline = k / base.n_per_week
    elapsed = time.monotonic() - t0
    ok = median >= 3.0 * random_baseline and elapsed < 120.0
    report(5, ok, f"median recall@{k} = {median:.3f} >= 3 x {random_baseline:.2f} "
                  f"over 20 seeds; {elapsed:.0f}s < 120s")


# -- criterion 6: bootstrap coverage ------------------------------------------


def test_criterion_6_bootstrap_coverage():
    t0 = time.monotonic()
    params = replace(resolve_scenario("default"), n_per_week=1000, seed=424242)
    cohort = generate_cohort(params)
    model = planted_model(params)
    k = 100
    truth = mean_weekly_recall(cohort, model, k)  # exhaustive evaluation
    covered = 0
    for run in range(100):
        res = bootstrap_ci(cohort, model, k, replicates=10, level=0.95, seed=run)
        if res.lo <= truth <= res.hi:
            covered += 1
    elapsed = time.monotonic() - t0
    ok = covered >= 85 and elapsed < 300.0
    report(6, ok, f"10-replicate 95% CI covered exhaustive truth {truth:.4f} in "
                  f"{covered}/100 runs (>= 85); {elapsed:.0f}s < 300s")


# -- criterion 7: regime-shift crossover --------------------------------------


def test_criterion_7_regime_shift_crossover():
    t0 = time.monotonic()
    base = resolve_scenario("regime_shift")
    ks = [100, 200, 400, 800, 1600, 2000]
    b_wins_smallest = 0
    a_holds_largest = 0
    for seed in range(20):
        cohort = generate_cohort(replace(base, seed=derive_seed(7, "cohort", seed)))
        rows = train_eval_split_experiment(
            cohort, range(10, 13), range(21, 24), range(24, 27), ks
        )
        if rows[0]["recall_b"] > rows[0]["recall_a"]:
            b_wins_smallest += 1
        if rows[-1]["recall_a"] >= rows[-1]["recall_b"]:
            a_holds_largest += 1
    elapsed = time.monotonic() - t0
    ok = b_wins_smallest >= 15 and a_holds_largest >= 15 and elapsed < 120.0
    report(7, ok, f"B>A at K={ks[0]} in {b_wins_smallest}/20, A>=B at K={ks[-1]} in "
                  f"{a_holds_largest}/20 (both >= 15); {elapsed:.0f}s < 120s")


# -- criterion 8: Thompson concentration --------------------------------------


def test_criterion_8_thompson_concentration():
    t0 = time.monotonic()
    prev = feature_array(
        cough=0.3, fever=0.3, sore_throat=0.3, shortness_of_breath=0.3,
        head_ache=0.3, contact_with_confirmed=0.5, abroad=0.0,
        other_indication=0.5, female=0.5,
    )
    coeffs = RiskModel(
        kind=ModelKind.LINEAR,
        weights=feature_array(contact_with_confirmed=logit(0.5) - logit(0.05)),
        bias=logit(0.05),
    )  # true positivity: 0.5 in the contact arm, 0.05 outside it
    arms = (
        ArmSpec("high", ArmPredicate.from_text("contact_with_confirmed=1")),
        ArmSpec("low", ArmPredicate.from_text("contact_with_confirmed=0")),
    )
    policy = PolicyConfig(capacity=40, exploration_fraction=1.0,
                          sampler=Sampler.THOMPSON, arms=arms)
    shares = []
    for seed in range(20):
        params = GeneratorParams(n_per_week=200, weeks=(1, 50),
                                 feature_prevalence=prev, coefficients=coeffs,
                                 seed=derive_seed(8, "cohort", seed))
        cohort = generate_cohort(params)
        trace = run_replay(cohort, rule_based_model(), policy, retrain_every=0,
                           seed=seed)
        high = low = 0
        for p in trace.periods[10:]:  # burn-in: first 10 periods
            drawn = p.selection.arm[p.selection.arm >= 0]  # indices into policy.arms
            for arm in drawn.tolist():
                if policy.arms[arm].name == "high":
                    high += 1
                else:
                    low += 1
        shares.append(high / (high + low))
    median = float(np.median(shares))
    elapsed = time.monotonic() - t0
    ok = median > 0.9 and elapsed < 60.0
    report(8, ok, f"median high-arm share after burn-in {median:.3f} > 0.9 "
                  f"over 20 seeds; {elapsed:.0f}s < 60s")


# -- criterion 9: CLI determinism ----------------------------------------------


def _artifact_digests(directory: Path) -> list[tuple[str, str]]:
    return sorted(
        (p.relative_to(directory).as_posix(), hashlib.sha256(p.read_bytes()).hexdigest())
        for p in directory.rglob("*")
        if p.is_file() and not p.name.endswith("manifest.json")
    )


def test_criterion_9_cli_determinism(tmp_path, capsys):
    t0 = time.monotonic()
    # Shared inputs, prepared once.
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    assert cli_main(["synth", "--scenario", "oracle", "--out", "raw.csv",
                     "--out-dir", str(inputs), "--seed", "1", "--quiet"]) == 0
    assert cli_main(["train", "--cohort", str(inputs / "raw.csv"), "--weeks", "1-2",
                     "--kind", "linear", "--out", "model.txt",
                     "--out-dir", str(inputs), "--seed", "1", "--quiet"]) == 0
    policy = inputs / "p.policy"
    policy.write_text(
        "[policy]\ncapacity = 120\nexploration_fraction = 0.4\n"
        "sampler = thompson\n\n[arm contacts]\npredicate = contact_with_confirmed=1\n"
        "\n[arm others]\npredicate = contact_with_confirmed=0\n",
        encoding="utf-8",
    )
    raw, model = str(inputs / "raw.csv"), str(inputs / "model.txt")
    capsys.readouterr()  # drain setup output before comparing run stdout
    input_digests_before = _artifact_digests(inputs)

    subcommands = {
        "synth": ["synth", "--scenario", "default", "--seed", "11"],
        "ingest": ["ingest", "--input", raw, "--seed", "11"],
        "correlate": ["correlate", "--cohort", raw, "--seed", "11"],
        "train": ["train", "--cohort", raw, "--weeks", "1-3", "--seed", "11"],
        "simulate": ["simulate", "--cohort", raw, "--model", model,
                     "--policy", str(policy), "--weeks", "3-6", "--seed", "11"],
        "sweep": ["sweep", "--cohort", raw, "--model", model,
                  "--rho-list", "0.3,0.5,0.7", "--k-list", "100", "--seed", "11"],
        "bootstrap": ["bootstrap", "--cohort", raw, "--model", model,
                      "--k", "100", "--seed", "11"],
        "report": ["report", "--cohort", raw, "--trace", "", "--seed", "11"],
    }
    all_ok = True
    for name, argv in subcommands.items():
        if name == "report":
            argv = ["report", "--cohort", raw, "--seed", "11"]
        outputs = []
        for attempt in ("first", "second"):
            out_dir = tmp_path / f"{name}-{attempt}"
            out_dir.mkdir()
            code = cli_main(argv + ["--out-dir", str(out_dir), "--quiet"])
            assert code == 0, f"{name} failed"
            # stdout echoes the (differing) output directory; normalize it out
            stdout = capsys.readouterr().out.replace(str(out_dir), "<out>")
            outputs.append((_artifact_digests(out_dir), stdout))
        same = outputs[0] == outputs[1] and len(outputs[0][0]) > 0
        all_ok = all_ok and same
        assert same, f"{name} not byte-identical across reruns"
    inputs_untouched = _artifact_digests(inputs) == input_digests_before
    elapsed = time.monotonic() - t0
    ok = all_ok and inputs_untouched and elapsed < 60.0
    report(9, ok, f"all 8 subcommands byte-identical across reruns "
                  f"(manifests excluded, stdout included), inputs unmodified; "
                  f"{elapsed:.0f}s < 60s")


# -- criterion 10: exploration sweep -------------------------------------------


def test_criterion_10_exploration_sweep_monotone():
    t0 = time.monotonic()
    base = resolve_scenario("default")
    rhos = [0.3, 0.4, 0.5, 0.6, 0.7]
    capacity = 300
    model = planted_model(base)
    per_rho = {rho: [] for rho in rhos}
    for seed in range(20):
        cohort = generate_cohort(replace(base, seed=derive_seed(10, "cohort", seed)))
        rows = sweep_exploration(cohort, model, rhos, [capacity])
        assert [r["exploration_fraction"] for r in rows] == rhos  # the table
        for r in rows:
            per_rho[r["exploration_fraction"]].append(r["mean_recall"])
    medians = [float(np.median(per_rho[rho])) for rho in rhos]
    monotone = all(medians[i] >= medians[i + 1] for i in range(len(medians) - 1))
    elapsed = time.monotonic() - t0
    ok = monotone
    report(10, ok, "sweep table emitted for rho=30/40/50/60/70%; 20-seed median "
                   f"recalls {[round(m, 3) for m in medians]} non-increasing; "
                   f"{elapsed:.0f}s")


# -- criterion 11: bootstrap coverage of the population recall ----------------


def test_criterion_11_bootstrap_covers_population_recall():
    # Criterion 6 checks coverage of the cohort's own exhaustive recall. Here
    # each cohort is one draw from the scenario, and the interval must cover
    # the population value: recall averaged over 200 other draws.
    t0 = time.monotonic()
    base = replace(resolve_scenario("default"), n_per_week=1000)
    model = planted_model(base)
    k = 100
    truth = float(np.mean([
        mean_weekly_recall(generate_cohort(replace(base, seed=10000 + s)), model, k)
        for s in range(200)
    ]))
    covered = 0
    for s in range(60):
        cohort = generate_cohort(replace(base, seed=20000 + s))
        res = bootstrap_ci(cohort, model, k, replicates=200, level=0.95, seed=s)
        covered += res.lo <= truth <= res.hi
    elapsed = time.monotonic() - t0
    ok = covered >= 51 and elapsed < 300.0
    report(11, ok, f"200-replicate 95% CI covered population recall {truth:.4f} in "
                   f"{covered}/60 fresh cohorts (>= 51); {elapsed:.0f}s < 300s")
