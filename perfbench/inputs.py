"""Seeded inputs for the benchmark workloads.

The benchmark draws its own populations with numpy (it does not call the
program's generator), writes them as files, and keeps the ground truth it
needs for the output checks next to them. ``python3 perfbench/inputs.py
WORKLOAD SEED DIR`` writes one workload's inputs into DIR; the same seed
always gives byte-identical files.

The population follows the shipped ``default`` scenario: the prevalences and
planted log-odds below are copied from it, so positivity is about 7-8%.
"""

from __future__ import annotations

import csv
import json
import sys
from datetime import date
from pathlib import Path

import numpy as np

SYMPTOMS = ("cough", "fever", "sore_throat", "shortness_of_breath", "head_ache")
FEATURES = SYMPTOMS + ("contact_with_confirmed", "abroad", "other_indication", "female")
COHORT_HEADER = ("test_date",) + SYMPTOMS + ("corona_result", "gender", "test_indication")
EXPORT_HEADER = ("test_date",) + SYMPTOMS + (
    "corona_result", "age_60_and_above", "gender", "test_indication")

SYMPTOM_PREVALENCE = np.array([0.22, 0.18, 0.12, 0.08, 0.12])
INDICATION_PREVALENCE = np.array([0.06, 0.04, 0.90])  # contact, abroad, other
LOG_ODDS = np.array([0.80, 0.90, 0.65, 0.55, 1.60, 2.60, 0.40, 0.0, -0.05])
INTERCEPT = -3.4
YEAR = 2020

# Canonical cohort spellings, as the program's cohort writer emits them.
COHORT_SYMPTOM = {1: "1", 0: "0", -1: ""}
COHORT_GENDER = {0: "male", 1: "female", 2: ""}
COHORT_INDICATION = ("Contact with confirmed", "Abroad", "Other")

# The public export's Hebrew vocabulary, as listed in the shipped
# hebrew_export.mapping.
EXPORT_RESULT = {True: "חיובי", False: "שלילי"}
EXPORT_GENDER = {0: "זכר", 1: "נקבה", 2: "NULL"}
EXPORT_INDICATION = ("מגע עם מאומת", 'חו"ל', "אחר")
EXPORT_UNKNOWN_SYMPTOM = ("NULL", "nan", "")

#: Spoiled-row kinds in the bulk export: (kind, column the rejection names).
SPOIL_KINDS = (
    ("result_other", "result 'other'"),
    ("bad_date", "test_date="),
    ("bad_symptom", "cough="),
    ("bad_result", "corona_result="),
    ("bad_indication", "test_indication="),
)

#: Expert arms (name, predicate, alpha, beta). They overlap and together
#: cover the pool, since every record has exactly one indication.
THOMPSON_ARMS = (
    ("contact", "contact_with_confirmed=1", 2.0, 2.0),
    ("abroad", "abroad=1", 1.0, 2.0),
    ("fever", "fever=1", 1.0, 1.0),
    ("cough", "cough=1", 1.0, 1.0),
    ("other", "other_indication=1", 1.0, 1.0),
)
WALKTHROUGH_CAPACITY = 300  # the README's uniform.policy
WALKTHROUGH_RHO = 0.3
THOMPSON_CAPACITY = 6000
THOMPSON_RHO = 0.4
THOMPSON_TRAIN_WEEKS = (1, 3, 3000)  # first week, last week, records per week
THOMPSON_POOL_WEEKS = (4, 5, 50000)
BULK_WEEKS = (10, 29, 10000)
BULK_SPOIL_RATE = 0.015
UNKNOWN_RATE = 0.02


def draw_population(rng: np.random.Generator, weeks: tuple[int, int, int]) -> dict:
    """Records of ISO weeks first..last of YEAR, n per week, in week order.

    Symptoms are tri-state (1 present, 0 absent, -1 unknown; the label is
    drawn from the unmasked value), indication is 0/1/2 for contact, abroad
    and other, gender is 0 male, 1 female, 2 unknown.
    """
    first, last, per_week = weeks
    week = np.repeat(np.arange(first, last + 1, dtype=np.int16), per_week)
    n = len(week)
    present = rng.random((n, 5)) < SYMPTOM_PREVALENCE
    indication = np.minimum(
        np.searchsorted(np.cumsum(INDICATION_PREVALENCE), rng.random(n), side="right"), 2
    ).astype(np.int8)
    gender = np.where(rng.random(n) < 0.5, 1, 0).astype(np.int8)
    gender[rng.random(n) < UNKNOWN_RATE] = 2
    X = np.zeros((n, len(FEATURES)))
    X[:, :5] = present
    X[np.arange(n), 5 + indication] = 1.0
    X[:, 8] = gender == 1
    label = rng.random(n) < 1.0 / (1.0 + np.exp(-(X @ LOG_ODDS + INTERCEPT)))
    symptoms = present.astype(np.int8)
    symptoms[rng.random((n, 5)) < UNKNOWN_RATE] = -1
    day = rng.integers(1, 8, size=n, dtype=np.int8)
    return {"week": week, "day": day, "symptoms": symptoms,
            "indication": indication, "gender": gender, "label": label}


def iso_dates(pop: dict) -> list[str]:
    return [date.fromisocalendar(YEAR, int(w), int(d)).isoformat()
            for w, d in zip(pop["week"], pop["day"])]


def cohort_rows(pop: dict, rows=None) -> list[list[str]]:
    """Rows in the program's canonical cohort CSV spelling."""
    dates = iso_dates(pop)
    rows = range(len(dates)) if rows is None else rows
    sym, ind, gen, lab = pop["symptoms"], pop["indication"], pop["gender"], pop["label"]
    return [
        [dates[i]] + [COHORT_SYMPTOM[int(v)] for v in sym[i]]
        + ["positive" if lab[i] else "negative", COHORT_GENDER[int(gen[i])],
           COHORT_INDICATION[int(ind[i])]]
        for i in rows
    ]


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def export_rows(rng: np.random.Generator, pop: dict) -> tuple[list[list[str]], dict[int, str]]:
    """The population as a raw Hebrew export with a seeded share of spoiled
    rows. Returns the rows and {1-based row number: spoil kind}."""
    n = len(pop["week"])
    dates = iso_dates(pop)
    unknown_spelling = rng.integers(0, len(EXPORT_UNKNOWN_SYMPTOM), size=(n, 5))
    age = rng.choice(["Yes", "No", "NULL"], size=n, p=[0.15, 0.8, 0.05])
    rows = []
    for i in range(n):
        sym = [str(int(v)) if v >= 0 else EXPORT_UNKNOWN_SYMPTOM[s]
               for v, s in zip(pop["symptoms"][i], unknown_spelling[i])]
        rows.append([dates[i]] + sym + [
            EXPORT_RESULT[bool(pop["label"][i])], str(age[i]),
            EXPORT_GENDER[int(pop["gender"][i])], EXPORT_INDICATION[int(pop["indication"][i])]])
    n_spoiled = round(BULK_SPOIL_RATE * n)
    spoiled = np.sort(rng.choice(n, size=n_spoiled, replace=False))
    kinds = rng.integers(0, len(SPOIL_KINDS), size=n_spoiled)
    spoil = {}
    for i, k in zip(spoiled.tolist(), kinds.tolist()):
        kind = SPOIL_KINDS[k][0]
        row = rows[i]
        if kind == "result_other":
            row[6] = "אחר"
        elif kind == "bad_date":
            row[0] = f"{YEAR}-02-30"
        elif kind == "bad_symptom":
            row[1] = "2"
        elif kind == "bad_result":
            row[6] = "pending"
        else:
            row[9] = "unknown"
        spoil[i + 1] = kind
    return rows, spoil


def policy_text(capacity: int, rho: float, sampler: str, arms=()) -> str:
    lines = ["[policy]", f"capacity = {capacity}", f"exploration_fraction = {rho}",
             f"sampler = {sampler}", "retrain_on = all_labeled"]
    if arms:
        lines.append("strict_arm_coverage = true")
    for name, predicate, alpha, beta in arms:
        lines += ["", f"[arm {name}]", f"predicate = {predicate}",
                  f"alpha = {alpha}", f"beta = {beta}"]
    return "\n".join(lines) + "\n"


def make_inputs(workload: str, seed: int, out: Path) -> None:
    """Write one workload's inputs into ``out`` (see the README for sizes)."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0x7E57])
    meta: dict = {"workload": workload, "seed": seed}
    if workload == "walkthrough":
        (out / "uniform.policy").write_text(
            policy_text(WALKTHROUGH_CAPACITY, WALKTHROUGH_RHO, "uniform_random"), encoding="utf-8")
        meta["program_seed"] = int(rng.integers(0, 2**31))
    elif workload == "thompson_pool":
        write_csv(out / "train.csv", COHORT_HEADER,
                  cohort_rows(draw_population(rng, THOMPSON_TRAIN_WEEKS)))
        write_csv(out / "pool.csv", COHORT_HEADER,
                  cohort_rows(draw_population(rng, THOMPSON_POOL_WEEKS)))
        (out / "thompson.policy").write_text(
            policy_text(THOMPSON_CAPACITY, THOMPSON_RHO, "thompson", THOMPSON_ARMS),
            encoding="utf-8")
        meta["program_seed"] = int(rng.integers(0, 2**31))
        # The model is trained here, in set-up, by the program itself.
        sys.path.insert(0, str(Path("src").resolve()))
        from banditriage import cli

        code = cli.main(["train", "--cohort", str(out / "train.csv"), "--kind", "poly2",
                         "--out", "model.txt", "--out-dir", str(out), "--quiet",
                         "--seed", str(meta["program_seed"])])
        if code != 0:
            raise SystemExit(f"set-up training failed with exit {code}")
    elif workload == "bulk_ingest":
        pop = draw_population(rng, BULK_WEEKS)
        rows, spoil = export_rows(rng, pop)
        write_csv(out / "export.csv", EXPORT_HEADER, rows)
        np.savez(out / "truth.npz", **pop)
        meta["spoiled"] = {str(k): v for k, v in spoil.items()}
        meta["program_seed"] = int(rng.integers(0, 2**31))
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 4:
        raise SystemExit("usage: inputs.py WORKLOAD SEED DIR")
    make_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
