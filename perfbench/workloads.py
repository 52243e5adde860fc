"""The benchmark's workloads: the CLI calls of one round, and where the
checks find that round's inputs and outputs."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import inputs

MAPPING = Path("src") / "banditriage" / "mappings" / "hebrew_export.mapping"
BOOTSTRAP_REPLICATES = 300
BULK_K_LIST = (500, 1000, 2000)
NAMES = ("walkthrough", "thompson_pool", "bulk_ingest")


@dataclass
class Context:
    """One round's inputs and outputs, and what the checks expect of them."""

    inputs: Path
    out: Path
    meta: dict
    cohort: Path | None = None  # the cohort a replay ran on
    model: Path | None = None  # the replay's initial model
    capacity: int = 0
    rho: float = 0.0
    arms: tuple = ()  # Thompson arms as (name, predicate, alpha, beta)


def plan(workload: str, inp: Path, out: Path, meta: dict) -> tuple[list[list[str]], Context]:
    """argv of every CLI call in one round, in order, and the check context."""
    common = ["--out-dir", str(out), "--seed", str(meta["program_seed"]), "--quiet"]
    if workload == "walkthrough":
        cohort, model, shift = out / "cohort.csv", out / "model.txt", out / "shift.csv"
        k = str(inputs.WALKTHROUGH_CAPACITY)
        calls = [
            ["synth", "--scenario", "default", "--out", cohort.name],
            ["correlate", "--cohort", str(cohort)],
            ["train", "--cohort", str(cohort), "--weeks", "1-3", "--kind", "poly2",
             "--out", model.name],
            ["simulate", "--cohort", str(cohort), "--model", str(model),
             "--policy", str(inp / "uniform.policy"), "--weeks", "4-8", "--retrain-every", "1"],
            ["sweep", "--cohort", str(cohort), "--model", str(model),
             "--rho-list", "0.3,0.4,0.5,0.6,0.7", "--k-list", k],
            ["bootstrap", "--cohort", str(cohort), "--model", str(model), "--k", k,
             "--weeks", "4-8", "--replicates", str(BOOTSTRAP_REPLICATES)],
            ["synth", "--scenario", "regime_shift", "--out", shift.name],
            ["report", "--cohort", str(shift), "--crossover", "--weeks-a", "10-12",
             "--weeks-b", "21-23", "--weeks", "24-26", "--k-list", "100,400,1600,2000"],
        ]
        ctx = Context(inp, out, meta, cohort, model,
                      capacity=inputs.WALKTHROUGH_CAPACITY, rho=inputs.WALKTHROUGH_RHO)
    elif workload == "thompson_pool":
        calls = [["simulate", "--cohort", str(inp / "pool.csv"), "--model", str(inp / "model.txt"),
                  "--policy", str(inp / "thompson.policy"), "--retrain-every", "0"]]
        ctx = Context(inp, out, meta, inp / "pool.csv", inp / "model.txt",
                      capacity=inputs.THOMPSON_CAPACITY, rho=inputs.THOMPSON_RHO,
                      arms=inputs.THOMPSON_ARMS)
    elif workload == "bulk_ingest":
        calls = [
            ["ingest", "--input", str(inp / "export.csv"), "--mapping", str(MAPPING),
             "--out", "cohort.csv", "--report", "rejections.tsv"],
            ["report", "--cohort", str(out / "cohort.csv"), "--models", "rule_based",
             "--k-list", ",".join(str(k) for k in BULK_K_LIST)],
        ]
        ctx = Context(inp, out, meta)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [call + common for call in calls], ctx
