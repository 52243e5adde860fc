"""The benchmark's tracer (``perfbench/tracing.py``) wraps program functions by
name and reads some of their parameters. This checks, against the unmodified
tracer, that every name it pins still resolves and that a tiny synth -> train
-> simulate run under it counts training, selection and replay, and Thompson
allocation's slots and picks."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from banditriage import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _binding(module_name: str, path: str):
    """What a target names: a module attribute or a raw class attribute."""
    owner = sys.modules[f"banditriage.{module_name}"]
    if "." in path:
        cls_name, attr = path.split(".")
        return vars(getattr(owner, cls_name))[attr]
    return getattr(owner, path)


def test_targets_resolve_and_the_pipeline_counts(tracing, tmp_path):
    originals = {(m, p): _binding(m, p) for m, p, _, _ in tracing.TARGETS}
    common = ["--out-dir", str(tmp_path), "--seed", "3", "--quiet"]
    cohort, model = str(tmp_path / "cohort.csv"), str(tmp_path / "model.txt")
    policy = tmp_path / "uniform.policy"
    policy.write_text("[policy]\ncapacity = 100\nexploration_fraction = 0.3\n", encoding="utf-8")
    with tracing.Tracer() as tracer:
        for (module_name, path), original in originals.items():
            assert _binding(module_name, path) is not original, f"{module_name}.{path} not wrapped"
        for argv in (["synth", "--scenario", "oracle", "--out", "cohort.csv"],
                     ["train", "--cohort", cohort, "--weeks", "1-2", "--epochs", "2",
                      "--out", "model.txt"],
                     ["simulate", "--cohort", cohort, "--model", model, "--policy", str(policy),
                      "--weeks", "3-4"]):
            assert cli.main(argv + common) == cli.EXIT_OK, argv
    assert all(_binding(m, p) is original for (m, p), original in originals.items())
    metrics = tracer.metrics()
    for name in ("scoring.train_calls", "policy.select_calls", "simulate.periods"):
        assert metrics[name] > 0, name


def test_thompson_slots_are_counted_and_filled(tracing, tmp_path):
    # The tracer reads thompson_allocate's k and the length of the first item
    # it returns; the arms cover the pool, so every slot is filled.
    common = ["--out-dir", str(tmp_path), "--seed", "3", "--quiet"]
    policy = tmp_path / "thompson.policy"
    policy.write_text("[policy]\ncapacity = 100\nexploration_fraction = 0.5\n"
                      "sampler = thompson\nstrict_arm_coverage = true\n"
                      "[arm contact]\npredicate = contact_with_confirmed=1\n"
                      "[arm other]\npredicate = contact_with_confirmed=0\n", encoding="utf-8")
    synth = ["synth", "--scenario", "oracle", "--out", "cohort.csv"]
    assert cli.main(synth + common) == cli.EXIT_OK
    with tracing.Tracer() as tracer:
        assert cli.main(["simulate", "--cohort", str(tmp_path / "cohort.csv"), "--rule-based",
                         "--policy", str(policy), "--weeks", "3-4", *common]) == cli.EXIT_OK
    metrics = tracer.metrics()
    assert metrics["policy.thompson_slots"] == metrics["policy.thompson_filled"] == 100
