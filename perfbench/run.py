"""Benchmark runner: one workload, one seed, one fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Set-up (not timed): make the workload's inputs
from the seed, in a child process, and cache them under perfbench/.work;
time ``import banditriage.cli`` in fresh interpreters (``setup_s``); import
it once here. Then run whole rounds of the workload's CLI calls through
``banditriage.cli.main(argv)`` in this process, one after another, until S
seconds of program time have passed. Peak RSS is read after the last round,
then the outputs are checked. The last line of standard output is the JSON
result; with ``--trace 1`` its metrics are the per-layer ones.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: timings then do not depend on how many cores the
# machine lends a run. This must precede the first numpy import.
BLAS_THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 5


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def prepare_inputs(workload: str, seed: int) -> tuple[Path, dict]:
    """Inputs for (workload, seed), made once in a child process and cached."""
    inp = WORK / "inputs" / f"{workload}-{seed}"
    if not (inp / "meta.json").exists():
        shutil.rmtree(inp, ignore_errors=True)
        tmp = inp.with_name(inp.name + f".tmp{os.getpid()}")
        proc = subprocess.run([sys.executable, str(HERE / "inputs.py"), workload, str(seed),
                               str(tmp)], env=child_env(), capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"input set-up for {workload} failed")
        tmp.rename(inp)
    return inp, json.loads((inp / "meta.json").read_text(encoding="utf-8"))


def measure_setup() -> float:
    """Median wall time of a fresh interpreter that imports banditriage.cli."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import banditriage.cli"], env=child_env(),
                       check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_round(cli, calls: list[list[str]]) -> tuple[list[float], int]:
    """Run one round's calls; returns each call's wall time and the failures."""
    times, failed = [], 0
    for argv in calls:
        captured = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            code = cli.main(argv)
        times.append(time.perf_counter() - t0)
        if code != 0:
            failed += 1
            sys.stderr.write(f"exit {code}: banditriage {' '.join(argv)}\n{captured.getvalue()}")
    return times, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "banditriage" / "cli.py").is_file():
        print(f"error: no banditriage sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    inp, meta = prepare_inputs(args.workload, args.seed)
    import tracing

    if args.trace:
        layer = tracing.import_metrics(sys.executable, child_env(), SETUP_REPEATS)
    else:
        setup_s = measure_setup()
    sys.path.insert(0, str(SRC))
    from banditriage import cli
    import checks
    import numpy
    import scipy

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported banditriage from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    run_dir = WORK / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    rounds = []  # (out dir, per-call times, tracer or None)
    attempted = failed = 0
    timed = 0.0
    while timed < args.seconds or len(rounds) < 1 + args.trace:
        out = run_dir / f"r{len(rounds)}"
        calls, _ = workloads.plan(args.workload, inp, out, meta)
        tracer = tracing.Tracer() if args.trace and len(rounds) % 2 == 1 else None
        with tracer or contextlib.nullcontext():
            times, round_failed = run_round(cli, calls)
        rounds.append((out, times, tracer))
        attempted += len(calls)
        failed += round_failed
        timed += sum(times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks: every check on the first round, byte identity for the others.
    results = []
    first = rounds[0][0]
    _, ctx = workloads.plan(args.workload, inp, first, meta)
    for check in checks.CHECKS[args.workload]:
        results.append(_run_check(check.__name__, lambda c=check: c(ctx)))
    for out, _, _ in rounds[1:]:
        results.append(_run_check(f"same_artifacts[{out.name}]",
                                  lambda o=out: checks.check_same_artifacts(first, o)))
    attempted += len(results)
    failed += sum(not ok for _, ok, _ in results)
    correct = all(ok for _, ok, _ in results)
    mean_recall = checks.MEAN_RECALL[args.workload](ctx) if correct else None

    plain = [times for _, times, tracer in rounds if tracer is None]
    # One round's wall time: each call's median over the rounds, summed.
    wall_s = sum(statistics.median(call) for call in zip(*plain))
    if args.trace:
        traced = [(times, tracer) for _, times, tracer in rounds if tracer is not None]
        per_round = [tracer.metrics() for _, tracer in traced]
        for name in per_round[0]:
            layer[name] = statistics.median(m[name] for m in per_round)
        layer["cli.artifact_bytes"] = float(sum(p.stat().st_size for p in first.iterdir()))
        layer["trace.wall_s"] = statistics.median(sum(t) for t, _ in traced)
        layer["trace.overhead"] = layer["trace.wall_s"] / statistics.median(sum(t) for t in plain)
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in layer.items()}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "mean_recall": {"value": mean_recall, "unit": "ratio"},
        }

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted, "failed": failed,
        "rounds": [{"dir": out.name, "traced": tracer is not None, "call_s": times}
                   for out, times, tracer in rounds],
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in results],
        "metrics": metrics,
        "machine": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__,
                    "blas_threads": BLAS_THREADS, "platform": platform.platform()},
    }
    if args.trace:
        report["spans"] = rounds[1][2].spans  # the first traced round
    (WORK / "reports").mkdir(parents=True, exist_ok=True)
    report_path = WORK / "reports" / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    for name, ok, detail in results:
        if not ok:
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(rounds)} rounds, {attempted} operations, "
          f"{failed} failed; cpus={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} blas_threads=1")
    for name, m in metrics.items():
        shown = "-" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:28s} {shown} {m['unit']}")
    print(f"  report: {report_path.relative_to(ROOT)}")
    if correct:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and not failed else 1


def _run_check(name: str, fn) -> tuple[str, bool, str]:
    # A tampered or truncated artifact can break a reader before a check
    # gets to judge it; that is a failed check too, not a crashed run.
    try:
        fn()
    except Exception as exc:  # noqa: BLE001
        return name, False, f"{type(exc).__name__}: {exc}"
    return name, True, ""


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return {"cli.artifact_bytes": "bytes", "trace.overhead": "ratio"}.get(name, "count")


if __name__ == "__main__":
    sys.exit(main())
