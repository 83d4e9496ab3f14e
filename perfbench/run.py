"""modalkit benchmark: one workload per run, the result as the last stdout line.

Run from the repository root (the checkout that holds src/modalkit):

    python3 perfbench/run.py --workload serve_small --seed 1 --trace 0
    python3 perfbench/run.py --workload all                # every workload, one table
    python3 perfbench/run.py --self-check                  # a flipped byte must fail
    python3 perfbench/run.py --pin                         # rewrite golden.json

--trace 0 reports the end-to-end metrics of BENCHMARK.json, with every
timing adjusted for the host's speed (common.timed_adjusted), --trace 1
the per-layer ones.  The line before the result is a report: machine
stamp, input properties, the workload's named throughputs, the
wall-clock figures and any failures.  --seconds defaults to run_seconds
in BENCHMARK.json.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from common import (
    GOLDEN_PATH, REF_NOMINAL_S, ROOT, SRC, WORK, OpLog, environment, percentile, timed_adjusted, write_config,
)

WORKLOADS = (
    "serve_small",
    "serve_large_attach",
    "dataset_generate",
    "dataset_validate",
    "dataset_llm",
    "train_gradcheck",
)
SETUP_REPS = 5
# Timed in a fresh interpreter: import modalkit, then build config,
# registry and language backend, as every CLI command does.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import modalkit.cli
from modalkit.config import build_language_backend, build_registry, load_app_config
app = load_app_config(sys.argv[2])
build_registry(app)
build_language_backend(app)
print(time.perf_counter() - t0)
"""


def import_modalkit(need_golden: bool = True) -> None:
    """Put the checkout's src/ first on the path; refuse to run without it."""
    init = SRC / "modalkit" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run from a modalkit checkout")
    sys.path.insert(0, str(SRC))
    import modalkit

    if Path(modalkit.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported modalkit from {modalkit.__file__}, not {SRC}")
    if need_golden and not GOLDEN_PATH.is_file():
        sys.exit(f"perfbench: {GOLDEN_PATH} missing; run with --pin first")


class SetupSampler:
    """Times SETUP_REPS fresh-interpreter set-ups spread over the run,
    each between two operations.  The host's speed drifts over seconds,
    and set-ups run back to back would all land in one phase of it."""

    def __init__(self, seconds: float) -> None:
        self.config: Path | None = None  # set once the workload has one
        start = time.perf_counter()
        self.due = [start + seconds * (i + 0.5) / SETUP_REPS for i in range(SETUP_REPS)]
        self.times: list[float] = []  # wall clock
        self.adjusted: list[float] = []

    def __call__(self) -> None:
        if len(self.times) < SETUP_REPS and time.perf_counter() >= self.due[len(self.times)]:
            self.sample()

    def sample(self) -> None:
        proc, dt, adjusted = timed_adjusted(lambda: subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(self.config)],
            capture_output=True, text=True, timeout=120, check=True,
        ))
        if isinstance(proc, Exception):
            raise proc
        # The child times its own set-up; the reference timings around it
        # scale that time as OpLog scales an operation's.
        wall = float(proc.stdout.strip().splitlines()[-1])
        self.times.append(wall)
        self.adjusted.append(wall * adjusted / dt)

    def finish(self) -> None:
        while len(self.times) < SETUP_REPS:
            self.sample()


def run_workload(name: str, seed: int, seconds: float, trace: bool, corrupt: bool = False, setup=None):
    """Run one workload; returns (op log, input properties, tracer, traced
    ops, work directory).  With setup, the set-up timings are taken
    between its operations."""
    import dataset
    import serve
    import train

    # The dataset commands print paths under their work directory, and
    # golden.json pins that stdout, so the three share one directory.
    work = WORK / ("dataset" if name.startswith("dataset_") else name)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = OpLog()
    if setup is not None:
        # serve and dataset write the workload's config before their first
        # operation; train has none of its own, so it sets up from the default.
        setup.config = work / "config.json"
        if name == "train_gradcheck":
            write_config(setup.config)
        log.between = setup
    if name in ("serve_small", "serve_large_attach"):
        props, tracer, n_traced = serve.run(name, work, seed, seconds, trace, log, corrupt=corrupt)
    elif name.startswith("dataset_"):
        props, tracer, n_traced = dataset.run(name.removeprefix("dataset_"), work, seed, seconds, trace, log)
    else:
        props, tracer, n_traced = train.run(seed, seconds, trace, log)
    return log, props, tracer, n_traced, work


def named_throughputs(name: str, log: OpLog) -> dict:
    """The workload's own end-to-end figures, named as in the README,
    from adjusted times."""
    from dataset import PAIRS_PER_OP
    from train import TRAIN

    def rate(kind, units):
        lat = [s for s, k in zip(log.adjusted_s, log.kinds) if k == kind]
        return {"value": units * len(lat) / sum(lat), "unit": "1/s"} if lat else None

    if name.startswith("dataset_"):
        command = name.removeprefix("dataset_")
        return {f"{command}_pairs_per_s": rate(command, PAIRS_PER_OP[command])}
    if name == "train_gradcheck":
        return {
            "gradcheck_trials_per_s": rate("gradcheck", 1),
            "train_steps_per_s": rate("train_toy", TRAIN["steps"]),
        }
    return {}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true", help="show that a flipped artifact byte fails")
    p.add_argument("--pin", action="store_true", help="rewrite golden.json from the current code")
    args = p.parse_args()
    os.chdir(ROOT)  # dataset commands print paths relative to the root
    if args.pin:
        return pin()
    import_modalkit()
    if args.self_check:
        return self_check()
    if args.workload is None:
        p.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    sampler = SetupSampler(args.seconds)
    log, props, tracer, n_traced, work = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), setup=sampler
    )
    config = sampler.config
    sampler.finish()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    measured = dict(log.end_to_end(), setup_s=percentile(sampler.adjusted, 50), peak_rss_mb=peak_rss_mib)
    wall = dict(log.end_to_end(adjusted=False), setup_s=percentile(sampler.times, 50))
    if args.trace:
        import tracing
        from modalkit import config as mk_config

        with tracing.Swap(tracer):
            for _ in range(SETUP_REPS):
                mk_config.build_registry(mk_config.load_app_config(config))
        tracer.write(WORK / f"spans-{args.workload}.jsonl")
        metrics = tracing.per_layer(tracer, n_traced, log.latency_s, log.traced_latency_s)
        wanted = spec["per_layer"]
    else:
        metrics = measured
        wanted = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ {m['name'] for m in wanted})} disagree with BENCHMARK.json")
    shutil.rmtree(work, ignore_errors=True)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "inputs": props,
        "timed_ops": len(log.latency_s),
        "traced_ops": len(log.traced_latency_s),
        "end_to_end": measured,
        "end_to_end_wall_clock": wall,
        "reference_ms": percentile(
            [1000.0 * REF_NOMINAL_S * w / a for w, a in zip(log.latency_s, log.adjusted_s)], 50
        ),
        "setup_s_samples": {"wall_clock": sampler.times, "adjusted": sampler.adjusted},
        "named": named_throughputs(args.workload, log),
        "ops_failed_frac": log.failed / max(log.attempted, 1),
        "failures": log.failures,
    }
    print("report " + json.dumps(report))
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, then one table of every end-to-end metric."""
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        report = json.loads(lines[-2].removeprefix("report "))
        result = json.loads(lines[-1])
        for metric, m in result["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
        for metric, m in report["named"].items():
            rows.append((name, metric, m["value"], m["unit"]))
        rows.append((name, "ops_failed_frac", report["ops_failed_frac"], "1"))
    for name, metric, value, unit in rows:
        print(f"{name:20s} {metric:24s} {value:14.4f} {unit}")
    return 0


def self_check() -> int:
    """A clean serve_small run must verify; the same run with one artifact
    byte flipped must count a failed operation."""
    clean = run_workload("serve_small", 0, 0.0, False)[0]
    flipped = run_workload("serve_small", 0, 0.0, False, corrupt=True)[0]
    frac = flipped.failed / flipped.attempted
    print(f"clean run: {clean.failed} of {clean.attempted} failed")
    print(f"one flipped byte: {flipped.failed} of {flipped.attempted} failed, ops_failed_frac {frac:.4f}")
    print(f"first failure: {flipped.failures[:1]}")
    ok = clean.failed == 0 and frac > 0
    print("self-check " + ("PASS" if ok else "FAIL"))
    shutil.rmtree(WORK / "serve_small", ignore_errors=True)
    return 0 if ok else 1


def pin() -> int:
    """Write golden.json from the current code.  Only for a deliberate
    change of outputs; the commit that does it says why."""
    import_modalkit(need_golden=False)
    import dataset
    import serve
    import train

    golden = {}
    for name, fn in (
        ("serve", lambda: serve.pin(WORK / "serve_small")),
        ("dataset", lambda: dataset.pin(WORK / "dataset")),
        ("train", train.pin),
    ):
        work = WORK / ("serve_small" if name == "serve" else "dataset")
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        golden[name] = fn()
        shutil.rmtree(work, ignore_errors=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
