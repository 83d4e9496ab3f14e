"""train_gradcheck: gradient checks and toy training, the only workload that
runs projection.backward, batch_loss and gradient_check.

One block is ten `gradcheck --trials 1 --seed s` commands (the trials a
`gradcheck --trials 10` would run, one command each so every trial has
its own latency) and one train_toy call at a fixed mid-size config.
Trial seeds come from the run seed; the train_toy config and data are
fixed, so golden.json pins its final loss.
"""

from __future__ import annotations

import contextlib
import io
import math
import re

from modalkit import cli, projection
from modalkit.projection import TrainConfig, make_learnable_dataset, uniform_enc_dims

import tracing
from common import load_golden, stopwatch

TRIALS_PER_BLOCK = 10
THRESHOLD = 1e-4  # the CLI default
LOSS_REL_TOL = 1e-9  # final loss may differ from the pinned value by this share
TRAIN = dict(d_enc=32, d_llm=64, rank=4, alpha=8.0, learning_rate=0.05, steps=100, seed=7)
TRAIN_SAMPLES = 48
_WORST_RE = re.compile(r"^worst (\S+) threshold")
_DIMS_RE = re.compile(r" d_llm=(\d+) ")


def train_config() -> TrainConfig:
    cfg = dict(TRAIN)
    return TrainConfig(d_enc=uniform_enc_dims(cfg.pop("d_enc")), **cfg)


def gradcheck(seed: int):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["gradcheck", "--trials", "1", "--seed", str(seed)])
    return code, out.getvalue()


def check_gradcheck(result) -> str | None:
    code, out = result
    lines = out.splitlines()
    m = _WORST_RE.match(lines[-1]) if len(lines) == 2 else None
    if code != 0 or m is None or not float(m.group(1)) < THRESHOLD:
        return f"gradcheck exit {code}: {out.strip()[-200:]}"
    return None


def check_loss(golden_loss: float, result) -> str | None:
    loss = result.trace[-1]
    if len(result.trace) != TRAIN["steps"] + 1 or not math.isclose(loss, golden_loss, rel_tol=LOSS_REL_TOL):
        return f"final loss {loss!r}, pinned {golden_loss!r}"
    return None


def pin() -> dict:
    cfg = train_config()
    result = projection.train_toy(cfg, make_learnable_dataset(cfg, n=TRAIN_SAMPLES, seed=cfg.seed))
    return {"config": dict(TRAIN, samples=TRAIN_SAMPLES), "final_loss": result.trace[-1], "rel_tol": LOSS_REL_TOL}


def run(seed: int, seconds: float, trace: bool, log):
    """Blocks until the deadline; with trace on, odd blocks run with spans."""
    golden = load_golden()["train"]
    if golden["config"] != dict(TRAIN, samples=TRAIN_SAMPLES):
        raise SystemExit("perfbench: train config changed; re-pin golden.json with --pin")
    cfg = train_config()
    data = make_learnable_dataset(cfg, n=TRAIN_SAMPLES, seed=cfg.seed)
    tracer = tracing.Tracer()

    def op(name, fn, traced):
        return tracer.traced(name, fn) if traced else fn()

    log.run("gradcheck", lambda: gradcheck(seed * 1_000_003), check_gradcheck, timed=False)
    block, n_traced, d_llm = 0, 0, []
    deadline = stopwatch(seconds)
    while True:
        traced = trace and block % 2 == 1
        for i in range(TRIALS_PER_BLOCK):
            s = seed * 1_000_003 + 1 + block * TRIALS_PER_BLOCK + i
            result = log.run("gradcheck", lambda s=s: op("cli.gradcheck", lambda: gradcheck(s), traced),
                             check_gradcheck, traced=traced)
            m = _DIMS_RE.search(result[1]) if result else None
            if m:
                d_llm.append(int(m.group(1)))
        log.run("train_toy", lambda: op("projection.train_toy", lambda: projection.train_toy(cfg, data), traced),
                lambda r: check_loss(golden["final_loss"], r), traced=traced)
        n_traced += traced * (TRIALS_PER_BLOCK + 1)
        block += 1
        if deadline():
            break
    props = {
        "gradcheck_trials": block * TRIALS_PER_BLOCK,
        "gradcheck_d_llm_mean": sum(d_llm) / max(len(d_llm), 1),
        "train_toy_calls": block,
        "train_config": golden["config"],
    }
    return props, tracer, n_traced
