"""Pieces every workload shares: paths, digests, percentiles, the op log,
the benchmark config file and the environment stamp."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import re
import time
from pathlib import Path

import numpy

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = SRC / "modalkit" / "data"
WORK = ROOT / ".perfbench_work"
GOLDEN_PATH = BENCH_DIR / "golden.json"


def sha256_bytes(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def sha256_text(text: str) -> str:
    return sha256_bytes(text.encode("utf-8"))


def sha256_file(path: Path) -> str:
    return sha256_bytes(Path(path).read_bytes())


def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated percentile, q in [0, 100], of a nonempty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def stopwatch(seconds: float):
    """A callable that turns true once seconds have passed since this call."""
    end = time.perf_counter() + seconds
    return lambda: time.perf_counter() >= end


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


# The reference loop: fixed work that touches none of modalkit, in the
# same mix of kinds as modalkit's own (JSON, regexes, a pure-Python
# integer loop, hashing, small numpy products).  A shared host runs all
# of it slower or faster together, by up to 1.8x within seconds, so the
# loop's time next to an operation measures the host's speed right then.
_REF_ITEMS = [{"id": f"r{i:03d}", "type": "caption", "text": f"word {i} " * 4, "n": i} for i in range(60)]
_REF_RE = re.compile(r"(\w+) (\d+)")
_REF_BLOB = bytes(range(256)) * 64
_REF_MATRIX = numpy.arange(1024, dtype=numpy.float64).reshape(32, 32) / 1e3
# About its best time on the baseline's host (environment in
# baseline.json) when quiet.  It only sets the unit: adjusted timings are
# wall time scaled to a host on which the loop takes exactly this long.
REF_NOMINAL_S = 0.0005


def _reference_loop() -> None:
    text = json.dumps(_REF_ITEMS)
    json.loads(text)
    _REF_RE.findall(text)
    acc = 0
    for i in range(1500):
        acc += i * i
    hashlib.sha256(_REF_BLOB).digest()
    for _ in range(8):
        _REF_MATRIX @ _REF_MATRIX


def reference_time() -> float:
    """Best of three timings of the reference loop, with the cyclic GC
    off so that the size of the program's heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            _reference_loop()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


def timed_adjusted(fn):
    """Run fn(); return (result or exception, wall seconds, adjusted
    seconds).  Adjusted is wall time times REF_NOMINAL_S over the mean
    of the reference timings taken just before and just after fn."""
    before = reference_time()
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # noqa: BLE001 - the caller decides what a raise means
        result = exc
    dt = time.perf_counter() - t0
    after = reference_time()
    return result, dt, dt * REF_NOMINAL_S * 2.0 / (before + after)


class OpLog:
    """Outcome and latency of every operation a run attempts.

    Warm-up operations are verified and counted as attempted, but their
    latency stays out of the statistics.  Traced operations are kept
    apart from untraced ones so the end-to-end figures never include
    tracing cost.  Each timed operation keeps its wall time and its
    adjusted time (see timed_adjusted); the end-to-end figures use the
    adjusted one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latency_s: list[float] = []  # untraced, timed, wall clock
        self.adjusted_s: list[float] = []  # the same operations, adjusted
        self.traced_latency_s: list[float] = []
        self.kinds: list[str] = []  # kind of each untraced, timed op
        self.between = None  # called after each operation, outside its timing

    def run(self, kind: str, fn, verify, timed: bool = True, traced: bool = False):
        """Time fn(), then check its result with verify(result) -> error or None."""
        self.attempted += 1
        error = None
        result, dt, adjusted = timed_adjusted(fn)
        if isinstance(result, Exception):  # any raise is a failed op
            result, error = None, f"raised {type(result).__name__}: {result}"
        if error is None:
            try:
                error = verify(result)
            except Exception as exc:  # noqa: BLE001 - e.g. an expected file is missing
                error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            self._fail(kind, error)
        if timed:
            if traced:
                self.traced_latency_s.append(dt)
            else:
                self.latency_s.append(dt)
                self.adjusted_s.append(adjusted)
                self.kinds.append(kind)
        if self.between is not None:
            self.between()
        return result

    def _fail(self, kind: str, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{kind}: {message}")

    def end_to_end(self, adjusted: bool = True) -> dict[str, float]:
        seconds = self.adjusted_s if adjusted else self.latency_s
        lat_ms = [s * 1000.0 for s in seconds]
        return {
            "request_p50_ms": percentile(lat_ms, 50),
            "request_p95_ms": percentile(lat_ms, 95),
            "requests_per_s": len(lat_ms) / sum(seconds),
        }


def write_config(path: Path, **overrides) -> Path:
    """The bundled default config with every input path made absolute,
    plus the given top-level overrides, written to path."""
    doc = json.loads((DATA / "default_config.json").read_text(encoding="utf-8"))
    doc["backend_rules"] = str(DATA / doc["backend_rules"])
    inst = doc["instruct"]
    for key in ("seeds", "references"):
        inst[key] = str(DATA / inst[key])
    inst["candidates"] = {m: str(DATA / name) for m, name in inst["candidates"].items()}
    doc["chat"]["fixture_path"] = str(DATA / doc["chat"]["fixture_path"])
    doc.update(overrides)
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return path


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": _git_rev(),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_rev() -> str:
    """HEAD of the checkout, read from .git without running git; a
    checkout that is not a repository reports 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
