"""serve_small and serve_large_attach: warm-process pipeline.run, one client,
closed loop, workers=1 (the CLI default).

The language backend is the stock scripted backend over a rule table the
benchmark writes: rule "[tNN]" answers with template NN of response_pool().
The pool is fixed, so golden.json pins the manifest and artifact digests
of every template; the run seed only picks which templates are asked
for, in which order, and the attachment bytes, sizes and names.
"""

from __future__ import annotations

import copy
import functools
import json
import os
import random
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from modalkit import pipeline
from modalkit.config import build_language_backend, build_registry, load_app_config
from modalkit.instruct import Attachment
from modalkit.meta import Modality
from modalkit.zoo import ModelRegistry

import tracing
from common import OpLog, load_golden, percentile, sha256_bytes, sha256_file, sha256_text, stopwatch, write_config

KINDS = ("text-to-image", "text-to-audio", "text-to-video")
UNSERVED = "text-to-music"  # well-formed kind that no backend serves: the degraded path
STYLES = {
    "text-to-image": "A photo of {}",
    "text-to-audio": "The sound of {}",
    "text-to-video": "A video of {}",
    UNSERVED: "A melody about {}",
}
SUBJECTS = ("cat", "lighthouse", "tram", "violin", "glacier", "heron", "kettle", "comet", "orchard")
PLACES = ("at dawn", "in the rain", "on a hill", "under neon light", "by the sea", "in a quiet room")
EXTENSIONS = {"png": Modality.IMAGE, "wav": Modality.AUDIO, "mp4": Modality.VIDEO}

# Answers per block of 50 serve_small requests: (class, form, count).  The
# shares are a synthetic choice, not measured traffic (perfbench/README.md
# gives the reason for each).  They are fixed so the plan-size mix is the
# same for every seed; the one 64-item plan alternates between canonical
# and tuple form by block.
SMALL_MIX = (
    ("text", "canonical", 8),
    ("degraded", "canonical", 4),
    ("degraded", "tuple", 2),
    ("one_image", "canonical", 7),
    ("one_image", "tuple", 3),
    ("one_audio", "canonical", 7),
    ("one_audio", "tuple", 3),
    ("one_video", "canonical", 7),
    ("one_video", "tuple", 3),
    ("eight", "canonical", 3),
    ("eight", "tuple", 2),
    ("sixtyfour", None, 1),
)
# 50 attachment sizes per block, log-spaced from 1 KiB to 64 KiB.
SMALL_SIZES = tuple(round(1024 * 64 ** (k / 49)) for k in range(50))
# serve_large_attach: per block, 16 fresh files (one per log-spaced size
# from 64 KiB to 1 MiB) plus one repeat of each of the previous block's 16.
LARGE_SIZES = tuple(round(65536 * 16 ** (k / 15)) for k in range(16))
LARGE_MIX = (("text", "canonical", 16), ("one_image", "canonical", 16))
MIN_REQUESTS = 200  # so the p95 has at least ten samples beyond it
PLAN_LABEL = {"text": "0", "degraded": "degraded", "one_image": "1", "one_audio": "1", "one_video": "1", "eight": "8", "sixtyfour": "64"}


@dataclass(frozen=True)
class Template:
    id: str
    cls: str
    form: str  # canonical | tuple
    response: str


@dataclass(frozen=True)
class Request:
    template: Template
    path: Path
    modality: Modality
    size: int
    repeat: bool


def _answer(text: str, invocations: list[tuple[str, str]], form: str) -> str:
    if form == "canonical":
        items = [{"model": m, "prompt": p} for m, p in invocations]
        return json.dumps({"text": text, "invocations": items}, separators=(",", ":"))
    records = ", ".join(f'("{m}", "{p}")' for m, p in invocations)
    return f"{text} [{records}, ]"


def response_pool() -> list[Template]:
    """The fixed answers the rule table can give; independent of the run seed."""
    counter = iter(range(10_000))

    def calls(kinds):
        out = []
        for kind in kinds:
            i = next(counter)
            subject = f"a {SUBJECTS[i % len(SUBJECTS)]} {PLACES[i // len(SUBJECTS) % len(PLACES)]}"
            out.append((kind, STYLES[kind].format(subject)))
        return out

    spec = [("text", "canonical", f"The attachment shows an everyday scene, take {v}.", []) for v in range(4)]
    for kind in KINDS:
        for form in ("canonical", "canonical", "canonical", "tuple", "tuple"):
            spec.append(("one_" + kind.split("-")[-1], form, "Rendering that now.", calls([kind])))
    eight = ["text-to-image", "text-to-video", "text-to-audio"] * 2 + ["text-to-image", "text-to-video"]
    for form in ("canonical", "canonical", "canonical", "tuple", "tuple"):
        spec.append(("eight", form, "Eight renderings, as asked.", calls(eight)))
    for form in ("canonical", "tuple"):
        spec.append(("sixtyfour", form, "A full storyboard.", calls((KINDS * 22)[:64])))
    for form, kinds in (
        ("canonical", [UNSERVED]),
        ("canonical", ["text-to-image", UNSERVED]),
        ("tuple", [UNSERVED]),
        ("tuple", ["text-to-audio", UNSERVED]),
    ):
        spec.append(("degraded", form, "Trying a generator nobody serves.", calls(kinds)))
    return [
        Template(f"t{i:02d}", cls, form, _answer(text, invs, form))
        for i, (cls, form, text, invs) in enumerate(spec)
    ]


def pool_digest(pool: list[Template]) -> str:
    return sha256_text(json.dumps([[t.id, t.cls, t.form, t.response] for t in pool]))


def write_rules(pool: list[Template], path: Path) -> Path:
    rules = [{"instruction_contains": f"[{t.id}]", "respond": t.response} for t in pool]
    rules.append({"respond": '{"text":"no rule matched","invocations":[]}'})
    path.write_text(json.dumps({"rules": rules}, indent=1), encoding="utf-8")
    return path


def trace_digest(text: str) -> str:
    """Digest of trace.json without what varies per request: the stage
    timings and the echoed attachment list (path and modality).  What
    stays pins the parse warnings, routed backends, dims and shapes."""
    doc = json.loads(text)
    for stage in doc["stages"]:
        stage.pop("elapsed_ms", None)
        if stage["name"] == "validate":
            stage["details"]["attachments"] = len(stage["details"]["attachments"])
    return sha256_text(json.dumps(doc, sort_keys=True))


def digest_workspace(ws: Path) -> dict:
    """Digest of what one request left behind: manifest, artifacts, trace
    and file names."""
    manifest = (ws / "manifest.json").read_bytes()
    artifacts = [a["path"] for a in json.loads(manifest)["artifacts"]]
    lines = [f"{name} {sha256_file(ws / name)}" for name in artifacts]
    return {
        "manifest": sha256_bytes(manifest),
        "artifacts": sha256_text("\n".join(lines)),
        "trace": trace_digest((ws / "trace.json").read_text(encoding="utf-8")),
        "files": sorted(os.listdir(ws)),
    }


class Server:
    """The warm process: config, registry and backend built once."""

    def __init__(self, work: Path) -> None:
        self.pool = response_pool()
        rules = write_rules(self.pool, work / "rules.json")
        self.app = load_app_config(write_config(work / "config.json", backend_rules=str(rules)))
        self.registry = build_registry(self.app)
        self.backend = build_language_backend(self.app)
        self.ws_root = work / "ws"
        self.ws_root.mkdir(parents=True, exist_ok=True)

    def request(self, req: Request, ws: Path, registry=None, backend=None):
        user = pipeline.UserRequest(
            f"[{req.template.id}] Please answer about the attached {req.modality.value}.",
            (Attachment(str(req.path), req.modality),),
        )
        return pipeline.run(
            user,
            registry or self.registry,
            backend or self.backend,
            ws,
            cfg=self.app.pipeline,
            seed=self.app.seed,
            workers=1,
        )


def pin(work: Path) -> dict:
    """Golden digests for every template of the pool, at the current commit."""
    server = Server(work)
    att = work / "pin.wav"
    att.write_bytes(b"\x01" * 1024)
    digests = {}
    for tpl in server.pool:
        ws = server.ws_root / tpl.id
        server.request(Request(tpl, att, Modality.AUDIO, 1024, False), ws)
        digests[tpl.id] = digest_workspace(ws)
        shutil.rmtree(ws)
    return {"pool": pool_digest(server.pool), "templates": digests}


def _mix(pool: list[Template], mix, rng: random.Random, block: int) -> list[Template]:
    out = []
    for cls, form, count in mix:
        if form is None:
            form = "canonical" if block % 2 == 0 else "tuple"
        choices = [t for t in pool if t.cls == cls and t.form == form]
        out.extend(rng.choice(choices) for _ in range(count))
    rng.shuffle(out)
    return out


def _write_attachment(rng: random.Random, directory: Path, name: str, size: int):
    ext = rng.choice(sorted(EXTENSIONS))
    path = directory / f"{name}.{ext}"
    path.write_bytes(rng.randbytes(size))
    return path, EXTENSIONS[ext]


def small_blocks(pool, rng: random.Random, att_dir: Path):
    """Blocks of 50 requests, each with its own distinct attachment.
    Yields (requests, files to delete once the block is served)."""
    block = 0
    while True:
        templates = _mix(pool, SMALL_MIX, rng, block)
        sizes = list(SMALL_SIZES)
        rng.shuffle(sizes)
        reqs = []
        for j, (tpl, size) in enumerate(zip(templates, sizes)):
            size += rng.randrange(256)
            path, modality = _write_attachment(rng, att_dir, f"b{block:05d}_{j:02d}", size)
            reqs.append(Request(tpl, path, modality, size, False))
        yield reqs, [r.path for r in reqs]
        block += 1


def large_blocks(pool, rng: random.Random, att_dir: Path):
    """Block 0 uses 16 fresh files once; block b >= 1 uses 16 fresh files
    and repeats each file of block b-1 once, so half the requests repeat
    an earlier attachment at the same path."""

    def fresh(block):
        sizes = list(LARGE_SIZES)
        rng.shuffle(sizes)
        files = []
        for j, size in enumerate(sizes):
            size += rng.randrange(4096)
            path, modality = _write_attachment(rng, att_dir, f"b{block:05d}_{j:02d}", size)
            files.append((path, modality, size))
        return files

    prev = fresh(0)
    templates = _mix(pool, ((c, f, n // 2) for c, f, n in LARGE_MIX), rng, 0)
    yield [Request(t, *f, False) for t, f in zip(templates, prev)], []
    block = 1
    while True:
        cur = fresh(block)
        uses = [(f, False) for f in cur] + [(f, True) for f in prev]
        rng.shuffle(uses)
        templates = _mix(pool, LARGE_MIX, rng, block)
        yield [Request(t, *f, rep) for t, (f, rep) in zip(templates, uses)], [f[0] for f in prev]
        prev = cur
        block += 1


def traced_backend(tracer: tracing.Tracer, backend):
    """A copy of the backend whose generate records a span; the copy keeps
    the class, whose name trace.json records."""
    out = copy.copy(backend)
    out.generate = tracer.wrap("pipeline.backend", backend.generate)
    return out


def run(workload: str, work: Path, seed: int, seconds: float, trace: bool, log: OpLog, corrupt=False):
    """Serve blocks until the deadline has passed and MIN_REQUESTS are timed.

    With trace on, half the blocks run with every layer wrapped in spans
    and half run plain, so one run gives both the per-layer figures and
    the tracing overhead.  Returns (input properties, tracer, traced op count)."""
    golden = load_golden()["serve"]
    server = Server(work)
    if pool_digest(server.pool) != golden["pool"]:
        raise SystemExit("perfbench: response pool changed; re-pin golden.json with --pin")
    tracer = tracing.Tracer()
    treg = ModelRegistry()
    for d in server.registry.descriptors():
        treg.register(d, tracing.traced_executor(tracer, d.kind, server.registry.executor_for(d.name)))
    treg.finalize()
    tbackend = traced_backend(tracer, server.backend)

    att_dir = work / "att"
    att_dir.mkdir(exist_ok=True)
    blocks = small_blocks if workload == "serve_small" else large_blocks
    timed: list[Request] = []
    n_traced = 0
    flip = corrupt

    def verify(ws: Path, template_id: str) -> str | None:
        nonlocal flip
        if flip:
            artifacts = json.loads((ws / "manifest.json").read_text())["artifacts"]
            if artifacts:  # the self-check: flip one byte of one artifact
                flip = False
                victim = ws / artifacts[0]["path"]
                blob = bytearray(victim.read_bytes())
                blob[len(blob) // 2] ^= 0x01
                victim.write_bytes(bytes(blob))
        if digest_workspace(ws) != golden["templates"][template_id]:
            return f"{template_id}: outputs differ from golden.json"
        return None

    deadline = stopwatch(seconds)
    idx = 0
    # Block 0 warms the process and is not timed.  With trace on, blocks
    # 2, 4, ... run traced; every block holds the same mix, so the traced
    # and the plain halves compare like with like.
    for block, (reqs, served) in enumerate(blocks(server.pool, random.Random(seed), att_dir)):
        traced = trace and block > 0 and block % 2 == 0
        for req in reqs:
            ws = server.ws_root / f"r{idx:06d}"
            idx += 1
            if traced:
                call = functools.partial(tracer.traced, "pipeline.run", server.request, req, ws, treg, tbackend)
            else:
                call = functools.partial(server.request, req, ws)
            log.run(workload, call, lambda _: verify(ws, req.template.id), timed=block > 0, traced=traced)
            shutil.rmtree(ws, ignore_errors=True)
            if block > 0:
                timed.append(req)
                n_traced += traced
        for path in served:
            path.unlink()
        if deadline() and len(timed) >= MIN_REQUESTS:
            break
    return _properties(timed), tracer, n_traced


def _properties(reqs: list[Request]) -> dict:
    n = len(reqs)
    kib = [r.size / 1024 for r in reqs]
    plans = Counter(PLAN_LABEL[r.template.cls] for r in reqs)
    return {
        "requests": n,
        "attachment_kib": {
            "min": min(kib),
            "p25": percentile(kib, 25),
            "p50": percentile(kib, 50),
            "p75": percentile(kib, 75),
            "max": max(kib),
            "mean": sum(kib) / n,
        },
        "plan_size_mix": {k: v / n for k, v in sorted(plans.items())},
        "tuple_form_share": sum(r.template.form == "tuple" for r in reqs) / n,
        "degraded_share": plans["degraded"] / n,
        "repeated_attachment_share": sum(r.repeat for r in reqs) / n,
    }
