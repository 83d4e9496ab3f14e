"""dataset_generate, dataset_validate and dataset_llm: in-process cli.main
for one command at 10k pairs each, one workload per command so each
command has its own latency percentiles and rate.

dataset_generate runs generate-instructions --mode template (writes
JSONL).  dataset_validate runs validate-dataset --mode lenient on that
output with legacy and invalid lines spliced in (reads).  dataset_llm
runs generate-instructions --mode llm against a replay fixture the
benchmark writes (chat, parse, validate, rejects).  The template seed
and the fixture are fixed, so golden.json pins their outputs; the run
seed places the spliced lines in the validate input, whose expected
report follows from the placement.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import re
from pathlib import Path

from modalkit import cli
from modalkit.chat import chat_payload, request_fingerprint
from modalkit.config import load_app_config, load_instruct_corpus
from modalkit.instruct import InstructionType, assemble_query, build_bundle

import tracing
from common import DATA, ROOT, OpLog, load_golden, sha256_file, sha256_text, stopwatch, write_config

N_PAIRS = 10_000
TEMPLATE_SEED = 0
LEGACY_LINES = 500  # 5% of the template output, spliced in as two-key lines
INVALID_LINES = 200  # 2%, four kinds in turn
BODY_LINES = 50  # per replayed completion: 44 valid, then REJECTS of each reject kind
REJECTS = 2
LLM_TARGET = "output_align"
_LINE_RE = re.compile(r"^line (\d+): (.*)$")


def _legacy_line(k: int) -> str:
    return (
        '{"instruction": ["Generate an image based on the provided audio.", '
        f'"clip_{k:04d}.wav"] "invocation": [("text-to-image", "A photo of scene {k}"), ]}}'
    )


def _invalid_line(k: int) -> str:
    kind = k % 4
    if kind == 0:
        return f'{{"id": "bad-{k:04d}", "type": '  # truncated JSON
    if kind == 1:
        return json.dumps(
            {"id": f"bad-{k:04d}", "type": "caption", "instruction": "x", "attachments": [],
             "invocations": [], "response_text": "x"}
        )
    if kind == 2:  # parses, but output_align without an invocation
        return json.dumps(
            {"id": f"bad-{k:04d}", "type": "output_align", "instruction": "Make an image.",
             "attachments": [], "invocations": [], "response_text": None}
        )
    return f'{{"instruction": ["Describe this.", "scan_{k:04d}.xyz"] "invocation": [("text-to-image", "x"), ]}}'


def _pair(k: int) -> dict:
    kind = ("input_align", "output_align", "reasoning")[k % 3]
    att = [{"path": f"asset_{k:05d}.png", "modality": "image"}]
    if kind == "output_align":
        inv = [{"model": "text-to-audio", "prompt": f"The sound of scene {k}"}]
        return {"id": f"llm-{k:05d}", "type": kind, "instruction": "Generate audio for the image.",
                "attachments": att, "invocations": inv, "response_text": "Here is the audio."}
    return {"id": f"llm-{k:05d}", "type": kind, "instruction": "Describe the given image.",
            "attachments": att, "invocations": [], "response_text": f"The image shows scene {k}."}


def fixture_bodies() -> list[str]:
    """Replayed completions: enough valid lines for N_PAIRS, with a fixed
    share of malformed, invalid and duplicate lines among them."""
    bodies, k = [], 0
    dump = functools.partial(json.dumps, separators=(",", ":"))
    while k < N_PAIRS:
        lines = []
        for _ in range(BODY_LINES - 3 * REJECTS):
            lines.append(dump(_pair(k)))
            k += 1
        lines[5:5] = ['{"id":"broken",', "not json at all"]
        bad = dict(_pair(k), id=f"llm-bad-{k:05d}", invocations=[], type="output_align")
        lines[20:20] = [dump(bad), dump(dict(bad, id=f"llm-bad2-{k:05d}", attachments=[{"path": "", "modality": "image"}]))]
        lines[30:30] = [lines[3], lines[12]]  # duplicate ids
        bodies.append("\n".join(lines))
    return bodies


def _run_cli(argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class Dataset:
    def __init__(self, work: Path, seed: int) -> None:
        self.rel = work.relative_to(ROOT)
        fixture = work / "fixture.json"
        chat = json.loads((DATA / "default_config.json").read_text(encoding="utf-8"))["chat"]
        cfg_path = write_config(work / "config.json", chat=dict(chat, fixture_path=str(fixture)))
        app = load_app_config(cfg_path)
        seeds, candidates, references = load_instruct_corpus(app)
        bundle = build_bundle(
            seeds, candidates, references, InstructionType(LLM_TARGET), app.seed,
            app.instruct.seeds_per_query, app.instruct.candidates_per_query,
            app.instruct.references_per_query,
        )
        fp = request_fingerprint(chat_payload(app.chat.model, assemble_query(bundle)))
        fixture.write_text(json.dumps({"version": 1, "responses": {fp: fixture_bodies()}}), encoding="utf-8")
        self.config = str(cfg_path.relative_to(ROOT))
        self.seed = seed
        self.template_out = str(self.rel / "template.jsonl")
        self.validate_in = str(self.rel / "validate.jsonl")
        self.llm_out = str(self.rel / "llm.jsonl")
        self.invalid_linenos: set[int] = set()

    def generate_argv(self) -> list[str]:
        return ["generate-instructions", "--config", self.config, "--mode", "template",
                "--n", str(N_PAIRS), "--seed", str(TEMPLATE_SEED), "--out", self.template_out]

    def validate_argv(self) -> list[str]:
        return ["validate-dataset", "--mode", "lenient", "--in", self.validate_in]

    def llm_argv(self) -> list[str]:
        return ["generate-instructions", "--config", self.config, "--mode", "llm",
                "--n", str(N_PAIRS), "--target", LLM_TARGET, "--out", self.llm_out]

    def splice(self) -> None:
        """Build the validate input from the template output: legacy and
        invalid lines at seeded positions, in a fixed order."""
        base = (ROOT / self.template_out).read_text(encoding="utf-8").splitlines()
        extra = [(_legacy_line(k), False) for k in range(LEGACY_LINES)]
        extra += [(_invalid_line(k), True) for k in range(INVALID_LINES)]
        random.Random(0).shuffle(extra)  # fixed interleaving of the two kinds
        total = len(base) + len(extra)
        slots = sorted(random.Random(self.seed).sample(range(total), len(extra)))
        lines, it_base, it_extra = [], iter(base), iter(extra)
        slot_set = set(slots)
        for i in range(total):
            if i in slot_set:
                line, invalid = next(it_extra)
                if invalid:
                    self.invalid_linenos.add(i + 1)
                lines.append(line)
            else:
                lines.append(next(it_base))
        (ROOT / self.validate_in).write_text("\n".join(lines) + "\n", encoding="utf-8")

    # -- verification against golden.json -------------------------------

    def check_generate(self, golden, result) -> str | None:
        code, out = result
        if code != 0 or sha256_text(out) != golden["stdout"]:
            return f"exit {code} or stdout differs"
        if sha256_file(ROOT / self.template_out) != golden["jsonl"]:
            return "template JSONL differs"
        return None

    def check_validate(self, golden, result) -> str | None:
        code, out = result
        lines = out.splitlines()
        if code != 1 or not lines or lines[-1] != golden["summary"]:
            return f"exit {code} or summary differs"
        found = [_LINE_RE.match(line) for line in lines[:-1]]
        if not all(found) or {int(m.group(1)) for m in found} != self.invalid_linenos:
            return "reported line numbers differ from the spliced invalid lines"
        if sha256_text("\n".join(sorted(m.group(2) for m in found))) != golden["messages"]:
            return "invalid-line messages differ"
        return None

    def check_llm(self, golden, result) -> str | None:
        code, out = result
        if code != 0 or sha256_text(out) != golden["stdout"]:
            return f"exit {code} or stdout differs"
        if sha256_file(ROOT / self.llm_out) != golden["jsonl"]:
            return "llm JSONL differs"
        return None


def pin(work: Path) -> dict:
    ds = Dataset(work, seed=0)
    code, out = _run_cli(ds.generate_argv())
    if code != 0:
        raise SystemExit(f"template generation exited {code}")
    gen = {"stdout": sha256_text(out), "jsonl": sha256_file(ROOT / ds.template_out)}
    ds.splice()
    code, out = _run_cli(ds.validate_argv())
    lines = out.splitlines()
    found = [_LINE_RE.match(line) for line in lines[:-1]]
    if code != 1 or not all(found) or {int(m.group(1)) for m in found} != ds.invalid_linenos:
        raise SystemExit(f"validate-dataset exited {code} or reported other lines than the spliced ones")
    val = {"summary": lines[-1], "messages": sha256_text("\n".join(sorted(m.group(2) for m in found)))}
    code, out = _run_cli(ds.llm_argv())
    if code != 0:
        raise SystemExit(f"llm generation exited {code}")
    llm = {"stdout": sha256_text(out), "jsonl": sha256_file(ROOT / ds.llm_out), "summary": out.splitlines()[0]}
    return {"fixture": sha256_text("\n".join(fixture_bodies())), "generate": gen, "validate": val, "llm": llm}


COMMANDS = ("generate", "validate", "llm")  # workload dataset_<command>
PAIRS_PER_OP = {"generate": N_PAIRS, "validate": N_PAIRS + LEGACY_LINES + INVALID_LINES, "llm": N_PAIRS}


def run(command: str, work: Path, seed: int, seconds: float, trace: bool, log: OpLog):
    """Repeat one command until the deadline; with trace on, odd
    repetitions run with spans and even ones run plain.  The first run
    of the command warms the process and is verified but not timed."""
    golden = load_golden()["dataset"]
    if sha256_text("\n".join(fixture_bodies())) != golden["fixture"]:
        raise SystemExit("perfbench: llm fixture changed; re-pin golden.json with --pin")
    ds = Dataset(work, seed)
    tracer = tracing.Tracer()
    argv, check = {
        "generate": (ds.generate_argv, ds.check_generate),
        "validate": (ds.validate_argv, ds.check_validate),
        "llm": (ds.llm_argv, ds.check_llm),
    }[command]
    if command == "validate":  # its input is the template output, spliced
        log.run("generate", lambda: _run_cli(ds.generate_argv()),
                lambda r: ds.check_generate(golden["generate"], r), timed=False)
        ds.splice()
    log.run(command, lambda: _run_cli(argv()), lambda r: check(golden[command], r), timed=False)
    rep, n_traced = 0, 0
    deadline = stopwatch(seconds)
    while True:
        traced = trace and rep % 2 == 1
        if traced:
            call = functools.partial(tracer.traced, f"cli.{command}", _run_cli, argv())
        else:
            call = functools.partial(_run_cli, argv())
        log.run(command, call, lambda r: check(golden[command], r), traced=traced)
        n_traced += traced
        rep += 1
        if deadline():
            break
    props = {"runs": rep, "lines_per_run": PAIRS_PER_OP[command]}
    if command == "validate":
        n_lines = PAIRS_PER_OP["validate"]
        props.update(legacy_line_share=LEGACY_LINES / n_lines, invalid_line_share=INVALID_LINES / n_lines)
    if command == "llm":
        props.update(
            llm_fixture_line_share={k: REJECTS / BODY_LINES for k in ("malformed", "invalid", "duplicate")},
            llm_summary=golden["llm"]["summary"],
        )
    return props, tracer, n_traced
