"""Command line interface.

Exit codes follow one contract everywhere: 0 success, 1 a validation or
check failed (bad dataset lines, gradient check over threshold, degraded
run, generation shortfall), 2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from .config import (
    build_language_backend,
    build_registry,
    load_app_config,
    load_instruct_corpus,
)
from .errors import InvalidArgument, MalformedLine, ModalkitError
from .instruct import (
    Attachment,
    InstructionType,
    build_bundle,
    generate_pairs_llm,
    pair_from_json,
    template_generate,
    validate_pair,
    write_dataset,
    _recover_two_key,
)
from .media import modality_for_path
from .meta import Modality, has_lone_surrogate, parse_meta_response, serialize_meta_response
from .pipeline import UserRequest, run
from .projection import gradient_check, param_count, random_check_instance
from .zoo import default_registry, manifest_json


def entrypoint() -> None:  # console script target
    raise SystemExit(main())


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModalkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modalkit",
        description="Multi-modal agent pipeline: parse meta-responses, build "
        "instruction datasets, run requests against the model zoo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse-meta", help="parse a meta-response, print canonical JSON")
    p.add_argument("--mode", choices=["strict", "lenient"], default="strict")
    p.add_argument("--file", help="read from this file instead of stdin")
    p.set_defaults(func=cmd_parse_meta)

    p = sub.add_parser("generate-instructions", help="write an instruction dataset (JSONL)")
    p.add_argument("--config", help="config file (defaults to the bundled one)")
    p.add_argument("--mode", choices=["template", "llm"], default="template")
    p.add_argument("--n", type=int, default=10, help="number of pairs to produce")
    p.add_argument("--out", default="instructions.jsonl")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument(
        "--target",
        choices=[t.value for t in InstructionType],
        default="output_align",
        help="pair type requested from the llm mode",
    )
    p.set_defaults(func=cmd_generate_instructions)

    p = sub.add_parser("validate-dataset", help="check a JSONL dataset line by line")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--mode", choices=["strict", "lenient"], default="strict")
    p.add_argument("--config", help="validate against this config's registry")
    p.set_defaults(func=cmd_validate_dataset)

    p = sub.add_parser("run", help="drive one request through the pipeline")
    p.add_argument("--config", help="config file (defaults to the bundled one)")
    p.add_argument("--instruction", default="")
    p.add_argument(
        "--attach",
        action="append",
        default=[],
        metavar="PATH[:MODALITY]",
        help="attachment file; modality inferred from the extension unless given",
    )
    p.add_argument("--workspace", help="output directory (default from config)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("gradcheck", help="compare analytic gradients to finite differences")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.add_argument("--perturb-gradients", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("params", help="print the trainable parameter budget")
    p.add_argument("--config", help="config file (defaults to the bundled one)")
    p.set_defaults(func=cmd_params)

    return parser


def cmd_parse_meta(args) -> int:
    try:
        raw = Path(args.file).read_text(encoding="utf-8") if args.file else sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidArgument(f"cannot read {args.file or 'stdin'}: {exc}") from None
    meta, diags = parse_meta_response(raw, mode=args.mode)
    for offset, message in diags.warnings:
        print(f"warning: byte {offset}: {message}", file=sys.stderr)
    print(serialize_meta_response(meta))
    return 0


def cmd_generate_instructions(args) -> int:
    if args.n < 1:
        raise InvalidArgument(f"--n must be >= 1, got {args.n}")
    app = load_app_config(args.config)
    seed = app.seed if args.seed is None else args.seed
    seeds, candidates, references = load_instruct_corpus(app)
    shortfall = 0
    if args.mode == "template":
        pairs = template_generate(candidates, app.instruct.type_mix, seed, args.n)
    else:
        if app.chat is None:
            raise InvalidArgument("llm mode needs a chat section in the config")
        bundle = build_bundle(
            seeds,
            candidates,
            references,
            InstructionType(args.target),
            seed,
            app.instruct.seeds_per_query,
            app.instruct.candidates_per_query,
            app.instruct.references_per_query,
        )
        registry = build_registry(app)
        pairs, report = generate_pairs_llm(app.chat, bundle, args.n, registry)
        shortfall = report.shortfall
        print(report.summary())
    try:
        write_dataset(pairs, args.out)
    except OSError as exc:
        raise InvalidArgument(f"cannot write {args.out}: {exc}") from None
    counts = Counter(p.type.value for p in pairs)
    for t in InstructionType:
        print(f"{t.value} {counts.get(t.value, 0)}")
    print(f"wrote {len(pairs)} pairs to {args.out}")
    return 1 if shortfall else 0


def cmd_validate_dataset(args) -> int:
    registry = build_registry(load_app_config(args.config)) if args.config else default_registry()
    invalid = 0
    checked = 0
    seen_ids: set[str] = set()
    try:
        # surrogateescape turns each undecodable byte into a lone surrogate,
        # so a non-UTF-8 line is reported as one bad line
        fh = open(args.input, encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise InvalidArgument(f"cannot read {args.input}: {exc}") from None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                if has_lone_surrogate(line):
                    raise MalformedLine(lineno, "not valid UTF-8")
                try:
                    pair = pair_from_json(line, lineno)
                except MalformedLine:
                    if args.mode == "strict":
                        raise
                    pair = _recover_two_key(line, lineno)
            except MalformedLine as exc:
                print(f"line {lineno}: {exc.reason}")
                invalid += 1
                continue
            checked += 1
            problems = [str(i) for i in validate_pair(pair, registry)]
            if pair.id in seen_ids:
                problems.append(f"duplicate id {pair.id!r}")
            seen_ids.add(pair.id)
            if problems:
                invalid += 1
                for problem in problems:
                    print(f"line {lineno}: {problem}")
    print(f"checked {checked} pairs, {invalid} invalid")
    return 1 if invalid else 0


def _parse_attach(spec: str) -> Attachment:
    path, sep, tail = spec.rpartition(":")
    if sep and tail in [m.value for m in Modality]:
        return Attachment(path, Modality(tail))
    modality = modality_for_path(spec)
    if modality is None:
        raise InvalidArgument(
            f"cannot infer a modality for {spec!r}; use PATH:MODALITY"
        )
    return Attachment(spec, modality)


def cmd_run(args) -> int:
    app = load_app_config(args.config)
    seed = app.seed if args.seed is None else args.seed
    registry = build_registry(app)
    backend = build_language_backend(app)
    request = UserRequest(args.instruction, tuple(_parse_attach(s) for s in args.attach))
    workspace = Path(args.workspace) if args.workspace else app.workspace
    response, _ = run(
        request,
        registry,
        backend,
        workspace,
        cfg=app.pipeline,
        seed=seed,
        workers=args.workers,
    )
    print(manifest_json(response), end="")
    if response.diagnostics:
        print("degraded: invocation validation failed", file=sys.stderr)
        return 1
    return 0


def cmd_gradcheck(args) -> int:
    if args.trials < 1:
        raise InvalidArgument(f"--trials must be >= 1, got {args.trials}")
    tamper = 1e-3 if args.perturb_gradients else 0.0
    worst = 0.0
    for trial in range(args.trials):
        cfg, model, batch = random_check_instance(args.seed + trial)
        report = gradient_check(model, batch, epsilon=args.epsilon, tamper=tamper)
        trial_worst = max(report.values())
        worst = max(worst, trial_worst)
        dims = "x".join(str(cfg.d_enc[m]) for m in sorted(cfg.d_enc, key=lambda m: m.value))
        print(
            f"trial {trial}: d_enc={dims} d_llm={cfg.d_llm} k={cfg.token_count} "
            f"r={cfg.rank} max_rel={trial_worst:.3e}"
        )
    print(f"worst {worst:.3e} threshold {args.threshold:.0e}")
    return 0 if worst < args.threshold else 1


def cmd_params(args) -> int:
    app = load_app_config(args.config)
    cfg = app.train
    total = param_count(cfg)
    for m in sorted(cfg.d_enc, key=lambda m: m.value):
        block = cfg.token_count * cfg.d_llm * cfg.d_enc[m]
        if cfg.bias:
            block += cfg.token_count * cfg.d_llm
        print(f"proj.{m.value} {block}")
    print(f"lora {2 * cfg.rank * cfg.d_llm}")
    print(f"total {total} ({total:,})")
    return 0
