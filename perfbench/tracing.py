"""In-memory spans around calls into modalkit's layers.

The traced run swaps each layer function named in layer_targets() for a
wrapper that records a span: name, parent span, operation id, start,
end, error and a few counted attributes.  The swap happens in the
namespace the caller looks the name up in (pipeline imports encode_stub
by name, so pipeline.encode_stub is the one to wrap), and only while a
traced operation runs; untraced operations call the original functions.
Nothing inside src/ changes.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path

from modalkit import chat, cli, config, instruct, meta, pipeline, projection, rng

from common import percentile

MIB = float(1 << 20)


class Tracer:
    def __init__(self) -> None:
        # one list per span: [name, parent index, op id, start, end, error, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self._swap: Swap | None = None

    def traced(self, name: str, fn, *args):
        """Run fn(*args) as one traced operation: every layer swapped for
        its span wrapper, and fn itself the operation's root span."""
        if self._swap is None:
            self._swap = Swap(self)
        self.op += 1
        with self._swap:
            return self.wrap(name, fn)(*args)

    def wrap(self, name: str, fn, measure=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.op, 0.0, 0.0, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            if measure is not None:
                rec[6] = measure(args, out)
            return out

        return traced

    def write(self, path: Path) -> None:
        base = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, op, t0, t1, error, attrs in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "parent": parent,
                            "op": op,
                            "start_us": round((t0 - base) * 1e6, 1),
                            "dur_us": round((t1 - t0) * 1e6, 1),
                            "error": error,
                            "attrs": attrs,
                        }
                    )
                    + "\n"
                )


def _recoveries(args, out):
    _, diags = out
    return {"recoveries": sum(1 for _, m in diags.warnings if m.startswith("recovered"))}


def _rejects(args, out):
    _, report = out
    counts = Counter()
    for r in report.rejected:
        if r.reason.startswith("duplicate id"):
            counts["duplicate"] += 1
        elif "@" in r.reason:  # ValidationIssue renders as Code@index: message
            counts["invalid"] += 1
        else:
            counts["malformed"] += 1
    return dict(counts)


def layer_targets() -> list[tuple[object, str, str, object]]:
    """(namespace, attribute, span name, measure) for every wrapped call."""
    return [
        (projection, "fnv1a64", "rng.fnv1a64", lambda a, out: {"bytes": len(a[0])}),
        (rng.SplitMix64, "bytes", "rng.splitmix_bytes", lambda a, out: {"bytes": a[1]}),
        (pipeline, "encode_stub", "projection.encode_stub", None),
        (pipeline, "init_model", "projection.init_model", None),
        (projection, "init_model", "projection.init_model", None),
        (pipeline, "project", "projection.project", None),
        (projection, "backward", "projection.backward", None),
        (cli, "gradient_check", "projection.gradient_check", None),
        (pipeline, "parse_meta_response", "meta.parse_lenient", _recoveries),
        (meta, "_parse_strict", "meta.parse_strict", None),
        (pipeline, "validate_invocations", "meta.validate_invocations", None),
        (pipeline, "route", "zoo.route", None),
        (
            pipeline,
            "execute_plan",
            "zoo.execute_plan",
            lambda a, out: {"failures": len(out.failures)},
        ),
        (cli, "template_generate", "instruct.template_generate", lambda a, out: {"pairs": len(out)}),
        (cli, "write_dataset", "instruct.write_dataset", lambda a, out: {"pairs": len(a[0])}),
        (cli, "pair_from_json", "instruct.pair_from_json", None),
        (cli, "_recover_two_key", "instruct.recover_two_key", None),
        (cli, "validate_pair", "instruct.validate_pair", None),
        (instruct, "validate_pair", "instruct.validate_pair", None),
        (cli, "generate_pairs_llm", "instruct.generate_pairs_llm", _rejects),
        (chat, "complete", "chat.complete", None),
        (cli, "load_app_config", "config.load_app_config", None),
        (config, "load_app_config", "config.load_app_config", None),
        (cli, "build_registry", "config.build_registry", None),
        (config, "build_registry", "config.build_registry", None),
    ]


class Swap:
    """Context manager that installs the span wrappers and restores the originals."""

    def __init__(self, tracer: Tracer) -> None:
        self._swaps = []
        for owner, attr, name, measure in layer_targets():
            original = getattr(owner, attr)
            self._swaps.append((owner, attr, original, tracer.wrap(name, original, measure)))

    def __enter__(self) -> "Swap":
        for owner, attr, _, wrapped in self._swaps:
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)


def traced_executor(tracer: Tracer, kind: str, executor):
    """Render spans come from wrapping the executors of a benchmark-owned registry."""
    modality = kind.split("-")[-1]
    return tracer.wrap(f"media.render_{modality}", executor, lambda a, out: {"bytes": len(out)})


def per_layer(tracer: Tracer, n_ops: int, untraced_s: list[float], traced_s: list[float]) -> dict:
    """Every per-layer metric, from the spans of n_ops traced operations.

    Times are means per call, per MiB or per 1000 pairs; counts are per
    traced operation.  A layer the workload never calls reads 0."""
    child = [0.0] * len(tracer.spans)
    for name, parent, _, t0, t1, _, _ in tracer.spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls, dur, self_s = Counter(), defaultdict(float), defaultdict(float)
    errors, attrs = defaultdict(Counter), defaultdict(Counter)
    for i, (name, _, _, t0, t1, error, extra) in enumerate(tracer.spans):
        calls[name] += 1
        dur[name] += t1 - t0
        self_s[name] += t1 - t0 - child[i]
        if error:
            errors[name][error] += 1
        if extra:
            attrs[name].update(extra)

    def mean(name, scale):
        return dur[name] / calls[name] * scale if calls[name] else 0.0

    def self_mean(name, scale):
        return self_s[name] / calls[name] * scale if calls[name] else 0.0

    def ms_per_mib(name):
        n = attrs[name]["bytes"]
        return dur[name] * 1000.0 / (n / MIB) if n else 0.0

    def ms_per_1k(names, units):
        return sum(dur[n] for n in names) * 1000.0 / (units / 1000.0) if units else 0.0

    ops = max(n_ops, 1)
    out = {
        "rng.fnv1a64_ms_per_mib": ms_per_mib("rng.fnv1a64"),
        "rng.splitmix_bytes_ms_per_mib": ms_per_mib("rng.splitmix_bytes"),
        "projection.encode_stub_ms": mean("projection.encode_stub", 1e3),
        "projection.encode_stub_self_ms": self_mean("projection.encode_stub", 1e3),
        "projection.init_model_ms": mean("projection.init_model", 1e3),
        "projection.project_us": mean("projection.project", 1e6),
        "projection.backward_ms": mean("projection.backward", 1e3),
        "projection.gradient_check_ms": mean("projection.gradient_check", 1e3),
        "pipeline.backend_us": mean("pipeline.backend", 1e6),
        "pipeline.unattributed_ms": self_mean("pipeline.run", 1e3),
        "trace.overhead_p50_ms": (
            (percentile(traced_s, 50) - percentile(untraced_s, 50)) * 1e3
            if traced_s and untraced_s
            else 0.0
        ),
        "meta.parse_strict_us": mean("meta.parse_strict", 1e6),
        "meta.parse_lenient_us": mean("meta.parse_lenient", 1e6),
        "meta.lenient_recoveries": attrs["meta.parse_lenient"]["recoveries"] / ops,
        "meta.validate_invocations_us": mean("meta.validate_invocations", 1e6),
        "zoo.route_us": mean("zoo.route", 1e6),
        "zoo.execute_plan_ms": mean("zoo.execute_plan", 1e3),
        "zoo.execute_plan_self_ms": self_mean("zoo.execute_plan", 1e3),
        "zoo.artifact_mib_written": sum(
            attrs[f"media.render_{m}"]["bytes"] for m in ("image", "audio", "video")
        )
        / MIB
        / ops,
        "zoo.backend_failures": attrs["zoo.execute_plan"]["failures"] / ops,
        "instruct.template_generate_ms_per_1k": ms_per_1k(
            ["instruct.template_generate"], attrs["instruct.template_generate"]["pairs"]
        ),
        "instruct.write_dataset_ms_per_1k": ms_per_1k(
            ["instruct.write_dataset"], attrs["instruct.write_dataset"]["pairs"]
        ),
        "instruct.read_dataset_ms_per_1k": ms_per_1k(
            ["instruct.pair_from_json", "instruct.recover_two_key"],
            calls["instruct.pair_from_json"],
        ),
        "instruct.validate_pair_us": mean("instruct.validate_pair", 1e6),
        "instruct.two_key_recoveries": (
            calls["instruct.recover_two_key"] - sum(errors["instruct.recover_two_key"].values())
        )
        / ops,
        "chat.complete_us": mean("chat.complete", 1e6),
        "chat.requests": calls["chat.complete"] / ops,
        "chat.fixture_misses": errors["chat.complete"]["FixtureMiss"] / ops,
        "config.load_app_config_ms": mean("config.load_app_config", 1e3),
        "config.build_registry_ms": mean("config.build_registry", 1e3),
    }
    for m in ("image", "audio", "video"):
        out[f"media.render_{m}_ms"] = mean(f"media.render_{m}", 1e3)
        out[f"media.renders_{m}"] = calls[f"media.render_{m}"] / ops
    for reason in ("malformed", "invalid", "duplicate"):
        out[f"instruct.rejects_{reason}"] = attrs["instruct.generate_pairs_llm"][reason] / ops
    return out
