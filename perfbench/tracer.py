"""Out-of-process tracer for the meansense CLI.

``tracer.py run`` stands in for ``python -m meansense.cli``: it imports the
package, wraps every public function of each ``meansense`` module (each
binding of it in every module namespace) and every public method of each
class, runs ``meansense.cli.main`` on the remaining arguments, and writes the
recorded spans and work counts to ``--spans`` when the CLI returns.
``tracer.py stats`` reads span files and prints per-name call counts, self
and total times, and the summed work counts, as one JSON object.

    python3 perfbench/tracer.py run --spans spans.json --run-id r0 -- \\
        check lemma-3.1 --construction S3 --depth 4 --out out/
    python3 perfbench/tracer.py stats spans.json

Spans are kept in memory while the program runs.  Each span row is
``[name, start, end, parent, run]``: ``parent`` is the row index of the span
that was open when this one began (-1 for none) and ``run`` is the run id.
The wrapped program is single-threaded (``MEANSENSE_THREADS=1``), so the
open spans always form one stack.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("words", "constructions", "language", "diagnostics", "hyperspace",
           "checks", "reports", "cli")

# Per-run primitives called hundreds of thousands of times from inside the
# traced layers: a span around each would cost more than the work it times,
# so their time stays in the caller's self time.
SKIP = {
    "words.RunBuilder.append", "words.RunBuilder.extend",
    "words.RunBuilder.extend_runs", "words.RunBuilder.build",
}

# Work counts taken from a call's arguments and result, keyed by span name.
COUNTS = {
    "words.diff_intervals": ("intervals", lambda args, res: len(res[0])),
    "constructions.S3Construction.witness_family":
        ("members", lambda args, res: len(res)),
    "language.cylinder_members": ("members", lambda args, res: len(res)),
    "diagnostics.diam_sequence": ("members", lambda args, res: len(args[0])),
    "hyperspace.hausdorff_distance":
        ("pairs", lambda args, res: len(args[0]) * len(args[1])),
}


class Recorder:
    """In-memory span list plus per-name work counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = defaultdict(int)
        self.traced = []
        self._stack = [-1]

    def wrap(self, name: str, fn):
        spans, stack, run_id = self.spans, self._stack, self.run_id
        clock = time.perf_counter
        counter = COUNTS.get(name)
        counts = self.counts
        key = f"{name}.{counter[0]}" if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            row = [name, 0.0, 0.0, stack[-1], run_id]
            stack.append(len(spans))
            spans.append(row)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if counter:
                counts[key] += counter[1](args, result)
            return result

        return traced

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps({
            "run_id": self.run_id,
            "fields": ["name", "start", "end", "parent", "run"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "traced": self.traced,
        }, separators=(",", ":")))


def _targets(modules):
    """(span name, owner, attribute, function) for every traced callable.

    ``owner`` is the module or class whose attribute is replaced.  Check
    functions are named after their registry key.
    """
    registry = {fn: key for key, fn in modules["checks"].REGISTRY.items()}
    out = []
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out.append((f"checks.{registry[obj]}" if obj in registry
                            else f"{short}.{attr}", mod, attr, obj))
        for cls in vars(mod).values():
            if not (inspect.isclass(cls) and cls.__module__ == mod.__name__):
                continue
            for attr, raw in vars(cls).items():
                if attr.startswith("_"):
                    continue
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                if inspect.isfunction(fn):
                    out.append((f"{short}.{cls.__name__}.{attr}", cls, attr, raw))
    return [t for t in out if t[0] not in SKIP]


def install(recorder: Recorder) -> None:
    """Wrap every traced callable in place, noting its span name."""
    import meansense

    modules = {m: importlib.import_module(f"meansense.{m}") for m in MODULES}
    namespaces = [vars(meansense)] + [vars(m) for m in modules.values()]
    for name, owner, attr, raw in _targets(modules):
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(recorder.wrap(name, raw.__func__)))
        elif inspect.isclass(owner):
            setattr(owner, attr, recorder.wrap(name, raw))
        else:
            wrapped = recorder.wrap(name, raw)
            # every module that did ``from .x import f`` holds its own binding
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is raw:
                        ns[key] = wrapped
            registry = modules["checks"].REGISTRY
            for key, value in registry.items():
                if value is raw:
                    registry[key] = wrapped
        recorder.traced.append(name)


def span_stats(spans) -> dict:
    """{name: [calls, self_s, total_s]} from rows [name, start, end, parent, run].

    Rows are in start order and the traced program is single-threaded, so the
    children of a span never overlap and the time they cover is the sum of
    their durations.  ``total_s`` counts only the outermost span of a name,
    so a recursive call is not counted twice.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats = defaultdict(lambda: [0, 0.0, 0.0])
    path, active = [], defaultdict(int)
    for i, (name, start, end, parent, _) in enumerate(spans):
        while path and path[-1] != parent:
            active[spans[path.pop()][0]] -= 1
        row = stats[name]
        row[0] += 1
        row[1] += (end - start) - covered[i]
        if not active[name]:
            row[2] += end - start
        path.append(i)
        active[name] += 1
    return dict(stats)


def summarize(paths) -> dict:
    """Span statistics and work counts summed over several span files."""
    stats, counts, traced = defaultdict(lambda: [0, 0.0, 0.0]), defaultdict(int), set()
    for path in paths:
        data = json.loads(Path(path).read_text())
        for name, row in span_stats(data["spans"]).items():
            stats[name] = [a + b for a, b in zip(stats[name], row)]
        for key, value in data["counts"].items():
            counts[key] += value
        traced.update(data["traced"])
    return {"stats": stats, "counts": counts, "traced": sorted(traced)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the CLI with every layer traced")
    run.add_argument("--spans", required=True, help="where to write the spans")
    run.add_argument("--run-id", default="run")
    run.add_argument("cli_args", nargs=argparse.REMAINDER)
    stats = sub.add_parser("stats", help="summarize span files as JSON")
    stats.add_argument("paths", nargs="+")
    args = ap.parse_args(argv)
    if args.command == "stats":
        print(json.dumps(summarize(args.paths)))
        return 0
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    recorder = Recorder(args.run_id)
    install(recorder)
    from meansense import cli

    try:
        return cli.main(cli_args)
    finally:
        recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
