"""Reproducible command-line front end.

Subcommands:

* ``build``  — emit the schedule and the level words as RLE text files;
* ``check``  — run one named check, writing a JSON report (and CSV series);
* ``report`` — consolidate every report in the output directory.

Exit codes: 0 pass, 1 check failure, 2 usage/config error (an output
directory that cannot be made or written included), 3 resource or horizon
limits.  Identical configurations (seed included) produce
byte-identical outputs; reports embed the config and schedule hashes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import List, Optional

from .constructions import (
    GeneratorDescriptor,
    Schedule,
    build_schedule_s3,
    build_schedule_s4,
    construction_for,
)
from .errors import (
    LengthOverflowError,
    MeansenseError,
    MissingArtifactError,
    ParameterError,
    ResourceCapError,
)
from .reports import Report, canonical_json

# CPython's built-in SHA-256: ``hashlib`` would load OpenSSL's libcrypto
# (about 4 MB resident) into every process for two short fingerprints
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:  # no built-in hashes, e.g. PyPy
        from hashlib import sha256

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


class RunConfig:
    """One run's settings: the defaults, then a config file's keys, then
    the command line's flags.  ``FIELDS`` are the keys a config file may
    set."""

    FIELDS = ("construction", "depth", "base", "seed", "output_dir")

    def __init__(self):
        self.construction = "S3"
        self.depth = 4
        self.base: Optional[dict] = None
        self.seed = 0
        self.output_dir = "out"

    @property
    def hash(self) -> str:
        # location must not change identity
        payload = {key: getattr(self, key) for key in self.FIELDS
                   if key != "output_dir"}
        return sha256(canonical_json(payload).encode()).hexdigest()[:16]

    def generator(self) -> GeneratorDescriptor:
        if self.base is None:
            return GeneratorDescriptor("constant-zero")
        return GeneratorDescriptor.from_json(self.base)

    def schedule(self) -> Schedule:
        if self.construction == "S3":
            return build_schedule_s3(self.depth)
        if self.construction == "S4":
            return build_schedule_s4(self.depth, self.generator())
        raise ParameterError(f"no schedule for construction {self.construction!r}")

    def validate(self):
        for key, kinds in (("depth", int), ("seed", int),
                           ("base", (dict, type(None))), ("output_dir", str)):
            value = getattr(self, key)
            # bool is an int subclass, but true is not a depth or a seed
            if not isinstance(value, kinds) or isinstance(value, bool):
                raise ParameterError(
                    f"config {key} has type {type(value).__name__}")
        if self.base is not None:
            self.generator()
        if self.construction not in ("S3", "S4"):
            raise ParameterError(
                f"construction must be S3 or S4, got {self.construction!r}"
            )
        if self.depth < 1:
            raise ParameterError("depth must be >= 1")


def schedule_hash(sched: Schedule) -> str:
    return sha256(sched.to_json_str().encode()).hexdigest()[:16]


def _load_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ParameterError(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(data, dict):
            raise ParameterError(f"config {args.config} is not a JSON object")
        for key, value in data.items():
            if key not in RunConfig.FIELDS:
                raise ParameterError(f"unknown config key {key!r}")
            setattr(cfg, key, value)
    for key in ("construction", "depth", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    if getattr(args, "out", None):
        cfg.output_dir = args.out
    cfg.validate()
    return cfg


def _write(path: str, text: str) -> None:
    """Write one output file; an unusable output directory is bad input."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from None


def cmd_build(cfg: RunConfig) -> int:
    out = cfg.output_dir
    try:
        os.makedirs(out or os.curdir, exist_ok=True)  # '' is the cwd
    except OSError as exc:
        raise ParameterError(f"cannot make output directory {out}: {exc}") from None
    sched = cfg.schedule()
    _write(os.path.join(out, "schedule.json"), sched.to_json_str())
    construction = construction_for(sched)
    manifest = {"config_hash": cfg.hash, "schedule_hash": schedule_hash(sched),
                "emitted": [], "omitted": []}
    for n in range(1, cfg.depth + 1):
        a = construction.a_word(n)
        _write(os.path.join(out, f"A_{n}.rle"), a.to_text() + "\n")
        manifest["emitted"].append(f"A_{n}")
        try:
            b = construction.b_word(n)
        except ResourceCapError as exc:
            manifest["omitted"].append(
                {"word": f"B_{n}", "reason": f"about {exc.required} runs"}
            )
            continue
        _write(os.path.join(out, f"B_{n}.rle"), b.to_text() + "\n")
        manifest["emitted"].append(f"B_{n}")
    _write(os.path.join(out, "build.json"), canonical_json(manifest))
    print(f"built {cfg.construction} depth {cfg.depth} -> {out}")
    return EXIT_PASS


def _require_build(cfg: RunConfig) -> Schedule:
    path = os.path.join(cfg.output_dir, "schedule.json")
    if not os.path.exists(path):
        raise MissingArtifactError(
            f"{path} not found: run `meansense build` into this output "
            f"directory first"
        )
    try:
        with open(path) as fh:
            data = json.load(fh)
    except ValueError as exc:
        raise ParameterError(f"{path} is not JSON: {exc}") from None
    sched = Schedule.from_json(data)
    want, have = schedule_hash(cfg.schedule()), schedule_hash(sched)
    if want != have:
        raise ParameterError(
            f"config {cfg.construction} depth {cfg.depth} has schedule {want}, "
            f"but the build in {cfg.output_dir} has schedule {have} "
            f"({sched.construction} depth {sched.depth}): rebuild, or check "
            f"with the build's config"
        )
    return sched


def cmd_check(cfg: RunConfig, names: List[str]) -> int:
    """Run ``names`` (or every check that fits the build, for ``all``) on one
    construction built from the build's schedule; nothing is written unless
    every check runs."""
    from . import checks as _checks  # here, so that ``build`` never loads it

    out = cfg.output_dir
    sched = _require_build(cfg)
    family = sched.construction
    if names == ["all"]:
        names = [name for name in sorted(_checks.REGISTRY)
                 if _checks.NEEDS.get(name, family) == family]
    for name in names:
        if name not in _checks.REGISTRY:
            raise ParameterError(
                f"unknown check {name!r}; known: "
                f"{', '.join(sorted(_checks.REGISTRY))}"
            )
        if _checks.NEEDS.get(name, family) != family:
            raise ParameterError(
                f"check {name!r} needs an {_checks.NEEDS[name]} build, but "
                f"the build in {cfg.output_dir} is {family}"
            )
    construction = construction_for(sched)
    results = {name: _checks.REGISTRY[name](construction, cfg.seed)
               for name in names}
    failed = []
    for name, rep in results.items():
        rep.params["config_hash"] = cfg.hash
        rep.params["schedule_hash"] = schedule_hash(sched)
        for wit in rep.witnesses:
            series = wit.get("csv_series")
            if series:
                fname = f"series-{name}-{series['name']}.csv"
                _write(os.path.join(out, fname), series["body"])
                wit["csv_series"] = {"name": series["name"], "file": fname}
        _write(os.path.join(out, f"report-{name}.json"), rep.to_json_str())
        print(f"{rep.verdict:12s} {name}")
        if not rep.passed:
            failed.append(name)
    return EXIT_CHECK_FAILED if failed else EXIT_PASS


def cmd_report(output_dir: str) -> int:
    try:
        names = os.listdir(output_dir or os.curdir)
    except OSError:  # no such directory: no reports
        names = []
    reports = sorted(os.path.join(output_dir, name) for name in names
                     if name.startswith("report-") and name.endswith(".json"))
    if not reports:
        print(f"no reports under {output_dir}", file=sys.stderr)
        return EXIT_USAGE
    rows = []
    failed = []
    for path in reports:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ParameterError(f"cannot read report {path}: {exc}") from None
        if not isinstance(data, dict) or not isinstance(data.get("check"), str):
            raise ParameterError(f"{path} is not a report: no check name")
        rep = Report.from_json(data)
        rows.append({"check": rep.check, "verdict": rep.verdict,
                     "caveats": rep.caveats})
        if not rep.passed:
            failed.append(rep.check)
    summary = {"reports": rows, "failed": failed,
               "all_pass": not failed}
    _write(os.path.join(output_dir, "summary.json"), canonical_json(summary))
    width = max(len(r["check"]) for r in rows)
    for r in rows:
        print(f"{r['check']:<{width}}  {r['verdict']}")
    print(f"{'TOTAL':<{width}}  {'PASS' if not failed else 'FAIL'}")
    return EXIT_PASS if not failed else EXIT_CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meansense",
        description="exact subshift constructions and their orbit statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--construction", choices=["S3", "S4"])
        p.add_argument("--depth", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory")

    b = sub.add_parser("build", help="emit schedule and level words")
    common(b)
    c = sub.add_parser("check", help="run named checks")
    common(c)
    c.add_argument("names", nargs="+", help="check names (or 'all')")
    r = sub.add_parser("report", help="consolidate reports")
    r.add_argument("--out", default="out")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS
    try:
        if args.command == "build":
            return cmd_build(_load_config(args))
        if args.command == "check":
            return cmd_check(_load_config(args), list(args.names))
        if args.command == "report":
            return cmd_report(args.out)
        return EXIT_USAGE
    except (ResourceCapError, LengthOverflowError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MissingArtifactError as exc:
        print(f"dependency error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MeansenseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    """Process entry point, of the console script and of ``python -m
    meansense.cli``: exit with the code of ``main`` on ``sys.argv``.

    Before it exits it freezes the heap (``gc.freeze``), so that the
    collections CPython runs at exit skip every object alive then; they
    are most of a short process's teardown.  Every output file is
    closed by then, standard output and error are still flushed and
    ``atexit`` handlers still run.  ``main`` is the in-process API and
    never freezes: tests and tools call it many times in one process.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
