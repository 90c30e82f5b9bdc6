#!/usr/bin/env python3
"""Benchmark of the meansense CLI: build, then check, one process at a time.

    python3 perfbench/run.py --workload s3-families --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Run from a source checkout: the CLI is ``python -m meansense.cli`` with
``PYTHONPATH=src`` and ``MEANSENSE_THREADS=1``.  Each repetition builds the
workload's construction into a fresh directory (timed as ``setup_s``), then
runs the workload's checks in one process (``check_s``, ``cpu_s`` and
``peak_rss_mb`` from ``os.wait4``).  Both processes of a repetition are
pinned to one CPU, alternating between repetitions, and their times are
given in reference seconds: scaled by the speed a probe measured on that CPU
while they ran (see ``PROBE_REF_S``); the raw wall times are printed too.
Repetitions run until ``--seconds`` is used up; every metric is the median
over them.

Every repetition is checked: both processes exit 0, every check reports
PASS on the config and schedule that were built, and every output file is
byte-identical to the first repetition's.  A check that misses any of these
counts as failed.

``--trace 1`` alternates untraced and traced repetitions.  A traced one runs
both processes under ``perfbench/tracer.py`` and reports the per-layer
metrics listed in ``BENCHMARK.json``, the full per-function table, and the
tracing overhead (traced minus untraced median ``check_s``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, median_low, quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEPTH = 4

# Together the workloads run each of the twelve registered checks once.
WORKLOADS = {
    "s3-windows": ("S3", ("lemma-3.1", "lemma-3.2-density",
                          "thm-1.3-banach-equi")),
    "s3-families": ("S3", ("thm-1.3-cofinite", "thm-1.8-witness")),
    "desk-mix": ("S4", ("lemma-count-3", "prop-p-system", "prop-devaney",
                        "thm-unpos", "remark-2.1.3", "hausdorff-axioms",
                        "independence")),
}

# The end-to-end metric, and the workload, that each per-layer metric should
# move; written down before any optimisation is measured against it.
MOVES = {
    "words.self_s": "check_s@all",
    "constructions.self_s": "setup_s,check_s@all",
    "diagnostics.self_s": "check_s@all",
    "checks.self_s": "check_s@all",
    "reports.self_s": "check_s,setup_s@all",
    "cli.self_s": "check_s,setup_s@all",
    "cli.cmd_check.total_s": "check_s@all",
    "cli.cmd_build.total_s": "setup_s@all",
    "words.diff_intervals.calls": "check_s@s3-families",
    "words.diff_intervals.intervals": "check_s@s3-families",
    "words.diff_intervals.self_s": "check_s@s3-families",
    "words.OccurrenceIndex.count_range.calls": "check_s@s3-windows",
    "words.OccurrenceIndex.count_range.self_s": "check_s@s3-windows",
    "words.max_window_count.calls": "check_s@s3-windows",
    "words.max_window_count.self_s": "check_s@s3-windows",
    "words.Word.subword.calls": "check_s@s3-windows",
    "words.Word.subword.self_s": "check_s@s3-windows",
    "words.first_difference.calls": "check_s@desk-mix",
    "words.first_difference.self_s": "check_s@desk-mix",
    "words.Word.from_symbols.calls": "check_s@desk-mix",
    "words.Word.from_symbols.self_s": "check_s@desk-mix",
    "words.find_occurrences.calls": "check_s@s3-windows,desk-mix",
    "words.find_occurrences.self_s": "check_s@s3-windows,desk-mix",
    "constructions.S3Construction.witness_family.calls":
        "check_s,peak_rss_mb@s3-families",
    "constructions.S3Construction.witness_family.members":
        "check_s,peak_rss_mb@s3-families",
    "constructions.S3Construction.witness_family.self_s":
        "check_s,peak_rss_mb@s3-families",
    "constructions._ConstructionBase.a_word.self_s": "setup_s,check_s@all",
    "constructions._ConstructionBase.b_word.self_s": "setup_s,check_s@all",
    "constructions._ConstructionBase.transitive_prefix.self_s":
        "setup_s,check_s@all",
    "language.cylinder_members.calls": "check_s@s3-windows",
    "language.cylinder_members.members": "check_s@s3-windows",
    "language.cylinder_members.self_s": "check_s@s3-windows",
    "language.subwords.calls": "check_s@desk-mix",
    "language.subwords.self_s": "check_s@desk-mix",
    "language.check_transitive_desk.calls": "check_s@desk-mix",
    "language.check_transitive_desk.self_s": "check_s@desk-mix",
    "diagnostics.diam_sequence.calls": "check_s@s3-families",
    "diagnostics.diam_sequence.members": "check_s@s3-families",
    "diagnostics.diam_sequence.self_s": "check_s@s3-families",
    "diagnostics.banach_window_max.calls": "check_s@s3-windows",
    "diagnostics.banach_window_max.self_s": "check_s@s3-windows",
    "diagnostics.step_distance_array.calls": "check_s@s3-windows",
    "diagnostics.step_distance_array.self_s": "check_s@s3-windows",
    "diagnostics.banach_avg_distance.calls": "check_s@s3-windows",
    "diagnostics.banach_avg_distance.self_s": "check_s@s3-windows",
    "diagnostics.mean_to_density_check.calls": "check_s@desk-mix",
    "diagnostics.mean_to_density_check.self_s": "check_s@desk-mix",
    "diagnostics.distance_sum.calls": "check_s@desk-mix",
    "diagnostics.distance_sum.self_s": "check_s@desk-mix",
    "hyperspace.hausdorff_distance.calls": "check_s@desk-mix,s3-families",
    "hyperspace.hausdorff_distance.pairs": "check_s@desk-mix,s3-families",
    "hyperspace.hausdorff_distance.self_s": "check_s@desk-mix,s3-families",
    "hyperspace.hyper_witness_family.calls": "check_s@s3-families",
    "hyperspace.hyper_witness_family.self_s": "check_s@s3-families",
    "hyperspace.hyper_mean_avg.calls": "check_s@s3-families",
    "hyperspace.hyper_mean_avg.self_s": "check_s@s3-families",
    "hyperspace.independence_check.calls": "check_s@desk-mix",
    "hyperspace.independence_check.self_s": "check_s@desk-mix",
    "reports.canonical_json.calls": "check_s,setup_s@all",
    "reports.canonical_json.self_s": "check_s,setup_s@all",
    "reports.series_csv.calls": "check_s@s3-windows,s3-families",
    "reports.series_csv.self_s": "check_s@s3-windows,s3-families",
    "reports.report_bytes": "check_s@all",
    "reports.csv_bytes": "check_s@s3-windows,s3-families",
    "cli.rle_bytes": "setup_s@all",
    "trace.spans": "none: cost of tracing",
    "trace.check_overhead_s": "none: cost of tracing",
    "trace.setup_overhead_s": "none: cost of tracing",
}
MOVES.update({f"checks.{name}.total_s": f"check_s@{wl}"
              for wl, (_, names) in WORKLOADS.items() for name in names})

FILE_BYTES = {"reports.report_bytes": "report-*.json",
              "reports.csv_bytes": "series-*.csv", "cli.rle_bytes": "*.rle"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# On a shared virtual machine each vCPU slows down and speeds up by up to
# 1.7x within seconds as other tenants load the cores under it, which swamps
# any change in the program.  So each process is pinned to one CPU while a
# probe thread on the same CPU times a fixed loop every PROBE_PERIOD_S; a time
# is reported in reference seconds, scaled by PROBE_REF_S / (median probe
# time).  The probe takes about 1 % of that CPU.
PROBE_PERIOD_S = 0.05
PROBE_REF_S = 3.6e-4  # probe time at the reference speed (2.0 GHz Xeon vCPU)
CPUS = sorted(os.sched_getaffinity(0))


def probe() -> float:
    """Seconds a fixed integer loop takes: the inverse of the CPU's speed now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(3000):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - t0


@dataclass
class Proc:
    wall: float  # raw seconds, as the user waits for them
    cpu: float
    rss_mb: float
    code: int
    output: str
    scale: float  # PROBE_REF_S / median probe time while the process ran

    @property
    def wall_ref(self) -> float:
        return self.wall * self.scale

    @property
    def cpu_ref(self) -> float:
        return self.cpu * self.scale


@dataclass
class Rep:
    out: Path
    build: Proc
    check: Proc
    digests: dict
    failed: set
    spans: list = field(default_factory=list)
    layers: tuple = ()


def run_proc(argv, log: Path, cpu: int) -> Proc:
    """Run one CLI process pinned to ``cpu`` while probing that CPU's speed."""
    env = dict(os.environ, PYTHONPATH=str(SRC), MEANSENSE_THREADS="1")
    probes, done = [], threading.Event()

    def probe_loop():
        probes.append(probe())
        while not done.wait(PROBE_PERIOD_S):
            probes.append(probe())

    # the child and the probe thread inherit the pinning
    os.sched_setaffinity(0, {cpu})
    prober = threading.Thread(target=probe_loop)
    try:
        with open(log, "w+") as fh:
            prober.start()
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    env=env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            fh.seek(0)
            output = fh.read()
    finally:
        done.set()
        if prober.is_alive():
            prober.join()
        os.sched_setaffinity(0, CPUS)
    # ru_maxrss is in KiB on Linux
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                proc.returncode, output, PROBE_REF_S / median(probes))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def owner(fname: str, names) -> str:
    """The check that wrote ``fname``, or '' for a build output."""
    for name in names:
        if fname == f"report-{name}.json" or fname.startswith(f"series-{name}-"):
            return name
    return ""


def one_rep(workload: str, seed: int, work: Path, i: int, traced: bool,
            cpu: int) -> Rep:
    """Build, then check, into ``work/rep<i>`` on ``cpu``; verify the outputs."""
    construction, names = WORKLOADS[workload]
    out = work / f"rep{i}"
    cfg = ["--construction", construction, "--depth", str(DEPTH),
           "--seed", str(seed), "--out", str(out)]
    run_id = f"{workload}-seed{seed}-rep{i}"
    procs, spans = {}, []
    for step, args in (("build", ["build", *cfg]),
                       ("check", ["check", *names, *cfg])):
        if traced:
            spans.append(work / f"spans-{run_id}-{step}.json")
            argv = [sys.executable, str(BENCH / "tracer.py"), "run", "--spans",
                    str(spans[-1]), "--run-id", run_id, "--", *args]
        else:
            argv = [sys.executable, "-m", "meansense.cli", *args]
        procs[step] = run_proc(argv, work / f"rep{i}-{step}.log", cpu)
    failed = set()
    if procs["build"].code != 0:
        failed.update(names)
    manifest = {}
    if (out / "build.json").is_file():
        manifest = json.loads((out / "build.json").read_text())
    for name in names:
        path = out / f"report-{name}.json"
        if not path.is_file():
            failed.add(name)
            continue
        report = json.loads(path.read_text())
        params = report.get("params", {})
        if (report.get("check") != name or report.get("verdict") != "PASS"
                or params.get("config_hash") != manifest.get("config_hash")
                or params.get("schedule_hash") != manifest.get("schedule_hash")):
            failed.add(name)
    if procs["check"].code != 0 and not failed:
        failed.update(names)
    digests = {p.name: sha256(p) for p in sorted(out.iterdir()) if p.is_file()}
    return Rep(out, procs["build"], procs["check"], digests, failed, spans)


def compare_digests(ref: dict, rep: Rep, names) -> None:
    """Mark as failed every check whose output bytes differ from ``ref``."""
    for fname in set(ref) | set(rep.digests):
        if ref.get(fname) != rep.digests.get(fname):
            who = owner(fname, names)
            rep.failed.update([who] if who else names)


# ---------------------------------------------------------------------------
# spans -> per-layer statistics


def traced_layers(rep: Rep):
    """(stats, counts, traced names, sizes) of one traced repetition.

    The span files are summarized in a separate process: this process's own
    memory would otherwise show up in the next child's ``ru_maxrss``, which
    counts the parent's pages the child held until ``exec``.
    """
    summary = json.loads(subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), "stats", *map(str, rep.spans)],
        check=True, capture_output=True, text=True).stdout)
    sizes = {metric: sum(p.stat().st_size for p in rep.out.glob(pattern))
             for metric, pattern in FILE_BYTES.items()}
    return summary["stats"], summary["counts"], set(summary["traced"]), sizes


def layer_value(metric: str, stats, counts, traced, sizes):
    if metric in sizes:
        return sizes[metric]
    if metric == "trace.spans":
        return sum(row[0] for row in stats.values())
    prefix, _, stat = metric.rpartition(".")
    if stat in ("calls", "self_s", "total_s"):
        col = ("calls", "self_s", "total_s").index(stat)
        if "." not in prefix:  # a whole module: <module>.<stat>
            return sum(row[col] for name, row in stats.items()
                       if name.startswith(prefix + "."))
        if prefix not in traced:
            raise BenchError(f"per-layer metric {metric}: {prefix} is not traced")
        return stats.get(prefix, [0, 0.0, 0.0])[col]
    if metric not in counts and prefix not in traced:
        raise BenchError(f"per-layer metric {metric} has no counter")
    return counts.get(metric, 0)


# ---------------------------------------------------------------------------


def spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = quantiles(values, n=4)
    return (f"n={len(values)} q1={q1:.4f} q3={q3:.4f} "
            f"min={min(values):.4f} max={max(values):.4f}")


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "meansense").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": subprocess.run(
            [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
            capture_output=True, text=True, timeout=60).stdout.strip(),
        "MEANSENSE_THREADS": "1",
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def input_sizes(out: Path) -> dict:
    """Sizes of the inputs the checks ran on, read from the CLI's outputs."""
    sizes = {}
    word = out / f"A_{DEPTH}.rle"
    if word.is_file():
        runs = [tok.split(":") for tok in word.read_text().partition(";")[2].split()]
        sizes[f"A_{DEPTH}_runs"] = len(runs)
        sizes[f"A_{DEPTH}_symbols"] = sum(int(c) for _, c in runs)
    for check, key, label in (("thm-1.3-cofinite", "family", "cofinite_family"),
                              ("prop-p-system", "steps", "p_system_steps")):
        path = out / f"report-{check}.json"
        if path.is_file():
            sizes[label] = json.loads(path.read_text())["params"][key]
    return sizes


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 per_layer, log) -> tuple:
    """Measure one workload; returns (metrics, attempted, failed)."""
    work = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    work.mkdir(parents=True)
    # warm-up: bytecode compilation and the file cache are not measured
    construction, names = WORKLOADS[workload]
    run_proc([sys.executable, "-m", "meansense.cli", "build", "--construction",
              construction, "--depth", str(DEPTH), "--out", str(work / "warm-up")],
             work / "warm-up.log", CPUS[0])

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for is_traced in ((False, True) if trace else (False,)):
            i = len(plain) + len(traced)
            kind = traced if is_traced else plain
            rep = one_rep(workload, seed, work, i, is_traced,
                          CPUS[len(kind) % len(CPUS)])
            kind.append(rep)
            if i:
                compare_digests(plain[0].digests, rep, names)
            if is_traced:
                rep.layers = traced_layers(rep)
                if len(traced) > 1:  # keep only the last traced spans
                    for path in traced[-2].spans:
                        path.unlink()
            if i:  # keep the first repetition's outputs as the reference
                shutil.rmtree(rep.out)
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            break

    reps = plain + traced
    log(f"workload {workload}: {' '.join(names)}")
    log("inputs " + json.dumps(input_sizes(plain[0].out)))
    for fname, digest in plain[0].digests.items():
        log(f"digest {fname} {digest}")
    attempted = len(reps) * len(names)
    failed = sum(len(r.failed) for r in reps)
    for i, r in enumerate(reps):
        for proc, step in ((r.build, "build"), (r.check, "check")):
            if proc.code != 0:
                log(f"rep{i} {step} exited {proc.code}:\n{proc.output.strip()}")
        if r.failed:
            log(f"rep{i} failed: {' '.join(sorted(r.failed))}")
    log(f"failed_checks {failed / attempted:.4f} share ({failed} of {attempted})")

    e2e = {
        "check_s": [r.check.wall_ref for r in plain],
        "cpu_s": [r.check.cpu_ref for r in plain],
        "setup_s": [r.build.wall_ref for r in plain],
        "peak_rss_mb": [r.check.rss_mb for r in plain],
    }
    units = {"check_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    for metric, values in e2e.items():
        log(f"{metric} {median(values):.4f} {units[metric]} "
            f"(median; {spread(values)})")
    scales = [r.check.scale for r in plain]
    log(f"raw wall: check {median([r.check.wall for r in plain]):.4f} s, "
        f"build {median([r.build.wall for r in plain]):.4f} s; "
        f"reference-speed scale {median(scales):.4f} ({spread(scales)})")
    parent_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    log(f"parent maxrss {parent_mb:.1f} MB (a floor under each child's ru_maxrss)")
    if not trace:
        return ({m: median(v) for m, v in e2e.items()}, attempted, failed)

    per_rep = [r.layers for r in traced]
    # per-layer values: medians over the traced repetitions
    layer = {}
    for metric in per_layer:
        if metric.endswith("overhead_s"):
            continue
        values = [layer_value(metric, *p) for p in per_rep]
        if metric.endswith(("self_s", "total_s")):
            layer[metric] = median(values)
            continue
        if len(set(values)) > 1:
            log(f"warning: count {metric} differs between traced "
                f"repetitions: {values}")
        layer[metric] = median_low(values)
    traced_check = median([r.check.wall_ref for r in traced])
    layer["trace.check_overhead_s"] = traced_check - median(e2e["check_s"])
    layer["trace.setup_overhead_s"] = (median([r.build.wall_ref for r in traced])
                                       - median(e2e["setup_s"]))
    log(f"traced check_s {traced_check:.4f} s over {len(traced)} repetitions, "
        f"untraced {median(e2e['check_s']):.4f} s over {len(plain)}: "
        f"overhead {layer['trace.check_overhead_s']:.4f} s")

    stats, counts = per_rep[-1][0], per_rep[-1][1]
    log("per-function table (last traced repetition), self_s descending:")
    log(f"{'name':58s} {'calls':>8s} {'self_s':>9s} {'total_s':>9s}  moves")
    for name, (calls, self_s, total_s) in sorted(stats.items(),
                                                 key=lambda kv: -kv[1][1]):
        moves = MOVES.get(f"{name}.self_s") or MOVES.get(f"{name}.total_s", "")
        log(f"{name:58s} {calls:8d} {self_s:9.4f} {total_s:9.4f}  {moves}")
    for key, value in sorted(counts.items()):
        log(f"count {key} {value}  {MOVES.get(key, '')}")
    log("per-layer metrics:")
    for metric in per_layer:
        log(f"{metric} {layer[metric]}  {MOVES.get(metric, '')}")
    return layer, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="meansense CLI benchmark")
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not (SRC / "meansense" / "cli.py").is_file():
            raise BenchError(f"no meansense sources under {SRC}")
        spec_path = ROOT / "BENCHMARK.json"
        if not spec_path.is_file():
            raise BenchError(f"{spec_path} not found")
        spec = json.loads(spec_path.read_text())
        kind = "per_layer" if args.trace else "end_to_end"
        wanted = {m["name"]: m["unit"] for m in spec[kind]}
        print("environment " + json.dumps(environment(args.seed)), flush=True)
        shutil.rmtree(OUT, ignore_errors=True)  # scratch of the previous run
        workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
        metrics, attempted, failed = {}, 0, 0
        for wl in workloads:
            values, a, f = run_workload(
                wl, args.seed, args.seconds, bool(args.trace), list(wanted),
                lambda line: print(line, flush=True))
            attempted, failed = attempted + a, failed + f
            prefix = f"{wl}." if len(workloads) > 1 else ""
            metrics.update({prefix + m: {"value": values[m], "unit": u}
                            for m, u in wanted.items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
