import functools
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meansense import (GeneratorDescriptor, MeansenseError, ParameterError,
                       Schedule, Word, cli, language)
from meansense.cli import main
from meansense.constructions import MAX_CF_TERMS
from meansense.reports import canonical_json

# the fingerprints' SHA-256 comes from CPython's built-in module when there
# is one, so that no process loads OpenSSL through hashlib's _hashlib
BUILTIN_SHA256 = any(importlib.util.find_spec(name)
                     for name in ("_sha2", "_sha256"))


def run(*argv):
    return main(list(argv))


def output_digests(out):
    """sha256 of every report and series file in ``out``, by file name."""
    paths = sorted(out.glob("report-*.json")) + sorted(out.glob("series-*.csv"))
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


# report and series bytes of the default build (S3 depth 4, seed 0); they do
# not depend on the output directory
S3_DEPTH4_DIGESTS = {
    "report-hausdorff-axioms.json": "5b5619ef10d424a39d2155c42385ce7ac8118fa7e8173090a1e026a0fef4e166",
    "report-independence.json": "a6a8a94015458f01c0e85e635b6885313c2d2faafe1fbc96ef9ce9fe936fb330",
    "report-lemma-3.1.json": "cd024e2c1299cfed2cafba78942ddc8936652dd8d7e183e244d97bc3c098bd2a",
    "report-lemma-3.2-density.json": "e086412eb263934a007ec1d84a3779d08e596d74d3b5336de22abf39e36cfd87",
    "report-remark-2.1.3.json": "fa8cfcf4b102e5b4d7973dc7b5570db8a66755f5853cc2e10a2b4ecc623c1d2c",
    "report-thm-1.3-banach-equi.json": "d6561c53005f3ded0835289fa444ff6a836a8c530ec27b5ed0a4598a70881d2e",
    "report-thm-1.3-cofinite.json": "44c3ad609c63b12947ac93cae36506281cdb6860a2b9d730661a014c2f68eb64",
    "report-thm-1.8-witness.json": "4cbbef06293b20c2ceefbd1b8f9f497cb322a9be2f484e0eaf20ab7799ce9e5b",
    "report-thm-unpos.json": "d2c837459c0cd7045088b250d96034c2104eb6386c641125c83753afc691e3a7",
    "series-lemma-3.2-density-banach-density.csv": "91970dfb74852da7fb3575d1cbe6c5dffaa85ef67cdeacfb3ab8d54777a1bf60",
    "series-thm-1.3-cofinite-diam-head.csv": "5ed2882e916613c5d9b9b649cb501f8b43875a27db2fa062c307df356348b79e",
}

# the same for S4 depth 4 over the default constant-zero base, seed 0
S4_DEPTH4_DIGESTS = {
    "report-hausdorff-axioms.json": "50a263f49f459d8e75518da7f08c01d0c508b9786b1f02d549de6228440fbaa6",
    "report-independence.json": "0d0bb7912ca0229227e3cc8850bbb15499c28d832d01c8001c65f7a2e4ff53bd",
    "report-lemma-count-3.json": "d3869884e364a860463ca8bbc15423f74e27d45befd3814b330367d9ab1c4932",
    "report-prop-devaney.json": "3c853975fb163dae25f3eea3e2ed4c2038cece5240e273904bf22c7371c4972f",
    "report-prop-p-system.json": "fb799cee23d1899d9717590172d8ea034e325112513ceae7136603e5ba876b96",
    "report-remark-2.1.3.json": "30d92a5c4abeb3b4f5d6571d4bb209f47a68f7120fb2be733ebebe5d88eec9a2",
    "report-thm-unpos.json": "350794183fa090ac6b740f0e989f79abe5814181c01f391378e15e95dbde3eba",
}

# the build's files and the report summary, which with the reports and
# series above make up every file that build, check all and report write
OTHER_DIGESTS = {
    "S3": {
        "A_1.rle": "f7ab42bb89cbdb989d85f35abe6de5e1f4d4b4fc5107cda6f3ae56d76bc1bafc",
        "A_2.rle": "e61a0b432dad083cdaa1b86099ddac75c969c179188c99d91f3a35306f7abf2e",
        "A_3.rle": "e77903cba74dac6df3eb4e9447634e4f9c8388964cb8247b76e8ba10928c4309",
        "A_4.rle": "674808bd564020859d1ddb46bc4c2c0426ead611f80ca2f652bea37ff57d9130",
        "B_1.rle": "6e35f28e4cb728bca55fb7134d8bc4f6a32619bf23fd36497ab90e256c5f4cbc",
        "B_2.rle": "499e48a6cd015e73a502c6a1cec304e66a57d0dcad620d7ba841103573c8853b",
        "B_3.rle": "b0aa8bde6e1f437295d5412d916a1eab4c6f4c385bd44655d20aab12ddd3a370",
        "build.json": "de5b111b61b2616893e6193ee36a21a3ac91439d794e51a63af442d3416c3d05",
        "schedule.json": "98e2f23b8e07b1297a6d7b8c91d537e98c28f232b4c6941955b9c05606d51f09",
        "summary.json": "d87a6fa5f72303f6180c57ab014a7274c654468c8d4e3af0228adc2c0c6f8a16",
    },
    "S4": {
        "A_1.rle": "c565688488d25981d0e64bb21cd1a62e730430b92df4d30816f791b6215f6ad8",
        "A_2.rle": "2d0fd2c0f8fee1dd6dd4a791ced3a52eb69686ae9560e3b78c7193ce12441bf2",
        "A_3.rle": "026f9ee6e0b20fe75736e1c242bcc98992170217946c1b17797a9d063e4d94e2",
        "A_4.rle": "5522d1a133059705d689d75ce2fd2165081c08101271630b73232dcbec656d94",
        "B_1.rle": "9c1eb83032928dcd5c736c417cc4ca2dd3c5e0a0f23475c2abde6f597da333c0",
        "B_2.rle": "c0336a41dab8bcacd957d6a9c71b6e8342694f4bb033b8f1d62f2ec7bbad9c74",
        "B_3.rle": "98e3536a03f26fc2c5d1e1197336048b2ce5346a94eb274c29280bc438905cb2",
        "B_4.rle": "a53a2706411af0222a50fe8f67fb4790963938d2a0561c8414c52ade09248c37",
        "build.json": "21b2ac5653b65d26a009e73102b57472822329ec53ce43330a0ed9b9bcf57fd4",
        "schedule.json": "dac61c3806ffaa762f9c98f625caa727317f5b4225c2ed6baef31388d6ffa599",
        "summary.json": "9f215046c64bc8a560ee09a719be4be9a3a2a0bd70cab5892972cefa0dee4cd7",
    },
}


@pytest.mark.parametrize("construction, digests", [
    ("S3", S3_DEPTH4_DIGESTS), ("S4", S4_DEPTH4_DIGESTS)], ids=["S3", "S4"])
def test_every_output_file_matches_its_recorded_digest(tmp_path, construction,
                                                        digests):
    # byte identity of a whole run: build, check all and report at depth 4,
    # seed 0, each file against its recorded sha256
    out = tmp_path / construction
    args = ("--construction", construction, "--depth", "4", "--seed", "0",
            "--out", str(out))
    assert run("build", *args) == 0
    assert run("check", "all", *args) == 0
    assert run("report", "--out", str(out)) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.iterdir()}
    assert got == {**digests, **OTHER_DIGESTS[construction]}


def test_build_emits_schedule_and_words(tmp_path):
    out = tmp_path / "s3"
    assert run("build", "--construction", "S3", "--depth", "2",
               "--out", str(out)) == 0
    sched = Schedule.from_json(json.loads((out / "schedule.json").read_text()))
    assert sched.level(1).k == 9
    assert sched.level(2).k == 1788
    a2 = Word.from_text((out / "A_2.rle").read_text())
    assert a2.runs == ((1, 3), (0, 21), (1, 3))
    for name in ("A_1", "B_1", "A_2", "B_2"):
        assert (out / f"{name}.rle").exists()


def test_build_s4_depth2_values(tmp_path):
    out = tmp_path / "s4"
    assert run("build", "--construction", "S4", "--depth", "2",
               "--out", str(out)) == 0
    sched = Schedule.from_json(json.loads((out / "schedule.json").read_text()))
    assert sched.level(1).k == 7
    assert sched.level(2).k == 469


def test_build_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("build", "--construction", "S3", "--depth", "3",
                   "--out", str(out)) == 0
    for path in sorted(a.iterdir()):
        assert path.read_bytes() == (b / path.name).read_bytes()


def test_build_loads_no_numpy(tmp_path):
    # the build path is plain run arithmetic: with every numpy import made
    # to fail, it still writes the same bytes as a normal build
    root = Path(__file__).resolve().parents[1]
    cfg_path = tmp_path / "thue-morse.json"
    cfg_path.write_text(json.dumps(
        {"construction": "S4", "depth": 4, "base": {"kind": "thue-morse"}}))
    builds = {"s3": ["--construction", "S3", "--depth", "4"],
              "s4": ["--construction", "S4", "--depth", "4"],
              "s4-thue-morse": ["--config", str(cfg_path)]}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for name, args in builds.items():
        want, got = tmp_path / name, tmp_path / f"{name}-nonumpy"
        assert run("build", *args, "--out", str(want)) == 0
        code = ("import sys\n"
                "sys.modules['numpy'] = None\n"
                "from meansense.cli import main\n"
                f"sys.exit(main({['build', *args, '--out', str(got)]!r}))\n")
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in got.iterdir()) == sorted(
            p.name for p in want.iterdir())
        for path in want.iterdir():
            assert (got / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("config, checks", [
    ({"construction": "S4", "depth": 4}, ["all"]),
    ({"construction": "S4", "depth": 4, "base": {"kind": "thue-morse"}},
     ["all"]),
    ({"construction": "S3", "depth": 4}, ["all"]),
], ids=["s4", "s4-thue-morse", "s3"])
def test_checks_load_no_numpy(tmp_path, config, checks):
    # every check runs on plain ints and floats: with every numpy import
    # made to fail they write the same bytes and exit with the same code as
    # a normal run
    root = Path(__file__).resolve().parents[1]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    args = ["--config", str(cfg_path)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    want, got = tmp_path / "numpy", tmp_path / "nonumpy"
    for out in (want, got):
        assert run("build", *args, "--out", str(out)) == 0
    code = run("check", *checks, *args, "--out", str(want))
    argv = ["check", *checks, *args, "--out", str(got)]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\n"
         "sys.modules['numpy'] = None\n"
         "from meansense.cli import main\n"
         f"sys.exit(main({argv!r}))\n"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert sorted(p.name for p in got.iterdir()) == sorted(
        p.name for p in want.iterdir())
    for path in want.iterdir():
        assert (got / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("construction, checks, absent", [
    ("S4", ["all"], ["inspect", "_hashlib"]),
    ("S3", ["thm-1.3-cofinite", "thm-1.8-witness"],
     ["inspect", "_hashlib", "meansense.language"]),
    ("S3", ["lemma-3.1", "lemma-3.2-density", "thm-1.3-banach-equi"],
     ["numpy", "_hashlib", "meansense.hyperspace", "fractions", "decimal"]),
], ids=["s4", "s3-families", "s3-windows"])
def test_runs_load_no_dataclasses(tmp_path, construction, checks, absent):
    # the records are plain classes: with every dataclasses import made to
    # fail, build and check write the same bytes and exit with the same
    # codes as a normal run; the build loads no fractions and no _hashlib,
    # and the checks none of the modules named in ``absent`` (the S3
    # family checks not even the language module).  Without a
    # built-in SHA-256, hashlib's OpenSSL route is the only one
    if not BUILTIN_SHA256:
        absent = [name for name in absent if name != "_hashlib"]
    root = Path(__file__).resolve().parents[1]
    args = ["--construction", construction, "--depth", "4"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    want, got = tmp_path / "normal", tmp_path / "blocked"
    codes = [run("build", *args, "--out", str(want)),
             run("check", *checks, *args, "--out", str(want))]
    build = ["build", *args, "--out", str(got)]
    check = ["check", *checks, *args, "--out", str(got)]
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n"
         "sys.modules['dataclasses'] = None\n"
         "from meansense.cli import main\n"
         f"codes = [main({build!r})]\n"
         "built = sorted(sys.modules)\n"
         f"codes.append(main({check!r}))\n"
         "print(json.dumps([codes, built, sorted(sys.modules)]))\n"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got_codes, built, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert got_codes == codes
    assert "fractions" not in built
    assert not BUILTIN_SHA256 or "_hashlib" not in built
    assert not set(absent) & set(loaded)
    assert sorted(p.name for p in got.iterdir()) == sorted(
        p.name for p in want.iterdir())
    for path in want.iterdir():
        assert (got / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("construction, checks", [
    ("S4", ["all"]), ("S3", ["thm-1.3-cofinite", "thm-1.8-witness"])])
def test_runs_load_no_pathlib(tmp_path, construction, checks):
    # ``python -S`` skips ``site``, which may import pathlib itself; build,
    # check and report then load none of it
    root = Path(__file__).resolve().parents[1]
    args = ["--construction", construction, "--depth", "4", "--out",
            str(tmp_path)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys\n"
         "assert 'pathlib' not in sys.modules\n"
         "from meansense.cli import main\n"
         f"codes = [main({['build', *args]!r}),\n"
         f"         main({['check', *checks, *args]!r}),\n"
         f"         main({['report', '--out', str(tmp_path)]!r})]\n"
         "print(codes, 'pathlib' in sys.modules)\n"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] False"


@pytest.mark.parametrize("code", [0, 1, 2, 3])
def test_process_entry_exits_with_the_code_of_main(monkeypatch, code):
    # the heap is frozen after main returns, just before the exit
    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or code)
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == code
    assert calls == ["main", "freeze"]


def test_process_entry_freezes_the_heap_before_exit(tmp_path):
    # in a fresh process: atexit handlers still run, and see the frozen
    # heap; standard output is still flushed
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = ["meansense", "build", "--construction", "S3", "--depth", "2",
            "--out", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-c", "import atexit, gc, sys\n"
         "from meansense import cli\n"
         "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
         f"sys.argv = {argv!r}\n"
         "cli.run()\n"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"built S3 depth 2 -> {tmp_path}",
                                        "frozen True"]
    assert (tmp_path / "build.json").is_file()


def test_main_never_freezes_the_heap(tmp_path, monkeypatch):
    # main is the in-process API, which tests and tools call many times
    def freeze():
        raise AssertionError("main froze the heap")

    monkeypatch.setattr(cli.gc, "freeze", freeze)
    args = ["--construction", "S4", "--depth", "4", "--out", str(tmp_path)]
    assert run("build", *args) == 0
    assert run("check", "all", *args) == 0
    assert run("report", "--out", str(tmp_path)) == 0


def test_usage_errors_exit_2(tmp_path):
    assert run("build", "--construction", "S3", "--depth", "0",
               "--out", str(tmp_path)) == 2
    assert run("check", "nope", "--out", str(tmp_path)) == 2


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_unusable_out_is_a_usage_error(tmp_path, out):
    # --out naming a file, or a path through one, cannot become the output
    # directory: one error line and exit 2, no traceback, the file untouched
    root = Path(__file__).resolve().parents[1]
    (tmp_path / "file").write_text("a file\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "meansense.cli", "build", "--construction",
         "S3", "--depth", "2", "--out", str(tmp_path / out)],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: cannot make output directory")
    assert (tmp_path / "file").read_text() == "a file\n"


def test_unwritable_outputs_are_usage_errors(tmp_path, capsys):
    # a directory where check or report writes a file: exit 2 and an error
    # line naming the file
    out = tmp_path / "run"
    assert run("build", "--construction", "S4", "--depth", "2",
               "--out", str(out)) == 0
    (out / "report-thm-unpos.json").mkdir()
    capsys.readouterr()
    assert run("check", "thm-unpos", "--construction", "S4", "--depth", "2",
               "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot write {out / 'report-thm-unpos.json'}")
    (out / "report-thm-unpos.json").rmdir()
    assert run("check", "thm-unpos", "--construction", "S4", "--depth", "2",
               "--out", str(out)) == 0
    (out / "summary.json").mkdir()
    capsys.readouterr()
    assert run("report", "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot write {out / 'summary.json'}")


def test_patched_construction_is_rejected(tmp_path, capsys):
    # the patched system has no level schedule, so nothing can build it
    for cmd in (("build",), ("check", "thm-unpos")):
        assert run(*cmd, "--construction", "patched", "--depth", "2",
                   "--out", str(tmp_path)) == 2
        assert "invalid choice: 'patched'" in capsys.readouterr().err
        cfg_path = tmp_path / "patched.json"
        cfg_path.write_text(json.dumps({"construction": "patched", "depth": 2}))
        assert run(*cmd, "--config", str(cfg_path),
                   "--out", str(tmp_path)) == 2
        assert "construction must be S3 or S4" in capsys.readouterr().err
    assert not (tmp_path / "schedule.json").exists()


def test_check_requires_build_artifacts(tmp_path):
    assert run("check", "lemma-3.1", "--out", str(tmp_path / "missing")) == 2


def test_check_writes_report_with_hashes(tmp_path):
    out = tmp_path / "run"
    assert run("build", "--construction", "S3", "--depth", "4",
               "--out", str(out)) == 0
    assert run("check", "lemma-3.1", "--construction", "S3", "--depth", "4",
               "--out", str(out)) == 0
    rep = json.loads((out / "report-lemma-3.1.json").read_text())
    assert rep["verdict"] == "PASS"
    assert set(rep) == {"check", "params", "verdict", "witnesses", "caveats"}
    assert rep["params"]["config_hash"]
    assert rep["params"]["schedule_hash"]


# construction, depth, seed, base
HASHED_CONFIGS = [
    ("S3", 4, 0, None), ("S3", 4, 1, None), ("S3", 2, 12345, None),
    ("S4", 4, 0, None), ("S4", 3, 7, None),
    ("S4", 4, 1, {"kind": "thue-morse"}),
    ("S4", 4, 0, {"kind": "sturmian", "cf_terms": [1, 2, 1]}),
]


@pytest.mark.parametrize("route", ["built-in", "hashlib"])
def test_fingerprints_are_truncated_sha256(monkeypatch, route):
    # RunConfig.hash and schedule_hash are the first 16 hex digits of the
    # SHA-256 of their JSON documents, whichever module computes it; the
    # hashlib route is a fresh copy of the cli module with both built-in
    # modules made to fail on import
    if route == "built-in":
        if not BUILTIN_SHA256:
            pytest.skip("this interpreter has no built-in SHA-256 module")
        module = cli
        assert module.sha256 is not hashlib.sha256
    else:
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
        spec = importlib.util.find_spec("meansense.cli")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.sha256 is hashlib.sha256
    for construction, depth, seed, base in HASHED_CONFIGS:
        cfg = module.RunConfig()
        cfg.construction, cfg.depth, cfg.seed, cfg.base = (
            construction, depth, seed, base)
        cfg.validate()
        payload = {"construction": construction, "depth": depth,
                   "seed": seed, "base": base}
        want = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
        assert cfg.hash == want[:16]
        sched = cfg.schedule()
        want = hashlib.sha256(sched.to_json_str().encode()).hexdigest()
        assert module.schedule_hash(sched) == want[:16]


def test_check_emits_csv_series(tmp_path):
    out = tmp_path / "run"
    run("build", "--construction", "S3", "--depth", "4", "--out", str(out))
    assert run("check", "lemma-3.2-density", "--construction", "S3",
               "--depth", "4", "--out", str(out)) == 0
    csvs = list(out.glob("series-*.csv"))
    assert csvs
    head = csvs[0].read_text().splitlines()
    assert head[0] == "step,value"


def test_report_aggregates_and_exit_codes(tmp_path):
    out = tmp_path / "run"
    run("build", "--construction", "S3", "--depth", "4", "--out", str(out))
    run("check", "lemma-3.1", "thm-unpos", "--construction", "S3",
        "--depth", "4", "--out", str(out))
    assert run("report", "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_pass"]
    assert run("report", "--out", str(tmp_path / "void")) == 2


def test_config_file_drives_build_and_check(tmp_path):
    # prop-devaney computes on the configured base.  Over the thue-morse
    # base, the |A_4| prefix holds length-4 subwords such as 0011 that no
    # periodic point of levels 1-2 starts with; the desk proxy reports them
    # rather than searching deeper levels
    verdicts = {}
    for kind in ("thue-morse", "constant-zero"):
        out = tmp_path / kind
        cfg_path = tmp_path / f"{kind}.json"
        cfg_path.write_text(json.dumps({
            "construction": "S4", "depth": 4, "base": {"kind": kind},
            "seed": 3, "output_dir": str(out)}))
        assert run("build", "--config", str(cfg_path)) == 0
        sched = Schedule.from_json(json.loads((out / "schedule.json").read_text()))
        assert sched.base.kind == kind
        code = run("check", "prop-devaney", "--config", str(cfg_path))
        rep = json.loads((out / "report-prop-devaney.json").read_text())
        verdicts[kind] = (code, rep["verdict"])
        if kind == "thue-morse":
            periodic = rep["witnesses"][1]["dense-periodic"]["witnesses"]
            assert "alphabet=2; 0:2 1:2" in periodic[1]["unwitnessed"]
    assert verdicts == {"thue-morse": (1, "FAIL"), "constant-zero": (0, "PASS")}


def test_capped_language_sample_exits_3(tmp_path, monkeypatch):
    # past its subword cap prop-devaney stops with a resource error instead
    # of judging part of the sample, and writes no report
    out = tmp_path / "s4"
    assert run("build", "--construction", "S4", "--depth", "4",
               "--out", str(out)) == 0
    monkeypatch.setattr(language, "subwords",
                        functools.partial(language.subwords, cap=2))
    assert run("check", "prop-devaney", "--construction", "S4", "--depth", "4",
               "--out", str(out)) == 3
    assert not list(out.glob("report-*.json"))


def test_check_refuses_a_build_too_shallow_or_of_another_family(tmp_path):
    out3, out4 = tmp_path / "s3d3", tmp_path / "s3d4"
    for out, depth in ((out3, "3"), (out4, "4")):
        assert run("build", "--construction", "S3", "--depth", depth,
                   "--out", str(out)) == 0
    # lemma-3.1 reads level 4, which a depth-3 build does not have
    assert run("check", "lemma-3.1", "--construction", "S3", "--depth", "3",
               "--out", str(out3)) == 2
    # lemma-count-3 is an S4 check; named next to an S3 check, neither runs
    assert run("check", "thm-unpos", "lemma-count-3", "--construction", "S3",
               "--depth", "4", "--out", str(out4)) == 2
    assert run("check", "lemma-count-3", "--construction", "S3", "--depth", "4",
               "--out", str(out4)) == 2
    assert not list(out3.glob("report-*.json"))
    assert not list(out4.glob("report-*.json"))


def test_check_all_runs_the_checks_that_fit_the_build(tmp_path):
    out = tmp_path / "s4"
    assert run("build", "--construction", "S4", "--depth", "4",
               "--out", str(out)) == 0
    assert run("check", "all", "--construction", "S4", "--depth", "4",
               "--out", str(out)) == 0
    names = sorted(p.name[len("report-"):-len(".json")]
                   for p in out.glob("report-*.json"))
    assert names == ["hausdorff-axioms", "independence", "lemma-count-3",
                     "prop-devaney", "prop-p-system", "remark-2.1.3",
                     "thm-unpos"]
    assert output_digests(out) == S4_DEPTH4_DIGESTS


def test_default_build_then_check_all_passes(tmp_path):
    # with no construction or depth flags the build must reach every level
    # the checks of the default S3 family read
    out = tmp_path / "default"
    assert run("build", "--out", str(out)) == 0
    assert run("check", "all", "--out", str(out)) == 0
    assert len(list(out.glob("report-*.json"))) == 9
    assert output_digests(out) == S3_DEPTH4_DIGESTS


def test_check_rejects_config_not_matching_build(tmp_path):
    out = tmp_path / "run"
    assert run("build", "--construction", "S3", "--depth", "3",
               "--out", str(out)) == 0
    assert run("check", "lemma-count-3", "--construction", "S4", "--depth", "3",
               "--out", str(out)) == 2
    assert run("check", "lemma-count-3", "--construction", "S3", "--depth", "2",
               "--out", str(out)) == 2
    assert not list(out.glob("report-*.json"))


def test_config_file_rejects_unknown_keys(tmp_path):
    # horizon and checks were once accepted, validated and hashed, but no
    # check read them; the method and property names of RunConfig are no
    # config fields either
    for key, value in (("construktion", "S3"), ("horizon", 100), ("checks", []),
                       ("generator", {"kind": "thue-morse"}), ("schedule", 5),
                       ("validate", 0), ("to_json", 0), ("hash", 1)):
        cfg_path = tmp_path / f"{key}.json"
        cfg_path.write_text(json.dumps({key: value}))
        assert run("build", "--config", str(cfg_path),
                   "--out", str(tmp_path / key)) == 2
    assert run("build", "--horizon", "100", "--out", str(tmp_path / "h")) == 2
    assert not list(tmp_path.glob("*/schedule.json"))


def test_config_rejects_booleans_as_integers(tmp_path):
    # bool is an int subclass: true would build depth 1 under another hash
    for key in ("depth", "seed"):
        for value in (True, False):
            cfg_path = tmp_path / f"{key}-{value}.json"
            cfg_path.write_text(json.dumps({key: value}))
            assert run("build", "--config", str(cfg_path),
                       "--out", str(tmp_path / f"{key}-{value}")) == 2
    # likewise inside an S4 base, where true once built as 1 under another
    # hash; a key the generator never reads is refused too
    for i, base in enumerate(({"kind": "sturmian", "cf_depth": True},
                              {"kind": "sturmian", "cf_terms": [True, 2]},
                              {"kind": "thue-morse", "bogus": 1},
                              {"kind": "thue-morse", "cf_depth": True,
                               "bogus": 1})):
        cfg_path = tmp_path / f"base-{i}.json"
        cfg_path.write_text(json.dumps({"construction": "S4", "base": base}))
        assert run("build", "--config", str(cfg_path),
                   "--out", str(tmp_path / f"base-{i}")) == 2
    assert not list(tmp_path.glob("*/schedule.json"))
    with pytest.raises(ParameterError):
        GeneratorDescriptor("sturmian", (True, 2))
    # valid bases keep their config hashes
    for base, digest in ((None, "f463ed2c42c94820"),
                         ({"kind": "thue-morse"}, "10b506a0a3df8dbf"),
                         ({"kind": "thue-morse", "cf_depth": 40},
                          "58f36b12f3c63708"),
                         ({"kind": "sturmian", "cf_terms": [1, 2]},
                          "4a7941a9ba8b07b1")):
        cfg = cli.RunConfig()
        cfg.construction, cfg.base = "S4", base
        cfg.validate()
        assert cfg.hash == digest


def test_config_bounds_the_continued_fraction(tmp_path, capsys):
    # a depth of 10^11 once died on allocating its terms with a MemoryError
    # traceback and exit 1; now it is one error line and exit 2, like a
    # depth below 1 or too many explicit terms
    cfg_path = tmp_path / "cf.json"
    for base in ({"cf_depth": 10 ** 11}, {"cf_depth": 0},
                 {"cf_depth": MAX_CF_TERMS + 1},
                 {"cf_terms": [1] * (MAX_CF_TERMS + 1)}):
        cfg_path.write_text(json.dumps({"construction": "S4", "base": {
            "kind": "sturmian", **base}}))
        assert run("build", "--config", str(cfg_path),
                   "--out", str(tmp_path / "bad")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "bad").exists()
    cfg_path.write_text(json.dumps({"construction": "S4", "depth": 2, "base": {
        "kind": "sturmian", "cf_depth": MAX_CF_TERMS}}))
    assert run("build", "--config", str(cfg_path),
               "--out", str(tmp_path / "edge")) == 0


def test_check_reports_are_deterministic(tmp_path):
    out = tmp_path / "run"
    run("build", "--construction", "S3", "--depth", "3", "--out", str(out))
    run("check", "remark-2.1.3", "--construction", "S3", "--depth", "3",
        "--seed", "5", "--out", str(out))
    first = (out / "report-remark-2.1.3.json").read_bytes()
    run("check", "remark-2.1.3", "--construction", "S3", "--depth", "3",
        "--seed", "5", "--out", str(out))
    assert (out / "report-remark-2.1.3.json").read_bytes() == first


@pytest.mark.parametrize("text", ["{", "not json", "[]", "{}"])
def test_malformed_report_exits_2(tmp_path, capsys, text):
    # exit 1 would read as a failed check
    (tmp_path / "report-broken.json").write_text(text)
    assert run("report", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "report-broken.json" in err


def test_report_flags_failures(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    bad = {"check": "synthetic", "params": {}, "verdict": "FAIL",
           "witnesses": [], "caveats": []}
    (out / "report-synthetic.json").write_text(json.dumps(bad))
    assert run("report", "--out", str(out)) == 1


# -- malformed input -------------------------------------------------------

_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=80)
_json_value = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=2),
    st.fixed_dictionaries({"kind": st.sampled_from(["sturmian", "x"])},
                          optional={"cf_terms": st.lists(st.text(max_size=2),
                                                         max_size=2)}),
)
_configs = st.one_of(_text, st.dictionaries(
    st.sampled_from(["construction", "depth", "base", "horizon", "seed",
                     "checks", "bogus", "generator", "schedule", "validate",
                     "to_json", "hash"]), _json_value).map(json.dumps))
_level = st.fixed_dictionaries(
    {}, optional={k: _json_value for k in ("n", "k_n", "len_A", "len_B", "t_n")})
_schedules = st.one_of(_text, st.fixed_dictionaries(
    {}, optional={"construction": _json_value, "base": _json_value,
                  "levels": st.one_of(_json_value, st.lists(_level, max_size=2))}
).map(json.dumps))


@settings(max_examples=150, deadline=None)
@example("not json")
@example('{"depth": "x"}')
@example("[1]")
@given(text=_configs)
def test_malformed_config_exits_2(tmp_path_factory, text):
    tmp = tmp_path_factory.mktemp("cfg")
    (tmp / "run.json").write_text(text)
    assert run("check", "lemma-3.1", "--config", str(tmp / "run.json"),
               "--out", str(tmp / "nobuild")) == 2


@settings(max_examples=150, deadline=None)
@example("not json")
@example('{"construction": "S3"}')
@given(text=_schedules)
def test_malformed_schedule_exits_2(tmp_path_factory, text):
    out = tmp_path_factory.mktemp("sched")
    (out / "schedule.json").write_text(text)
    assert run("check", "lemma-3.1", "--out", str(out)) == 2


@example("alphabet=x;")
@example("alphabet=2; 1:x")
@example("alphabet=2; 1")
@example("1")
@given(line=st.one_of(_text, _text.map(lambda t: "alphabet=2; " + t)))
def test_malformed_rle_raises_library_errors(line):
    try:
        Word.from_text(line)
    except MeansenseError:
        pass
