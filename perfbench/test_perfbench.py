"""Tests of the benchmark's output checks, input generation, launcher and
tracer.  Run from the repository root: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import checks
import run as bench
import setpart
import spawner
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def cli(*args: str) -> tuple[int, bytes]:
    proc = subprocess.run([sys.executable, "-m", "corrclass.cli", *args],
                          capture_output=True, env=ENV, cwd=ROOT, timeout=120)
    return proc.returncode, proc.stdout


def edit_json(out: bytes, edit) -> bytes:
    data = json.loads(out)
    edit(data)
    return json.dumps(data).encode()


# --- output checks -------------------------------------------------------

def test_count_check_catches_dropped_type_and_off_by_one():
    rc, out = cli("classify", "--n", "4", "--context", "atoms",
                  "--output", "json")
    expect = dict(classes=7, empties=63 - 7, covered=7)
    assert checks.check_catalog_counts(rc, out, **expect) == []
    dropped = edit_json(out, lambda d: d["classes"][0]["type_set"].pop())
    assert checks.check_catalog_counts(rc, dropped, **expect)
    assert checks.check_catalog_counts(rc, out, **{**expect, "classes": 8})
    assert checks.check_catalog_counts(3, out, **expect)


def test_pinned_check_catches_any_changed_byte():
    args = workloads._classify(4, "full")
    rc, out = cli(*args)
    key = " ".join(args)
    assert checks.check_pinned(key, rc, out) == []
    assert checks.check_pinned(key, rc, out.replace(b"1234", b"1243", 1))
    assert checks.check_pinned(key, 3, out)


def test_verify_check_needs_pass_lines_counts_and_exit_zero():
    rc, out = cli("verify", "--n", "3", "--exhaustive")
    expected = checks.verify_expectation(3, exhaustive=True)
    assert [c for _, c in expected if c] == [5, 3, 3, 7, 7, 20]
    assert checks.check_verify(rc, out, expected) == []
    assert checks.check_verify(rc, out.replace(b"PASS lemmas.atoms",
                                               b"FAIL lemmas.atoms"), expected)
    assert checks.check_verify(rc, out.replace(b"(7 filters)",
                                               b"(6 filters)", 1), expected)
    assert checks.check_verify(3, out, expected)


def test_dot_check_catches_missing_cover():
    rc, out = cli("lattice", "--n", "4", "--output", "dot")
    assert checks.check_dot(rc, out, 4) == []
    lines = out.decode().splitlines()
    edge = next(i for i, line in enumerate(lines) if "->" in line)
    broken = "\n".join(lines[:edge] + lines[edge + 1:]).encode()
    assert checks.check_dot(rc, broken, 4)


def test_custom_check_is_an_independent_signature_check(tmp_path):
    lines = ["12|34", "13|2|4", "1|234, 12|3|4", "14|23"]
    universe = setpart.partitions(4)
    labels = setpart.count_upsets(
        [checks._ideal_members(universe, line) for line in lines])
    path = tmp_path / "ctx.txt"
    path.write_text("\n".join(lines) + "\n")
    rc, out = cli("classify", "--n", "4", "--context", "custom",
                  "--context-file", str(path), "--output", "json")
    assert checks.check_custom(rc, out, 4, lines, labels) == []
    dropped = edit_json(out, lambda d: d["classes"][-1]["type_set"].pop())
    assert checks.check_custom(rc, dropped, 4, lines, labels)

    def drop_class(d):
        d["classes"].pop()
        d["class_count"] -= 1
    assert checks.check_custom(rc, edit_json(out, drop_class), 4, lines,
                               labels)
    assert checks.check_custom(rc, out, 4, lines, labels + 1)
    assert checks.check_custom(3, out, 4, lines, labels)


# --- launcher and failure accounting -------------------------------------

class FakeSpawner:
    def __init__(self, reply: dict):
        self.reply = reply

    def run(self, argv, stdout, stderr, timeout):
        Path(stdout).write_bytes(b"")
        return dict(self.reply)


def runner_with(reply: dict, tmp_path: Path) -> bench.Runner:
    return bench.Runner(FakeSpawner(reply), tmp_path,
                        time.monotonic() + 60)


def test_nonzero_exit_and_timeout_count_as_failed_jobs(tmp_path):
    job = workloads.Job(["verify", "--n", "3"],
                        lambda rc, out: checks.exit_ok(rc))
    base = {"wall_s": 0.5, "maxrss_kb": 1, "t_spawn": 0.0}
    for reply in ({"rc": 3, "timed_out": False},
                  {"rc": None, "timed_out": True}):
        runner = runner_with({**base, **reply}, tmp_path)
        assert runner.job(job)["problems"]
        assert (runner.attempted, runner.failed) == (1, 1)
    runner = runner_with({**base, "rc": 0, "timed_out": False}, tmp_path)
    assert runner.job(job)["problems"] == []
    assert (runner.attempted, runner.failed) == (1, 0)


def test_spawner_kills_and_reaps_a_job_past_its_timeout(tmp_path):
    start = time.monotonic()
    reply = spawner.run_job([sys.executable, "-c",
                             "import time; time.sleep(60)"],
                            str(tmp_path / "o"), str(tmp_path / "e"), 0.5)
    assert reply["timed_out"] and reply["rc"] is None
    assert time.monotonic() - start < 30
    reply = spawner.run_job([sys.executable, "-c", "print('x' * 10)"],
                            str(tmp_path / "o"), str(tmp_path / "e"), 30)
    assert reply["rc"] == 0 and not reply["timed_out"]
    assert (tmp_path / "o").read_text() == "x" * 10 + "\n"


def test_speed_probe_measures_a_job_and_is_reaped(tmp_path):
    probe = spawner.Probe()
    try:
        reply = spawner.run_job([sys.executable, "-c", "sum(range(10**6))"],
                                str(tmp_path / "o"), str(tmp_path / "e"), 30,
                                probe)
        assert reply["rc"] == 0
        assert 0 < reply["chunk_s"] < 0.1
        assert bench.scaled(reply) > 0
    finally:
        probe.close()
    try:
        os.kill(probe.pid, 0)
    except ProcessLookupError:
        pass
    else:
        raise AssertionError("the probe outlived close()")


# --- seeded input generation ---------------------------------------------

def test_same_seed_gives_byte_identical_context_files(tmp_path):
    def files(seed: int, sub: str) -> list[bytes]:
        (tmp_path / sub).mkdir()
        wl = workloads.build("ordered", seed, tmp_path / sub)
        assert len(wl.notes) == workloads.FILES
        return [p.read_bytes() for p in sorted((tmp_path / sub).iterdir())]

    first, again, other = files(7, "a"), files(7, "b"), files(8, "c")
    assert len(first) == workloads.FILES
    assert first == again
    assert first != other
    for ctx in workloads.generate_contexts(7):
        assert len(set(ctx.lines)) == workloads.CONTEXT_SIZE
        lo, hi = workloads.LABEL_BAND
        assert lo <= ctx.labels <= hi
        assert ctx.shape in ("chain", "antichain", "mixed")


# --- tracer --------------------------------------------------------------

def traced(tmp_path: Path, name: str, *args: str) -> tuple[dict, bytes]:
    prefix = str(tmp_path / name)
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" /
                                               "tracer.py"), prefix, "--",
                           *args], capture_output=True, env=ENV, cwd=ROOT,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return tracer.load_profile(prefix), proc.stdout


def test_traced_counters_repeat_exactly_and_output_is_unchanged(tmp_path):
    args = ("verify", "--n", "4")
    one, out_one = traced(tmp_path, "one", *args)
    two, out_two = traced(tmp_path, "two", *args)
    assert one["counters"] == two["counters"]
    assert one["spans"] == two["spans"]
    assert out_one == out_two == cli(*args)[1]
    assert one["counters"]["classify.oracle.calls"] == 4 + 4 + 63 + 127
    assert one["self_s"]["classify.oracle"] > 0
    assert 0 < sum(one["self_s"].values()) <= one["top_s"] + 1e-9


INSTALL_PROBE = """
import corrclass.cli, tracer
t = tracer.Tracer()
got = tracer.install(t)
import corrclass.catalogs as cat, corrclass.classify as cf, corrclass.cli as cli
assert cat.describe_class is cf.describe_class
assert hasattr(cat.describe_class, "__wrapped__")
assert hasattr(cli.enumerate_partitions, "__wrapped__")
assert "corrclass.catalogs.enumerate_filters" in got
absent = [("x.fn", "classify", "no_such_function", None),
          ("x.mod", "no_such_module", "fn", None),
          ("x.meth", "partitions", "PartitionLattice.no_such_method", None),
          ("x.cls", "partitions", "NoSuchClass.method", None)]
assert tracer.install(tracer.Tracer(), absent) == []
print("ok")
"""


def test_wrappers_reach_every_namespace_and_absent_names_are_skipped():
    env = dict(ENV, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", INSTALL_PROBE],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=60)
    assert proc.stdout.strip() == "ok", proc.stderr


# --- BENCHMARK.json ------------------------------------------------------

def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        bench.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in bench.PER_LAYER]
