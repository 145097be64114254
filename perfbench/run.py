"""Benchmark of the ``corrclass`` CLI, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ``antichain``, ``lattice7``, ``verify``, ``ordered`` (see
``workloads.py``), or ``all`` to run each in turn.  Every job runs the CLI
as a fresh process, one at a time, from ``spawner.py``, and every output is
checked (``checks.py``).

With ``--trace 0`` the run repeats the workload's jobs back to back, in
turn, while the next job fits in ``--seconds``, and times the set-up 3 to
9 times in between (see ``SETUP_REPS``).  It reports ``wall_s`` (the sum
over jobs of each job's median time), ``setup_s`` (median set-up time)
and ``peak_rss_mb`` (highest job max-RSS).  Both times are wall times
scaled to a reference CPU speed: the launcher runs a speed probe on the
jobs' CPU (see ``spawner.py``), and each wall time is multiplied by
``PROBE_REF_S`` over the probe's CPU time per chunk while that process
ran.  The host's CPU speed drifts by tens of percent within a minute, and
this removes most of that drift; the raw wall times are printed too.
With
``--trace 1`` it runs each job once untraced and once through
``tracer.py``, and reports the per-layer metrics of the traced runs.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (jobs) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"

SETUP_REPS = (3, 9)  # at least 3; up to 9 while they take < 10% of a run
JOB_TIMEOUT = 90.0
RUN_LIMIT = 165.0  # a run must end within 180 s
PROBE_REF_S = 100e-6  # probe CPU time per chunk at the reference speed
CLI_MAIN = "import sys; from corrclass.cli import main; sys.exit(main())"

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def _self_s(span):
    return lambda agg: agg["self_s"].get(span, 0.0)


def _count(key):
    return lambda agg: agg["counters"].get(key, 0)


def _nonempty_ratio(agg):
    decided = agg["counters"].get("classify.exists.calls", 0)
    nonempty = agg["counters"].get("classify.exists.nonempty", 0)
    return nonempty / decided if decided else 0.0


# (name, unit, better, value from the traced jobs' aggregate).  README.md
# names the end-to-end metric and workload each one should move.
PER_LAYER = [
    ("partitions.build_s", "s", "lower", _self_s("partitions.build")),
    ("partitions.build_calls", "count", "lower",
     _count("partitions.build.calls")),
    ("partitions.meet_s", "s", "lower", _self_s("partitions.meet")),
    ("partitions.meet_calls", "count", "lower",
     _count("partitions.meet.calls")),
    ("poset.upsets_s", "s", "lower", _self_s("poset.upsets")),
    ("poset.upsets_emitted", "count", "lower",
     _count("poset.upsets.emitted")),
    ("poset.covers_s", "s", "lower", _self_s("poset.covers")),
    ("hasse.dot_s", "s", "lower", _self_s("hasse.dot")),
    ("ideals.context_s", "s", "lower", _self_s("ideals.context")),
    ("ideals.context_size", "count", "lower", _count("ideals.context_size")),
    ("ideals.containment_tests", "count", "lower",
     _count("ideals.containment_tests")),
    ("ideals.enumerate_s", "s", "lower", _self_s("ideals.enumerate")),
    ("ideals.universe_size", "count", "lower",
     _count("ideals.universe_size")),
    ("ideals.parse_s", "s", "lower", _self_s("ideals.parse")),
    ("ideals.parsed", "count", "lower", _count("ideals.parse.calls")),
    ("ideals.principal_s", "s", "lower", _self_s("ideals.principal")),
    ("ideals.principal_calls", "count", "lower",
     _count("ideals.principal.calls")),
    ("classify.exists_s", "s", "lower", _self_s("classify.exists")),
    ("classify.labels", "count", "lower", _count("classify.exists.calls")),
    ("classify.oracle_s", "s", "lower", _self_s("classify.oracle")),
    ("classify.oracle_calls", "count", "lower",
     _count("classify.oracle.calls")),
    ("classify.membership_tests", "count", "lower",
     _count("classify.membership_tests")),
    ("classify.describe_s", "s", "lower", _self_s("classify.describe")),
    ("classify.cross_check_s", "s", "lower", _self_s("classify.cross_check")),
    ("classify.nonempty_ratio", "ratio", "higher", _nonempty_ratio),
    ("classify.equal_s", "s", "lower", _self_s("classify.equal")),
    ("classify.pairs", "count", "lower", _count("classify.equal.calls")),
    ("classify.lemma_s", "s", "lower", _self_s("classify.lemma")),
    ("classify.lemma_calls", "count", "lower", _count("classify.lemma.calls")),
    ("venn.check_s", "s", "lower", _self_s("venn.check")),
    ("venn.families", "count", "lower", _count("venn.check.calls")),
    ("catalogs.catalog_s", "s", "lower", _self_s("catalogs.catalog")),
    ("catalogs.render_s", "s", "lower", _self_s("catalogs.render")),
    ("catalogs.json_bytes", "bytes", "lower", _count("catalogs.json_bytes")),
    ("cli.startup_s", "s", "lower", lambda agg: agg["startup_s"]),
    ("cli.self_s", "s", "lower", lambda agg: agg["cli_self_s"]),
    ("trace.overhead_frac", "ratio", "lower", lambda agg: agg["overhead"]),
]


class Spawner:
    """The job launcher process (see spawner.py), driven over pipes."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], stdout: Path, stderr: Path,
            timeout: float) -> dict:
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr),
                   "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the job launcher exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Runner:
    """Runs and checks jobs; counts attempts and failures."""

    def __init__(self, spawner: Spawner, workdir: Path, deadline: float):
        self.spawner = spawner
        self.workdir = workdir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.maxrss_kb = 0
        self.seq = 0

    def _spawn(self, argv: list[str]) -> tuple[dict, bytes, Path]:
        self.seq += 1
        out = self.workdir / f"{self.seq}.out"
        err = self.workdir / f"{self.seq}.err"
        timeout = min(JOB_TIMEOUT, self.deadline - time.monotonic())
        if timeout <= 0:
            return {"rc": None, "timed_out": True, "wall_s": 0.0,
                    "maxrss_kb": 0, "t_spawn": 0.0, "chunk_s": None}, b"", err
        reply = self.spawner.run(argv, out, err, timeout)
        data = out.read_bytes()
        out.unlink()
        return reply, data, err

    def job(self, job: workloads.Job, trace_out: str | None = None) -> dict:
        """Run one job and check it; the reply gains ``problems``."""
        if trace_out is None:
            argv = [sys.executable, "-c", CLI_MAIN, *job.args]
        else:
            argv = [sys.executable, str(BENCH / "tracer.py"), trace_out, "--",
                    *job.args]
        reply, data, err = self._spawn(argv)
        self.attempted += 1
        if reply["timed_out"]:
            problems = ["timed out" if reply["wall_s"] else
                        "not started: run time limit reached"]
        else:
            problems = job.check(reply["rc"], data)
        if problems:
            self.failed += 1
            print(f"FAILED {job.name}: {'; '.join(problems[:5])}\n"
                  + _tail(err), file=sys.stderr)
        self.maxrss_kb = max(self.maxrss_kb, reply["maxrss_kb"])
        reply["problems"] = problems
        return reply

    def setup(self, steps: list) -> dict:
        argv = [sys.executable, str(BENCH / "setup_child.py"),
                json.dumps(steps)]
        reply, _, err = self._spawn(argv)
        if reply["rc"] != 0:
            raise RuntimeError("set-up failed:\n" + _tail(err))
        return reply


def scaled(reply: dict) -> float:
    """A process's wall time at the reference CPU speed."""
    return reply["wall_s"] * PROBE_REF_S / reply["chunk_s"]


def _tail(path: Path) -> str:
    return path.read_text("utf-8", "replace")[-2000:] if path.exists() else ""


def measure(runner: Runner, wl: workloads.Workload, seconds: float,
            start: float) -> dict:
    # One untimed set-up first: in a fresh checkout it compiles bytecode.
    cost = runner.setup(wl.setup)["wall_s"]
    target = min(SETUP_REPS[1], max(SETUP_REPS[0], int(0.1 * seconds / cost)))
    setups: list[float] = []
    raw_setups: list[float] = []
    times: list[list[float]] = [[] for _ in wl.jobs]
    raw: list[list[float]] = [[] for _ in wl.jobs]

    def sample_setup() -> None:
        reply = runner.setup(wl.setup)
        raw_setups.append(reply["wall_s"])
        setups.append(scaled(reply))

    done = 0
    while True:
        k = done % len(wl.jobs)
        if k == 0:
            print(f"pass {done // len(wl.jobs) + 1}:")
        # Set-ups are spread over the run, so that they see the machine
        # load the jobs see.
        if len(setups) < target:
            sample_setup()
        job = wl.jobs[k]
        reply = runner.job(job)
        if reply["chunk_s"] is None:  # not started: the run time is up
            break
        raw[k].append(reply["wall_s"])
        times[k].append(scaled(reply))
        print(f"  {reply['wall_s']:8.3f} s {times[k][-1]:8.3f} s scaled"
              f" {reply['maxrss_kb'] / 1024:7.1f} MB"
              f"  {'ok  ' if not reply['problems'] else 'FAIL'} {job.name}")
        done += 1
        nxt = done % len(wl.jobs)
        if done >= len(wl.jobs) and (
                time.monotonic() - start + statistics.median(raw[nxt])
                > seconds or time.monotonic() > runner.deadline):
            break
    while len(setups) < target:
        sample_setup()
    print(f"{done} job runs over {len(wl.jobs)} jobs; set-up x{len(setups)}:"
          f" {', '.join(f'{s:.3f}' for s in raw_setups)} s, scaled"
          f" {', '.join(f'{s:.3f}' for s in setups)} s")
    print(f"{wl.name} {'raw wall_s':28s} "
          f"{sum(statistics.median(r) for r in raw if r):14.6f} s")
    print(f"{wl.name} {'raw setup_s':28s} "
          f"{statistics.median(raw_setups):14.6f} s")
    return {"wall_s": sum(statistics.median(t) for t in times if t),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": runner.maxrss_kb / 1024}


def measure_traced(runner: Runner, wl: workloads.Workload) -> dict:
    agg = {"self_s": {}, "counters": {}, "startup_s": 0.0, "cli_self_s": 0.0}
    untraced = traced = 0.0
    # Each job runs untraced, then traced: close in time, the pair sees
    # the same machine load, which the overhead ratio needs.
    for job in wl.jobs:
        untraced += runner.job(job)["wall_s"]
        prefix = str(runner.workdir / f"trace{runner.seq + 1}")
        reply = runner.job(job, trace_out=prefix)
        traced += reply["wall_s"]
        if not Path(prefix + ".json").exists():  # the job died or timed out
            continue
        prof = tracer.load_profile(prefix)
        startup = prof["t_imported"] - reply["t_spawn"]
        agg["startup_s"] += startup
        agg["cli_self_s"] += reply["wall_s"] - startup - prof["top_s"]
        for name, value in prof["self_s"].items():
            agg["self_s"][name] = agg["self_s"].get(name, 0.0) + value
        for key, value in prof["counters"].items():
            agg["counters"][key] = agg["counters"].get(key, 0) + value
        print(f"  {reply['wall_s']:8.3f} s {prof['spans']:9d} spans"
              f"  {'ok  ' if not reply['problems'] else 'FAIL'} {job.name}")
    agg["overhead"] = traced / untraced - 1 if untraced else 0.0
    print(f"traced wall {traced:.3f} s, untraced wall {untraced:.3f} s")
    if agg["counters"].get("trace.hook_errors"):
        print("some counter hooks failed; their counts are incomplete",
              file=sys.stderr)
    return {name: get(agg) for name, _, _, get in PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spawner: Spawner, workdir: Path) -> dict:
    start = time.monotonic()
    workdir = workdir / name
    workdir.mkdir()
    runner = Runner(spawner, workdir, start + RUN_LIMIT)
    wl = workloads.build(name, seed, workdir.relative_to(ROOT))
    print(f"workload {name}, seed {seed}: {workloads.WHY[name]}")
    for note in wl.notes:
        print("  " + note)
    if trace:
        values = measure_traced(runner, wl)
        units = {m: u for m, u, _, _ in PER_LAYER}
    else:
        values = measure(runner, wl, seconds, start)
        units = dict(END_TO_END)
    fail_frac = runner.failed / runner.attempted
    for metric, value in values.items():
        shown = f"{value:14.6f}" if isinstance(value, float) else f"{value:7d}"
        print(f"{name} {metric:28s} {shown} {units[metric]}")
    print(f"{name} {'fail_frac':28s} {fail_frac:14.6f} ratio "
          f"({runner.failed} of {runner.attempted} jobs)")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {m: {"value": v, "unit": units[m]}
                        for m, v in values.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WHY, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "corrclass" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'corrclass'} is missing; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    names = list(workloads.WHY) if args.workload == "all" else [args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    spawner = Spawner(env)
    try:
        results = {n: run_workload(n, args.seed, args.seconds,
                                   bool(args.trace), spawner, workdir)
                   for n in names}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
