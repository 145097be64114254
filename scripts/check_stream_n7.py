"""Pin the streamed output of the largest listed catalog: atoms at n = 7.

Usage, from the root of a checkout::

    python scripts/check_stream_n7.py

Runs ``corrclass classify --n 7 --context atoms --output json`` and the
same with ``--output jsonl``, one child process each (2^21 - 1 labels;
441 MB and 653 MB of stdout).  Each child's stdout is hashed as it
arrives, so this script never holds it.  Checks each run's exit code,
stdout sha256, peak RSS (the child's own ``ru_maxrss``, from
``os.wait4``) and wall time; prints one line per run and exits 1 if any
check fails.  Stdlib only; pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CLI_MAIN = "import sys; from corrclass.cli import main; sys.exit(main())"
ARGS = ["classify", "--n", "7", "--context", "atoms", "--output"]
# sha256 of each output, recorded before the writers streamed
EXPECTED_SHA256 = {
    "json": "697b667232ee90a1f6960f96702d445de5deb9db99c0ae52f5f7d53691c48316",
    "jsonl": "0243feb51766f08f3a2112e7473ffd52ca11ed0bad02a90d339818e30c442b13",
}
MAX_RSS_MB = 64
MAX_WALL_S = 90
BLOCK = 1 << 20


def run(output: str) -> list[str]:
    """Run one output format; return the checks it fails."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    digest = hashlib.sha256()
    size = 0
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-c", CLI_MAIN, *ARGS, output],
                            stdout=subprocess.PIPE, env=env)
    with proc.stdout:
        while block := proc.stdout.read(BLOCK):
            digest.update(block)
            size += len(block)
    _, status, usage = os.wait4(proc.pid, 0)
    wall_s = time.monotonic() - t0
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    rss_mb = usage.ru_maxrss / 1024  # kilobytes on Linux
    print(f"--output {output}: exit {rc}, {size / 1e6:.1f} MB stdout, "
          f"sha256 {digest.hexdigest()[:16]}..., {wall_s:.1f} s, "
          f"peak RSS {rss_mb:.0f} MB")
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if digest.hexdigest() != EXPECTED_SHA256[output]:
        problems.append("stdout sha256 differs from the pinned one")
    if rss_mb > MAX_RSS_MB:
        problems.append(f"peak RSS {rss_mb:.0f} MB > {MAX_RSS_MB} MB")
    if wall_s > MAX_WALL_S:
        problems.append(f"wall time {wall_s:.1f} s > {MAX_WALL_S} s")
    return [f"--output {output}: {p}" for p in problems]


def main() -> int:
    problems = [p for output in EXPECTED_SHA256 for p in run(output)]
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
