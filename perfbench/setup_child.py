"""Set-up of one workload, timed by the benchmark as a fresh process.

Usage::

    python3 perfbench/setup_child.py STEPS-JSON

starts from a bare interpreter, imports ``corrclass`` and builds, through
the public constructors, the lattices and property contexts the workload's
jobs use.  It decides no labels.  Steps are ``["context", n, kind]``,
``["universe", n, null]`` and ``["custom", n, path]``; each n's lattice is
built once.
"""

from __future__ import annotations

import json
import sys

import corrclass as cc

CONTEXTS = {
    "k_part": cc.k_partitionability_context,
    "k_prod": cc.k_producibility_context,
    "atoms": cc.atom_context,
    "coatoms": cc.coatom_context,
    "full": lambda lattice: cc.full_context(cc.enumerate_ideals(lattice)),
}


def main(steps: list[list]) -> None:
    lattices = {}
    for step, n, arg in steps:
        if n not in lattices:
            lattices[n] = cc.enumerate_partitions(n)
        lattice = lattices[n]
        if step == "context":
            CONTEXTS[arg](lattice)
        elif step == "universe":
            cc.enumerate_ideals(lattice)
        elif step == "custom":
            with open(arg, encoding="utf-8") as fh:
                cc.PropertyContext(lattice, [cc.parse_ideal(lattice, line)
                                             for line in fh if line.strip()])
        else:
            raise ValueError(f"unknown set-up step {step!r}")


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
