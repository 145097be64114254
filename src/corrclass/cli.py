"""Command-line front end: enumeration, classification, verification, export.

Exit codes: 0 success, 2 enumeration cap breached, 3 invariant failure or
bad input (usage errors included), 141 stdout closed by its reader (128 +
SIGPIPE, as a shell reports a process killed by that signal).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from itertools import chain

from . import catalogs as cat
from . import classify as cf
from . import ideals as idl
from . import venn
from .hasse import dot_poset
from .partitions import (PartitionLattice, bell_number, enumerate_partitions,
                         shape_string)
from .poset import CapExceeded, Poset

EXIT_OK = 0
EXIT_CAP = 2
EXIT_INVARIANT = 3
EXIT_PIPE = 141


def _read_context(path: str | None,
                  lattice: PartitionLattice) -> idl.PropertyContext:
    """A custom context file: one ideal per nonblank line."""
    if not path:
        raise ValueError("--context custom requires --context-file")
    ideals = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                ideals.append(idl.parse_ideal(lattice, line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return idl.PropertyContext(lattice, ideals)


def cmd_lattice(args: argparse.Namespace) -> int:
    lattice = enumerate_partitions(args.n)
    if args.level == "I":
        poset = lattice.poset
        labels = [str(p) for p in lattice.partitions]
    elif args.level == "II":
        ip = idl.enumerate_ideals(lattice)
        poset = ip.poset
        labels = [str(i) for i in ip.ideals]
    else:  # "III"
        context = idl.enumerate_ideals(lattice)
        filters = list(cf.enumerate_filters(context))
        poset = Poset.by_inclusion([f.members for f in filters])
        labels = [str(f) for f in filters]

    if args.output == "dot":
        print(dot_poset(poset, labels, name=f"level_{args.level}_n{args.n}"))
    elif args.output == "json":
        print(json.dumps({
            "n": args.n,
            "level": args.level,
            "nodes": [{"id": i, "label": t} for i, t in enumerate(labels)],
            "edges": [{"from": i, "to": j} for i, j in poset.covers()],
        }, ensure_ascii=False, indent=2))
    else:
        print(f"level {args.level} for n={args.n}: {len(labels)} nodes")
        for i, j in poset.covers():
            print(f"  {labels[i]}  <  {labels[j]}")
    return EXIT_OK


def _catalog_letters(catalog: cat.Catalog) -> str:
    lines = [f"{catalog.kind} classification, n={catalog.lattice.n}: "
             f"{len(catalog.classes)} classes"]
    for d in catalog.classes:
        shapes = sorted({p.shape() for p in d.types}, reverse=True)
        shown = ", ".join(shape_string(s) for s in shapes)
        lines.append(f"  {d.label}  ->  {{{shown}}}")
    return "\n".join(lines)


def cmd_classify(args: argparse.Namespace) -> int:
    lattice = enumerate_partitions(args.n)
    if args.context == "custom":
        catalog = cat.custom_catalog(_read_context(args.context_file, lattice))
    else:
        catalog = cat.catalog_for(args.context, lattice)
    if args.output == "json":
        sys.stdout.writelines(cat.catalog_json(catalog))
        sys.stdout.write("\n")
    elif args.output == "jsonl":
        empties = (cf.describe_class(f, ()) for f in catalog.empties)
        sys.stdout.writelines(
            cf.class_report_jsonl(chain(catalog.classes, empties)))
    elif args.letters:
        print(_catalog_letters(catalog))
    else:
        print(cat.catalog_text(catalog))
    if catalog.discrepancies:
        print("oracle cross-check FAILED", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _verify_lines(args: argparse.Namespace) -> tuple[list[str], bool]:
    lines: list[str] = []
    ok = True

    def record(name: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok = ok and passed
        suffix = f" ({detail})" if detail else ""
        lines.append(f"{'PASS' if passed else 'FAIL'} {name}{suffix}")

    if args.venn:
        rng = random.Random(args.seed)
        bad = 0
        for _ in range(args.families):
            fam = venn.random_family(rng)
            if not venn.check_lemma_upset(fam)["ok"]:
                bad += 1
        record("venn.random_families", bad == 0,
               f"{args.families} families, seed {args.seed}")
        generic_ok = True
        for p in venn.three_label_posets():
            fam = venn.generic_family(p)
            rep = venn.check_lemma_upset(fam)
            expected = set(p.upsets(include_empty=True))
            generic_ok = generic_ok and rep["ok"] and set(
                rep["nonempty_labels"]) == expected
        record("venn.generic_three_label", generic_ok)
        fam = venn.counterexample_family()
        rep = venn.check_lemma_upset(fam)
        record("venn.counterexample", rep["ok"] and 1 not in
               rep["nonempty_labels"] and fam.labels.is_up_closed(1))
        return lines, ok

    lattice = enumerate_partitions(args.n)
    # every built-in kind but "full" (added by --exhaustive below); only
    # the chains exist at n = 1
    contexts = [(kind, build(lattice))
                for kind, (build, reported) in cat.KINDS.items()
                if kind != "full" and args.context in ("all", kind)
                and (args.n >= 2 or reported == "chain")]
    universe = (idl.enumerate_ideals(lattice)
                if args.exhaustive or args.n <= idl.FULL_ENUMERATION_MAX_N
                else None)
    if args.exhaustive:
        contexts.append(("full", universe))
    for kind, context in contexts:
        if not cf.enumerable(context):
            raise CapExceeded(
                f"the {kind} context at n={args.n} has {len(context)} "
                f"ideals; exhaustive filter enumeration is limited to "
                f"contexts of size <= {cf.EXHAUSTIVE_CONTEXT_MAX}")

    record("partition_count", len(lattice) == bell_number(args.n),
           f"{len(lattice)} partitions")
    record("chains_part_prod", idl.chain_check_part_prod(lattice)["ok"])

    m = len(lattice)
    principals = [idl.principal_ideal(lattice, i).members for i in range(m)]
    meet = lattice.meet_index
    record("principal_ideal_meets", all(
        principals[i] & principals[j] == principals[meet(i, j)]
        for i in range(m) for j in range(i, m)))

    for kind, context in contexts:
        filters = list(cf.enumerate_filters(context))
        rep = cf.oracle_cross_check(context, filters)
        record(f"oracle.{kind}", rep["ok"],
               f"{rep['filters_checked']} filters")
        record(f"lemmas.{kind}", all(
            cf.lemma_principal_check(f, universe)["ok"] for f in filters))
    return lines, ok


def cmd_verify(args: argparse.Namespace) -> int:
    lines, ok = _verify_lines(args)  # a CapExceeded leaves stdout empty
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_INVARIANT


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse's own status 2 is EXIT_CAP
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVARIANT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="corrclass",
        description="Classification of multipartite partial-correlation "
                    "properties over partition lattices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_lat = sub.add_parser("lattice", help="render a level I/II/III poset")
    p_lat.add_argument("--n", type=int, required=True)
    p_lat.add_argument("--level", choices=["I", "II", "III"], default="I")
    p_lat.add_argument("--output", choices=["text", "json", "dot"],
                       default="text")
    p_lat.add_argument("--dot", dest="output", action="store_const",
                       const="dot")
    p_lat.set_defaults(func=cmd_lattice)

    p_cls = sub.add_parser("classify", help="generate a classification")
    p_cls.add_argument("--n", type=int, required=True)
    p_cls.add_argument("--context", default="full",
                       choices=[*cat.KINDS, "custom"])
    p_cls.add_argument("--context-file")
    p_cls.add_argument("--output", choices=["text", "json", "jsonl"],
                       default="text")
    p_cls.add_argument("--letters", action="store_true",
                       help="collapse partitions to orbit shapes (ab|c)")
    p_cls.set_defaults(func=cmd_classify)

    p_ver = sub.add_parser("verify", help="run the invariant suite")
    p_ver.add_argument("--n", type=int, default=3)
    p_ver.add_argument("--context", default="all",
                       choices=["all",
                                *(k for k in cat.KINDS if k != "full")])
    p_ver.add_argument("--exhaustive", action="store_true")
    p_ver.add_argument("--venn", action="store_true",
                       help="check the abstract subset-family lemmas instead")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--families", type=int, default=100)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (args.command == "classify" and args.context_file is not None
            and args.context != "custom"):
        parser.error("argument --context-file: only valid with "
                     "--context custom")
    if args.command == "verify" and args.families < 1:
        parser.error(f"argument --families: must be at least 1, "
                     f"got {args.families}")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader is gone: say nothing, and send the interpreter's
        # final flush of what is still buffered to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
