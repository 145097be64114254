"""Command-line front end: enumeration, classification, verification, export.

Exit codes: 0 success, 2 enumeration cap breached, 3 invariant failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

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

LEVEL_II_MAX_N = 4
LEVEL_III_MAX_N = 3


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
    lattice = enumerate_partitions(args.n, max_n=args.max_n)
    if args.level == "I":
        poset = lattice.poset
        labels = [str(p) for p in lattice.partitions]
    elif args.level == "II":
        if args.n > LEVEL_II_MAX_N:
            print(f"level II rendering is limited to n <= {LEVEL_II_MAX_N}",
                  file=sys.stderr)
            return EXIT_CAP
        ip = idl.enumerate_ideals(lattice)
        poset = ip.poset
        labels = [str(i) for i in ip.ideals]
    elif args.level == "III":
        if args.n > LEVEL_III_MAX_N:
            print(f"level III rendering is limited to n <= {LEVEL_III_MAX_N}",
                  file=sys.stderr)
            return EXIT_CAP
        context = idl.full_context(idl.enumerate_ideals(lattice))
        filters = list(cf.enumerate_filters(context))
        poset = Poset.by_inclusion([f.members for f in filters])
        labels = [str(f) for f in filters]
    else:
        print(f"invalid level {args.level!r}", file=sys.stderr)
        return EXIT_INVARIANT

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
    lattice = enumerate_partitions(args.n, max_n=args.max_n)
    if args.context == "custom":
        catalog = cat.custom_catalog(_read_context(args.context_file, lattice))
    else:
        catalog = cat.catalog_for(args.context, args.n, lattice)
    if args.output == "json":
        print(cat.catalog_json(catalog))
    elif args.output == "jsonl":
        descriptors = catalog.classes + [cf.describe_empty(f)
                                         for f in catalog.empties]
        print(cf.class_report_jsonl(descriptors))
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

    lattice = enumerate_partitions(args.n, max_n=args.max_n)
    contexts = [("k_part", idl.k_partitionability_context(lattice)),
                ("k_prod", idl.k_producibility_context(lattice))]
    if args.n >= 2:
        contexts.append(("atoms", idl.atom_context(lattice)))
        contexts.append(("coatoms", idl.coatom_context(lattice)))
    if args.context != "all":
        contexts = [(k, c) for k, c in contexts if k == args.context]
    for kind, context in contexts:
        if len(context) > cf.EXHAUSTIVE_CONTEXT_MAX:
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

    universe = (idl.enumerate_ideals(lattice)
                if args.n <= idl.FULL_ENUMERATION_MAX_N else None)
    for kind, context in contexts:
        filters = list(cf.enumerate_filters(context))
        rep = cf.oracle_cross_check(context, filters)
        record(f"oracle.{kind}", rep["ok"],
               f"{rep['filters_checked']} filters")
        lemma_ok = all(cf.lemma_principal_check(f, universe)["ok"]
                       for f in filters)
        record(f"lemmas.{kind}", lemma_ok)

    if args.exhaustive:
        if args.n > LEVEL_III_MAX_N:
            record("oracle.full", False,
                   f"exhaustive run is limited to n <= {LEVEL_III_MAX_N}")
        else:
            context = idl.full_context(universe)
            filters = list(cf.enumerate_filters(context))
            rep = cf.oracle_cross_check(context, filters)
            record("oracle.full", rep["ok"],
                   f"{rep['filters_checked']} filters")
            lemma_ok = all(cf.lemma_principal_check(f, universe)["ok"]
                           for f in filters)
            record("lemmas.full", lemma_ok)
    return lines, ok


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        lines, ok = _verify_lines(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_lat.add_argument("--max-n", type=int, default=8)
    p_lat.set_defaults(func=cmd_lattice)

    p_cls = sub.add_parser("classify", help="generate a classification")
    p_cls.add_argument("--n", type=int, required=True)
    p_cls.add_argument("--context", default="full",
                       choices=["full", "k_part", "k_prod", "atoms",
                                "coatoms", "custom"])
    p_cls.add_argument("--context-file")
    p_cls.add_argument("--output", choices=["text", "json", "jsonl"],
                       default="text")
    p_cls.add_argument("--letters", action="store_true",
                       help="collapse partitions to orbit shapes (ab|c)")
    p_cls.add_argument("--max-n", type=int, default=8)
    p_cls.set_defaults(func=cmd_classify)

    p_ver = sub.add_parser("verify", help="run the invariant suite")
    p_ver.add_argument("--n", type=int, default=3)
    p_ver.add_argument("--context", default="all",
                       choices=["all", "k_part", "k_prod", "atoms",
                                "coatoms"])
    p_ver.add_argument("--exhaustive", action="store_true")
    p_ver.add_argument("--venn", action="store_true",
                       help="check the abstract subset-family lemmas instead")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--families", type=int, default=100)
    p_ver.add_argument("--max-n", type=int, default=8)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
