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

from . import catalogs as cat
from . import classify as cf
from . import ideals as idl
from . import venn
from .hasse import dot_poset
from .partitions import PartitionLattice, bell_number, enumerate_partitions
from .poset import CapExceeded, Poset

EXIT_OK = 0
EXIT_CAP = 2
EXIT_INVARIANT = 3
EXIT_PIPE = 141


def _read_context(path: str | None,
                  lattice: PartitionLattice) -> idl.PropertyContext:
    """A custom context file: one distinct ideal per nonblank line, in
    UTF-8 with an optional byte order mark."""
    if not path:
        raise ValueError("--context custom requires --context-file")
    first_line: dict[idl.Ideal, int] = {}  # each ideal and its line, in order
    # Undecodable bytes pass as lone surrogates, which valid UTF-8 never
    # yields, so each line is checked on its own and named in the error.
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"{path}:{lineno}: not valid UTF-8") from None
            if not line.strip():
                continue
            try:
                ideal = idl.parse_ideal(lattice, line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            seen = first_line.setdefault(ideal, lineno)
            if seen != lineno:
                raise ValueError(f"{path}:{lineno}: duplicate of line {seen}")
    if not first_line:
        raise ValueError(f"{path}: no ideals")
    return idl.PropertyContext(lattice, list(first_line))


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
        sys.stdout.writelines(cat.catalog_jsonl(catalog))
    elif args.letters:
        print(cat.catalog_letters(catalog))
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

    record("principal_ideal_meets", idl.principal_meet_check(lattice)["ok"])

    def lemma_checked(filters):
        """The filters, passed on after each one's lemma check."""
        nonlocal lemmas_ok
        for f in filters:
            lemmas_ok = (cf.lemma_principal_check(f, universe)["ok"]
                         and lemmas_ok)
            yield f

    for kind, context in contexts:
        lemmas_ok = True
        rep = cf.oracle_cross_check(
            context, lemma_checked(cf.enumerate_filters(context)))
        record(f"oracle.{kind}", rep["ok"],
               f"{rep['filters_checked']} filters")
        record(f"lemmas.{kind}", lemmas_ok)
    return lines, ok


def cmd_verify(args: argparse.Namespace) -> int:
    lines, ok = _verify_lines(args)  # a CapExceeded leaves stdout empty
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_INVARIANT


# Each verify flag's mode (whether it belongs to --venn) and its default,
# which main sets once it has checked the mode of the flags given.
VERIFY_FLAGS = {"n": (False, 3), "context": (False, "all"),
                "exhaustive": (False, False), "seed": (True, 0),
                "families": (True, 100)}


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
    p_ver.add_argument("--n", type=int)
    p_ver.add_argument("--context",
                       choices=["all",
                                *(k for k in cat.KINDS if k != "full")])
    p_ver.add_argument("--exhaustive", action="store_true", default=None)
    p_ver.add_argument("--venn", action="store_true",
                       help="check the abstract subset-family lemmas instead")
    p_ver.add_argument("--seed", type=int)
    p_ver.add_argument("--families", type=int)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (args.command == "classify" and args.context_file is not None
            and args.context != "custom"):
        parser.error("argument --context-file: only valid with "
                     "--context custom")
    if (args.command == "classify" and args.letters
            and args.output != "text"):
        parser.error(f"argument --letters: only valid with --output text, "
                     f"got --output {args.output}")
    if args.command == "verify":
        for name, (venn_mode, default) in VERIFY_FLAGS.items():
            if getattr(args, name) is None:
                setattr(args, name, default)
            elif venn_mode != args.venn:
                parser.error(f"argument --{name}: only valid with"
                             f"{'' if venn_mode else 'out'} --venn")
        if args.families < 1:
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
