"""Per-layer spans for one CLI job, recorded from outside the package.

Usage::

    python3 perfbench/tracer.py OUT -- CLI-ARGS...

imports ``corrclass``, wraps the public functions listed in ``TARGETS`` with
timing spans in every package module that holds them, and runs
``corrclass.cli.main(CLI-ARGS)``, the code path of the ``corrclass`` command.
It writes ``OUT.json`` (span names, counters, import time, exit code) and
``OUT.spans`` (one record per span: parent id, name code, start, end) and
exits with the CLI's exit code.  ``load_profile`` turns the two files into
per-layer self times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

PACKAGE = "corrclass"


def _context_counts(args, result):
    m = len(args[0])
    return {"ideals.context_size": m, "ideals.containment_tests": m * m}


def _universe_counts(args, result):
    m = len(result)
    return {"ideals.universe_size": m, "ideals.containment_tests": m * m}


def _nonempty_count(args, result):
    return {"classify.exists.nonempty": int(bool(result.exists))}


def _membership_count(args, result):
    context = args[0].context
    return {"classify.membership_tests": len(context.lattice) * len(context)}


def _json_bytes(args, result):
    return {"catalogs.json_bytes": len(result.encode("utf-8"))}


# (span name, module, attribute or Class.method, counter hook).  A span
# counts its calls as "<span>.calls"; a generator span times each resume and
# counts the items it yields as "<span>.emitted".
TARGETS = [
    ("partitions.build", "partitions", "enumerate_partitions", None),
    ("partitions.meet", "partitions", "PartitionLattice.meet_index", None),
    ("partitions.meet", "partitions", "PartitionLattice.join_index", None),
    ("poset.upsets", "classify", "enumerate_filters", None),
    ("poset.covers", "poset", "Poset.covers", None),
    ("hasse.dot", "hasse", "dot_poset", None),
    ("ideals.context", "ideals", "PropertyContext.__init__", _context_counts),
    ("ideals.enumerate", "ideals", "enumerate_ideals", _universe_counts),
    ("ideals.parse", "ideals", "parse_ideal", None),
    ("ideals.principal", "ideals", "principal_ideal", None),
    ("classify.exists", "classify", "class_exists", _nonempty_count),
    ("classify.oracle", "classify", "type_set", _membership_count),
    ("classify.describe", "classify", "describe_class", None),
    ("classify.cross_check", "classify", "oracle_cross_check", None),
    ("classify.equal", "classify", "classes_equal", None),
    ("classify.lemma", "classify", "lemma_principal_check", None),
    ("venn.check", "venn", "check_lemma_upset", None),
    ("catalogs.catalog", "catalogs", "catalog_for", None),
    ("catalogs.catalog", "catalogs", "custom_catalog", None),
    ("catalogs.render", "catalogs", "catalog_json", _json_bytes),
    ("catalogs.render", "catalogs", "catalog_text", None),
]


class Tracer:
    """Spans kept in flat arrays; a span's id is its index."""

    def __init__(self):
        self.names: list[str] = []
        self.parent = array("i")
        self.code = array("H")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = {}

    def wrap(self, name: str, fn, hook=None):
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        parent, codes, starts, ends = (self.parent, self.code, self.start,
                                       self.end)
        stack, counters = self.stack, self.counters
        clock = time.perf_counter
        calls = name + ".calls"

        def bump(key: str, by: int = 1) -> None:
            counters[key] = counters.get(key, 0) + by

        if inspect.isgeneratorfunction(fn):
            emitted = name + ".emitted"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                bump(calls)
                it = fn(*args, **kwargs)
                while True:
                    sid = len(codes)
                    parent.append(stack[-1])
                    codes.append(code)
                    ends.append(0.0)
                    stack.append(sid)
                    starts.append(clock())
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        ends[sid] = clock()
                        stack.pop()
                    bump(emitted)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bump(calls)
            sid = len(codes)
            parent.append(stack[-1])
            codes.append(code)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if hook is not None:
                try:
                    extra = hook(args, result)
                except (AttributeError, TypeError):
                    bump("trace.hook_errors")
                else:
                    for key, value in extra.items():
                        bump(key, value)
            return result

        return wrapper

    def dump(self, out: str, t_imported: float, exit_code) -> None:
        meta = {"names": self.names, "counters": self.counters,
                "t_imported": t_imported, "spans": len(self.code),
                "exit": exit_code}
        with open(out + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        with open(out + ".spans", "wb") as fh:
            for arr in (self.parent, self.code, self.start, self.end):
                arr.tofile(fh)


def install(tracer: Tracer, targets=TARGETS) -> list[str]:
    """Wrap each target wherever the package holds it; return what was wrapped.

    A target the package no longer has is skipped, so its span is absent.
    """
    installed = []
    for name, module_name, attr, hook in targets:
        try:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ImportError:
            continue
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            fn = vars(cls).get(meth) if isinstance(cls, type) else None
            if callable(fn):
                setattr(cls, meth, tracer.wrap(name, fn, hook))
                installed.append(f"{module.__name__}.{attr}")
            continue
        fn = getattr(module, attr, None)
        if not callable(fn):
            continue
        wrapped = tracer.wrap(name, fn, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
                    installed.append(f"{mod_name}.{key}")
    return installed


def load_profile(out: str) -> dict:
    """Self time per span name, time under top-level spans, and counters.

    A span's self time is its duration minus the durations of its direct
    children, found through their parent ids.
    """
    with open(out + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    count = meta["spans"]
    with open(out + ".spans", "rb") as fh:
        arrays = []
        for typecode in "iHdd":
            arr = array(typecode)
            arr.fromfile(fh, count)
            arrays.append(arr)
    parent, code, start, end = arrays
    names = meta["names"]
    self_s = dict.fromkeys(names, 0.0)
    top_s = 0.0
    for sid in range(count):
        p = parent[sid]
        if not -1 <= p < sid:
            raise ValueError(f"span {sid} has parent {p}")
        dur = end[sid] - start[sid]
        self_s[names[code[sid]]] += dur
        if p < 0:
            top_s += dur
        else:
            self_s[names[code[p]]] -= dur
    return {"self_s": self_s, "top_s": top_s, "spans": count,
            "counters": meta["counters"], "t_imported": meta["t_imported"],
            "exit": meta["exit"]}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py OUT -- CLI-ARGS...", file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    # Imported here: run.py imports this module for load_profile and
    # must not load the package itself.
    import corrclass.cli
    t_imported = time.time()
    tracer = Tracer()
    install(tracer)
    try:
        code = corrclass.cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()
    tracer.dump(out, t_imported, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
