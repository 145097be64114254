import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from corrclass import classify as cf
from corrclass import venn
from corrclass.cli import EXIT_CAP, EXIT_INVARIANT, EXIT_OK, EXIT_PIPE, main

SRC = Path(__file__).resolve().parents[1] / "src"
CLI_MAIN = "import sys; from corrclass.cli import main; sys.exit(main())"
from corrclass.hasse import dot_poset
from corrclass.poset import Poset


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLattice:
    def test_level_one_text(self, capsys):
        code, out, _ = run(capsys, "lattice", "--n", "2")
        assert code == EXIT_OK
        assert "2 nodes" in out
        assert "1|2  <  12" in out

    def test_level_one_dot(self, capsys):
        code, out, _ = run(capsys, "lattice", "--n", "3", "--output", "dot")
        assert code == EXIT_OK
        assert out.startswith("digraph")
        assert out.count("->") == 6  # 3 lower + 3 upper covers
        assert '"12|3"' in out

    def test_level_two_json(self, capsys):
        code, out, _ = run(capsys, "lattice", "--n", "3", "--level", "II",
                           "--output", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert len(doc["nodes"]) == 9
        assert doc["nodes"][0]["label"].startswith("↓{")

    def test_level_three_count(self, capsys):
        code, out, _ = run(capsys, "lattice", "--n", "3", "--level", "III",
                           "--output", "json")
        assert code == EXIT_OK
        assert len(json.loads(out)["nodes"]) == 20

    def test_level_two_cap(self, capsys):
        code, _, err = run(capsys, "lattice", "--n", "5", "--level", "II")
        assert code == EXIT_CAP
        assert "limited" in err

    def test_n_out_of_range(self, capsys):
        for command in ("lattice", "classify", "verify"):
            code, out, err = run(capsys, command, "--n", "9")
            assert code == EXIT_INVARIANT
            assert out == ""
            assert err == "error: n must be in 1..8, got 9\n"

    def test_max_n_removed(self, capsys):
        for command in ("lattice", "classify", "verify"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--n", "9", "--max-n", "9"])
            assert exc.value.code == EXIT_INVARIANT
            assert "unrecognized arguments: --max-n" in capsys.readouterr().err


class TestClassify:
    def test_unknown_context_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--n", "4", "--context", "bogus"])
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_INVARIANT
        assert captured.out == ""
        assert captured.err.startswith("usage: corrclass classify")
        assert "invalid choice: 'bogus'" in captured.err

    def test_chain_text(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "4",
                           "--context", "k_prod")
        assert code == EXIT_OK
        assert "4 classes" in out
        assert "ρ_abcd" in out

    def test_letters(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "4",
                           "--context", "k_prod", "--letters")
        assert code == EXIT_OK
        assert "{abcd}" in out
        assert "{ab|cd, ab|c|d}" in out

    def test_coatoms_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "4",
                           "--context", "coatoms", "--output", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["class_count"] == 14
        assert doc["empty_label_count"] == 113

    def test_full_jsonl(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "3",
                           "--output", "jsonl")
        assert code == EXIT_OK
        lines = [json.loads(line) for line in out.splitlines() if line]
        assert len(lines) == 20
        assert sum(1 for rec in lines if rec["exists"]) == 5

    def test_custom_context_file(self, capsys, tmp_path):
        path = tmp_path / "ctx.txt"
        path.write_text("12|34\n13|24\n", encoding="utf-8")
        code, out, _ = run(capsys, "classify", "--n", "4",
                           "--context", "custom",
                           "--context-file", str(path),
                           "--output", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["context_size"] == 2

    def test_custom_context_bad_line(self, capsys, tmp_path):
        path = tmp_path / "ctx.txt"
        path.write_text("12|34\n\n1x|34\n", encoding="utf-8")
        code, out, err = run(capsys, "classify", "--n", "4",
                             "--context", "custom",
                             "--context-file", str(path))
        assert code == EXIT_INVARIANT
        assert out == ""
        assert err.startswith(f"error: {path}:3: ")

    def test_custom_context_malformed_partition(self, capsys, tmp_path):
        # an empty block is not skipped: the line is not a partition of 1..3
        path = tmp_path / "ctx.txt"
        path.write_text("12|3\n{{1},{2},{3},{}}\n", encoding="utf-8")
        code, out, err = run(capsys, "classify", "--n", "3",
                             "--context", "custom",
                             "--context-file", str(path))
        assert code == EXIT_INVARIANT
        assert out == ""
        assert err == (f"error: {path}:2: cannot parse partition from"
                       f" '{{{{1}},{{2}},{{3}},{{}}}}'\n")

    @pytest.mark.parametrize("line,message", [
        ("12|3 {13|2}", "expected a comma-separated list of partitions,"
                        " got '12|3 {13|2}'"),
        ("1234", "label 4 outside 1..3"),
        ("12|3|3", "blocks are not disjoint"),
        # a label is read past leading zeros, and one of more digits than
        # n is refused before int() meets the interpreter's digit limit
        pytest.param("{{1,2},{3,0009}}", "label 9 outside 1..3",
                     id="zero_padded"),
        pytest.param("{{1,2},{3,10}}", "label 10 outside 1..3",
                     id="two_digits"),
        pytest.param("{{1,2},{3,000}}", "label 0 outside 1..3", id="zeros"),
        pytest.param("{{1,2},{3,%s9}}" % ("0" * 4999), "label 9 outside 1..3",
                     id="zero_padded_5000_digits"),
        pytest.param("{{1,2},{3,%s}}" % ("9" * 5000),
                     "label %s… (5000 digits) outside 1..3" % ("9" * 20),
                     id="label_of_5000_digits"),
    ])
    def test_custom_context_rejected_line(self, capsys, tmp_path, line,
                                          message):
        path = tmp_path / "ctx.txt"
        path.write_text(f"12|3\n{line}\n", encoding="utf-8")
        code, out, err = run(capsys, "classify", "--n", "3",
                             "--context", "custom",
                             "--context-file", str(path))
        assert code == EXIT_INVARIANT
        assert out == ""
        assert err == f"error: {path}:2: {message}\n"

    def test_custom_context_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "ctx.txt"
        path.write_bytes(b"12|3\n13|2\xff\n1|23\n")
        code, out, err = run(capsys, "classify", "--n", "3",
                             "--context", "custom",
                             "--context-file", str(path))
        assert code == EXIT_INVARIANT
        assert out == ""
        assert err == f"error: {path}:2: not valid UTF-8\n"

    def test_custom_context_byte_order_mark(self, capsys, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("12|3\n13|2\n", encoding="utf-8")
        marked = tmp_path / "marked.txt"
        marked.write_text("12|3\n13|2\n", encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        results = [run(capsys, "classify", "--n", "3", "--context", "custom",
                       "--context-file", str(path), "--output", "json")
                   for path in (plain, marked)]
        assert results[0] == results[1]
        assert results[1][0] == EXIT_OK

    def test_custom_context_duplicate_ideal(self, capsys, tmp_path):
        # line 3 names line 1's ideal by another generator list
        path = tmp_path / "ctx.txt"
        path.write_text("12|3\n13|2\n12|3, 1|2|3\n", encoding="utf-8")
        code, out, err = run(capsys, "classify", "--n", "3",
                             "--context", "custom",
                             "--context-file", str(path))
        assert code == EXIT_INVARIANT
        assert out == ""
        assert err == f"error: {path}:3: duplicate of line 1\n"

    def test_custom_context_without_ideals(self, capsys, tmp_path):
        path = tmp_path / "ctx.txt"
        path.write_text("\n  \n\n", encoding="utf-8")
        code, out, err = run(capsys, "classify", "--n", "3",
                             "--context", "custom",
                             "--context-file", str(path))
        assert code == EXIT_INVARIANT
        assert out == ""
        assert err == f"error: {path}: no ideals\n"

    def test_coatoms_n6_cap(self, capsys):
        code, out, err = run(capsys, "classify", "--n", "6",
                             "--context", "coatoms")
        assert code == EXIT_CAP
        assert out == ""
        assert err == ("cap exceeded: the context has 31 ideals; exhaustive"
                       " filter enumeration is limited to contexts of size"
                       " <= 21\n")

    def test_custom_without_file(self, capsys):
        code, _, err = run(capsys, "classify", "--n", "3",
                           "--context", "custom")
        assert code == EXIT_INVARIANT
        assert "--context-file" in err

    def test_file_without_custom_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--n", "3", "--context", "k_part",
                  "--context-file", str(tmp_path / "absent.txt")])
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_INVARIANT
        assert captured.out == ""
        assert captured.err.endswith(
            "error: argument --context-file: only valid with "
            "--context custom\n")

    @pytest.mark.parametrize("output", ["json", "jsonl"])
    def test_letters_with_machine_output_is_a_usage_error(self, capsys,
                                                          output):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--n", "3", "--context", "k_part",
                  "--output", output, "--letters"])
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_INVARIANT
        assert captured.out == ""
        assert captured.err.endswith(
            "error: argument --letters: only valid with --output text, "
            f"got --output {output}\n")

    def test_letters_with_text_output(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "3",
                           "--context", "k_part", "--output", "text",
                           "--letters")
        assert code == EXIT_OK
        assert out.startswith("chain classification, n=3: 3 classes\n")

    def test_closed_stdout_is_quiet(self):
        # the reader keeps 100 bytes of a 4.5 MB document and closes the pipe
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        with subprocess.Popen(
                [sys.executable, "-c", CLI_MAIN, "classify", "--n", "6",
                 "--context", "atoms", "--output", "json"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=env) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == EXIT_PIPE == 141
        assert err == b""


def test_cli_import_loads_no_dataclasses():
    # dataclasses imports inspect, which costs about half the import time;
    # string costs about 0.8 ms of every start
    probe = ("import sys, corrclass.cli; print(sorted("
             "{'dataclasses', 'inspect', 'string'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_python_m_corrclass_runs_main(capsys):
    code = main(["verify", "--n", "3"])
    expected = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "corrclass", "verify",
                           "--n", "3"], env=env, capture_output=True,
                          text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, expected, "")
    assert (code, expected.count("PASS")) == (EXIT_OK, 11)


class TestVerify:
    def test_default_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3")
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert "PASS partition_count" in out
        assert "PASS principal_ideal_meets" in out

    def test_exhaustive_n3(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--exhaustive")
        assert code == EXIT_OK
        assert "PASS oracle.full (20 filters)" in out

    def test_exhaustive_refused_large_n(self, capsys):
        # the full context has 346 ideals at n=4, and n=5 has no universe
        code, out, err = run(capsys, "verify", "--n", "4", "--exhaustive")
        assert code == EXIT_CAP
        assert out == ""
        assert err.startswith("cap exceeded: the full context at n=4 has 346")
        code, out, err = run(capsys, "verify", "--n", "5", "--exhaustive")
        assert code == EXIT_CAP
        assert out == ""
        assert err.startswith("cap exceeded: full ideal enumeration")

    def test_labels_streamed_not_held(self, capsys, monkeypatch):
        # count the live labels when the lemma reaches the 30 000th of the
        # 32 767 coatom labels at n = 5: only the catalog's 51 class
        # labels are Filters, not one per label
        def live_labels():
            return sum(isinstance(o, cf.Filter) for o in gc.get_objects())

        lemma = cf.lemma_principal_check
        calls = 0
        live = None

        def counting_lemma(split, universe=None):
            nonlocal calls, live
            calls += 1
            if calls == 30_000:
                live = live_labels()
            return lemma(split, universe)

        gc.collect()
        before = live_labels()  # what earlier tests still hold

        monkeypatch.setattr(cf, "lemma_principal_check", counting_lemma)
        code, out, _ = run(capsys, "verify", "--n", "5",
                           "--context", "coatoms")
        assert code == EXIT_OK
        assert "PASS oracle.coatoms (32767 filters)" in out.splitlines()
        assert "PASS lemmas.coatoms" in out.splitlines()
        assert calls == 32767
        assert live - before <= 51

    def test_context_cap_before_work(self, capsys):
        # coatoms at n=6 has 31 ideals: refused before any check runs
        code, out, err = run(capsys, "verify", "--n", "6")
        assert code == EXIT_CAP
        assert out == ""
        assert err == ("cap exceeded: the coatoms context at n=6 has 31"
                       " ideals; exhaustive filter enumeration is limited to"
                       " contexts of size <= 21\n")

    def test_cap_applies_to_selected_contexts(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "6", "--context", "k_part")
        assert code == EXIT_OK
        assert "PASS oracle.k_part (6 filters)" in out

    def test_single_context(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4",
                           "--context", "coatoms")
        assert code == EXIT_OK
        assert "PASS oracle.coatoms (127 filters)" in out
        assert "oracle.k_part" not in out

    @pytest.mark.parametrize("kind, error", [
        ("atoms", "atom context needs n >= 2"),
        ("coatoms", "coatom context needs n >= 2")])
    def test_named_context_is_built(self, capsys, kind, error):
        # as classify does, verify refuses a named kind that has no
        # context at n = 1; "all" skips those kinds there
        for command in ("classify", "verify"):
            code, out, err = run(capsys, command, "--n", "1",
                                 "--context", kind)
            assert code == EXIT_INVARIANT
            assert out == ""
            assert err == f"error: {error}\n"
        code, out, _ = run(capsys, "verify", "--n", "1")
        assert code == EXIT_OK
        assert "oracle.k_part" in out and kind not in out

    def test_venn_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--venn", "--seed", "5",
                           "--families", "30")
        assert code == EXIT_OK
        assert "PASS venn.random_families (30 families, seed 5)" in out
        assert "PASS venn.generic_three_label" in out
        assert "PASS venn.counterexample" in out

    def test_venn_failure_exits_invariant(self, capsys, monkeypatch):
        # one random family (the seventh check) reported not ok fails the
        # random-families line alone
        check = venn.check_lemma_upset
        calls = 0

        def one_bad(fam):
            nonlocal calls
            calls += 1
            report = check(fam)
            return {**report, "ok": False} if calls == 7 else report

        monkeypatch.setattr(venn, "check_lemma_upset", one_bad)
        code, out, _ = run(capsys, "verify", "--venn", "--families", "30")
        assert code == EXIT_INVARIANT
        assert out.splitlines() == [
            "FAIL venn.random_families (30 families, seed 0)",
            "PASS venn.generic_three_label",
            "PASS venn.counterexample",
        ]
        assert calls == 30 + 5 + 1

    @pytest.mark.parametrize("families", ["0", "-5"])
    def test_families_below_one_is_a_usage_error(self, capsys, families):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--venn", "--families", families])
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_INVARIANT
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: argument --families: must be at least 1, "
            f"got {families}\n")

    @pytest.mark.parametrize("argv, flag, mode", [
        (["--venn", "--n", "9", "--exhaustive"], "--n", "without"),
        (["--venn", "--context", "atoms"], "--context", "without"),
        (["--venn", "--exhaustive"], "--exhaustive", "without"),
        (["--n", "4", "--seed", "5"], "--seed", "with"),
        (["--families", "30"], "--families", "with")])
    def test_flag_of_the_other_mode_is_a_usage_error(self, capsys, argv,
                                                     flag, mode):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_INVARIANT
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: argument {flag}: only valid {mode} --venn\n")


class TestDot:
    def test_labels_escaped(self):
        p = Poset.from_pairs(2, [(0, 1)])
        out = dot_poset(p, ['a"b', "c"])
        assert '\\"' in out

    def test_label_arity(self):
        p = Poset.from_pairs(2, [(0, 1)])
        with pytest.raises(ValueError):
            dot_poset(p, ["only-one"])
