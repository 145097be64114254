"""The outputs of every built-in context kind, pinned byte for byte.

Recorded before each kind's context builder and reported kind moved into
one table (``catalogs.KINDS``), together with the pins in
``test_signature.py``: catalog JSON at n = 1 and 2, the text, letters and
JSONL renderings at n = 4, a chain and a non-chain custom context, and the
usage errors that list the table's kinds.
"""

import hashlib

import pytest

from corrclass.catalogs import KINDS
from corrclass.cli import EXIT_INVARIANT, EXIT_OK, main

# `corrclass ARGS`: (exit code, sha256 of stdout, stderr).  The full n = 4
# text was re-pinned once, when its header stopped saying "0 empty labels"
# for labels that were never counted; it now says they were not counted.
KIND_OUTPUTS = {
    "classify --n 1 --context full --output json":
        (0, "a646c7acb13b54cecb234aa871ac55e2f781dd76fe2089fb07d9a095f52b0977",
         ""),
    "classify --n 2 --context full --output json":
        (0, "ba9a8d0ef9f3ecd8f972cb5655a5e6ca5246189e60808e218e30aec386f035d8",
         ""),
    "classify --n 1 --context k_part --output json":
        (0, "060bdc2a52811ea55e4c12b952fa958cd3bca33f8539b2b2a430023b4cf7b94d",
         ""),
    "classify --n 2 --context k_part --output json":
        (0, "aea3efac029d522e9526f778f6f817ed343fbeef08df7695a002cb62967e0263",
         ""),
    "classify --n 1 --context k_prod --output json":
        (0, "060bdc2a52811ea55e4c12b952fa958cd3bca33f8539b2b2a430023b4cf7b94d",
         ""),
    "classify --n 2 --context k_prod --output json":
        (0, "aea3efac029d522e9526f778f6f817ed343fbeef08df7695a002cb62967e0263",
         ""),
    "classify --n 1 --context atoms --output json":
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "error: atom context needs n >= 2\n"),
    "classify --n 2 --context atoms --output json":
        (0, "4ad30d4c89dbcda2f8fc5a3b77a5672063510f3c773d29a0b5787a51eebde162",
         ""),
    "classify --n 1 --context coatoms --output json":
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "error: coatom context needs n >= 2\n"),
    "classify --n 2 --context coatoms --output json":
        (0, "3f1f89c7e24486b43b339a575ee5535788fd64d68ad928e6156323e2c76bd463",
         ""),
    "classify --n 4 --context full --output text":
        (0, "045a37d1629741727459470a1ac6a553845548e80c77d7ac29048557808470e7",
         ""),
    "classify --n 4 --context full --letters":
        (0, "024d3f7b86b2f26e641bd00424336602dfaf715045f65697dc4e1d752411de56",
         ""),
    "classify --n 4 --context full --output jsonl":
        (0, "5f7d97739298472080282c9a98eeacbaa1e761a7fafd239c7997bd4c660fe747",
         ""),
    "classify --n 4 --context k_part --output text":
        (0, "55308a13d0b093c4fed9a099a15981e2af642634709092a517a77e1d9d39d521",
         ""),
    "classify --n 4 --context k_part --letters":
        (0, "63ea9e8aabf286a96719f1bb7d76506be41f4c4bb66d96e0edc4ddc850d586b9",
         ""),
    "classify --n 4 --context k_part --output jsonl":
        (0, "d6a990239809387742bfe3c1254fc69060925c6c95b5b65898026c908863bf7c",
         ""),
    "classify --n 4 --context k_prod --output text":
        (0, "d025f474b3335f73ebc050d4944f77e841a2d4102d46301cdea6b2e0aa56aa1f",
         ""),
    "classify --n 4 --context k_prod --letters":
        (0, "5032fec84c7350e539cf83c3f2de60e83b5a50dfca0098a3ec1aae96dd196e0d",
         ""),
    "classify --n 4 --context k_prod --output jsonl":
        (0, "bd82ea3f1bdd9481c839750890c1f29707a3b246ff8549dd38eb70ba553e3bc1",
         ""),
    "classify --n 4 --context atoms --output text":
        (0, "68b9c36262e9ee075fb86cbab1c7c4ac1ee7d1a21b233ebaa5d77b6fcfd150f6",
         ""),
    "classify --n 4 --context atoms --letters":
        (0, "9fb3f3c2dd4de6d9bd190cfdea2f400d171c3b3fa19e2fac2056f824699681e6",
         ""),
    "classify --n 4 --context atoms --output jsonl":
        (0, "f34a37d5acc19f69e1c09cd674b3c210f3465c74c7ba800db1fd772a1b19b9c3",
         ""),
    "classify --n 4 --context coatoms --output text":
        (0, "5d7dea5b9975ce11cf8e3016973fe820afd04b47aef58da33e4922c2068db111",
         ""),
    "classify --n 4 --context coatoms --letters":
        (0, "05e065ec40a8eec2d30a5525815ebb017799a295cd32359497a8feabfea2ac39",
         ""),
    "classify --n 4 --context coatoms --output jsonl":
        (0, "ae59b56c06a9edad9f12c895f9f2c4638129a9041d636fc66a8f4e7c7c836d21",
         ""),
}


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_pins_cover_every_kind():
    assert {args.split()[4] for args in KIND_OUTPUTS} == set(KINDS)


@pytest.mark.parametrize("args", sorted(KIND_OUTPUTS))
def test_kind_outputs_pinned(capsys, args):
    code, out, err = run(capsys, args.split())
    assert (code, digest(out), err) == KIND_OUTPUTS[args]


# A chain of three ideals reports kind "chain"; two incomparable ideals and
# their union report "custom".
CUSTOM_JSON = {
    "1|2|3\n12|3\n\n123\n":
        ("chain",
         "498345a2a2f6f372e192809a66ae462b6be1bf2508eb3a28b50c6c34b55449a3"),
    "12|3\n13|2\n12|3, 13|2\n":
        ("custom",
         "3ca85ee25084131810dbea357ed591c0c835b58390fad514fe597571bb6963cb"),
}


@pytest.mark.parametrize("text", sorted(CUSTOM_JSON))
def test_custom_json_pinned(capsys, tmp_path, text):
    path = tmp_path / "context.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, ["classify", "--n", "3", "--context",
                                  "custom", "--context-file", str(path),
                                  "--output", "json"])
    kind, sha = CUSTOM_JSON[text]
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith(f'{{\n  "kind": "{kind}",')
    assert digest(out) == sha


UNKNOWN_KIND_STDERR = {
    "classify": (
        "usage: corrclass classify [-h] --n N\n"
        "                          [--context {full,k_part,k_prod,atoms,"
        "coatoms,custom}]\n"
        "                          [--context-file CONTEXT_FILE]\n"
        "                          [--output {text,json,jsonl}] [--letters]\n"
        "corrclass classify: error: argument --context: invalid choice: "
        "'bogus' (choose from 'full', 'k_part', 'k_prod', 'atoms', "
        "'coatoms', 'custom')\n"),
    "verify": (
        "usage: corrclass verify [-h] [--n N]\n"
        "                        [--context {all,k_part,k_prod,atoms,"
        "coatoms}]\n"
        "                        [--exhaustive] [--venn] [--seed SEED]\n"
        "                        [--families FAMILIES]\n"
        "corrclass verify: error: argument --context: invalid choice: "
        "'bogus' (choose from 'all', 'k_part', 'k_prod', 'atoms', "
        "'coatoms')\n"),
}


@pytest.mark.parametrize("command", sorted(UNKNOWN_KIND_STDERR))
def test_unknown_kind_lists_the_kinds(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    code, out, err = run(capsys, [command, "--n", "3", "--context", "bogus"])
    assert (code, out) == (EXIT_INVARIANT, "")
    assert err == UNKNOWN_KIND_STDERR[command]
