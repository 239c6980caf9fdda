import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from math import comb
from pathlib import Path
from time import perf_counter

import pytest

import loewylab
import loewylab.chardim
import loewylab.checks
import loewylab.cli
import loewylab.ext
import loewylab.loewy
import loewylab.projective
from loewylab.cli import (
    BLOCK_BUDGET,
    DIGIT_BUDGET,
    DIM_BUDGET,
    EXT_BUDGET,
    LAYER_BUDGET,
    PAIR_BUDGET,
    TRUNCATE_AT,
    VERIFY_BUDGET,
    WEIGHT_BUDGET,
    _dump_json,
    main,
)
from loewylab.block import _PRIME_TEST_BOUND, is_odd_prime, make_context
from loewylab.loewy import verma_blocks, verma_rows
from loewylab.projective import CONDITIONAL_FLAG_KEY

import cli_fixtures
from cli_fixtures import (
    GRID_FIXTURE,
    LARGE_FIXTURE,
    assert_digests_match,
    cli_grid,
    cli_large,
    grid_digest,
    mismatches,
)


def run_cli(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    code = exc.value.code
    return (code if code is not None else 0), out, err


def run_json(argv, capsys):
    code, out, err = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0 and err == ""
    return json.loads(out)


BLOCK_2_5_TEXT = """\
singular block for SL(3), p = 5: 3 restricted weights
  i=0: lambda=[0,4]  mu=[0,-1]  lambda+rho=[1,5]
  i=1: lambda=[3,0]  mu=[-2,0]  lambda+rho=[4,1]
  i=2: lambda=[4,3]  mu=[-1,-2]  lambda+rho=[5,4]
"""


def test_block_text_frozen(capsys):
    assert run_cli(["block", "--n", "2", "--p", "5"], capsys) == (0, BLOCK_2_5_TEXT, "")


def test_invalid_inputs_exit_2(capsys):
    for argv in [
        ["block", "--n", "2", "--p", "3"],
        ["block", "--n", "4", "--p", "5"],
        ["block", "--n", "2", "--p", "4"],
        ["block", "--n", "0", "--p", "5"],
        ["verma", "--n", "2", "--p", "5", "--i", "5"],
        ["verma", "--n", "2", "--p", "5", "--i", "1", "--nu", "1"],
        ["verma", "--n", "2", "--p", "5", "--i", "1", "--nu", "1,x"],
        ["verma", "--n", "2", "--p", "5", "--i", "1", "--eps", "1,0"],
        ["ext", "--n", "2", "--p", "5", "--nu", "garbage"],
        ["ext", "--n", "2", "--p", "5", "--eps", "1,0,0", "--format", "json"],
    ]:
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert err.startswith("error: "), argv
        assert out == "", argv
    # The Ext^1 kind table is untwisted, so a twist without --i is refused.
    code, out, err = run_cli(["ext", "--n", "2", "--p", "5", "--nu", "1,0"], capsys)
    assert code == 2 and "--nu" in err and "--eps" in err and "--i" in err


def test_argparse_failures_exit_2(capsys):
    assert run_cli([], capsys)[0] == 2
    assert run_cli(["nope", "--n", "2", "--p", "5"], capsys)[0] == 2
    assert run_cli(["block", "--p", "5"], capsys)[0] == 2
    code, out, err = run_cli(
        ["verma", "--n", "2", "--p", "5", "--i", "1", "--nu", "1,0", "--eps", "1,0,0"],
        capsys,
    )
    assert code == 2


USAGE = "usage: loewylab [-h] {block,verma,verma-dual,proj,ext,dim,jantzen,verify} ...\n"

HELP_TEXT = USAGE + """
Exact invariants of the singular block of G1T-modules for SL(n+1).

positional arguments:
  {block,verma,verma-dual,proj,ext,dim,jantzen,verify}
    block               the block's weight table
    verma               radical layers of a baby Verma module
    verma-dual          radical layers of the dual baby Verma
    proj                radical layers of a projective cover (conditional)
    ext                 Ext^1 table, or one simple's Ext neighbourhood
    dim                 dimensions of simples and parabolic covers
    jantzen             witness certificates for block simplicity
    verify              machine-check every library invariant at (n, p)

options:
  -h, --help            show this help message and exit
"""

VERMA_HELP_TEXT = """\
usage: loewylab verma [-h] --n N --p P [--nu NU | --eps EPS] [--format {text,json}] [--full] --i I

options:
  -h, --help            show this help message and exit
  --n N                 rank; the group is SL(n+1)
  --p P                 odd prime not dividing n+1
  --nu NU               twist in fundamental coordinates, n comma-separated ints (default 0)
  --eps EPS             twist in eps coefficients, n+1 comma-separated ints
  --format {text,json}
  --full                never truncate long listings
  --i I                 block index in [0, n]
"""


@pytest.mark.parametrize("argv, expected", [
    ([], (2, "", USAGE + "loewylab: error: the following arguments are required: command\n")),
    (["nope"], (2, "", USAGE + (
        "loewylab: error: argument command: invalid choice: 'nope' (choose from 'block', "
        "'verma', 'verma-dual', 'proj', 'ext', 'dim', 'jantzen', 'verify')\n"))),
    (["-h"], (0, HELP_TEXT, "")),
    (["verma", "-h"], (0, VERMA_HELP_TEXT, "")),
    (["block", "--p", "5"], (2, "", (
        "usage: loewylab block [-h] --n N --p P [--format {text,json}]\n"
        "loewylab block: error: the following arguments are required: --n\n"))),
    (["verma", "--n", "2", "--p", "5", "--i", "1", "--bogus"],
     (2, "", USAGE + "loewylab: error: unrecognized arguments: --bogus\n")),
])
def test_parser_messages_frozen(argv, expected, capsys, monkeypatch):
    # Argparse alone writes help, usage and argument errors, with every
    # subparser built.
    monkeypatch.setenv("COLUMNS", "100")
    assert run_cli(argv, capsys) == expected


COMMANDS = ["block", "verma", "verma-dual", "proj", "ext", "dim", "jantzen", "verify"]


def test_main_builds_every_subparser_or_none(capsys, monkeypatch):
    # A well-formed command line is parsed without argparse; any other gets
    # the parser of all eight subcommands.
    built, parsers = [], []
    add_parser = argparse._SubParsersAction.add_parser
    init = argparse.ArgumentParser.__init__

    def recording(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    def counting(self, *args, **kwargs):
        parsers.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    # main(None) reads sys.argv[1:] itself.
    monkeypatch.setattr(sys, "argv", ["loewylab", "block", "--n", "2", "--p", "5"])
    assert run_cli(None, capsys) == (0, BLOCK_2_5_TEXT, "")
    assert built == [] and parsers == []
    assert run_cli(["nope"], capsys)[0] == 2
    assert built == COMMANDS and len(parsers) == 1 + len(COMMANDS)


def flag_pairs(argv: list[str]) -> list[list[str]]:
    """The flags after argv[0], each with its value when it takes one."""
    pairs = []
    for arg in argv[1:]:
        if arg.startswith("--"):
            pairs.append([arg])
        else:
            pairs[-1].append(arg)
    return pairs


def plain_argvs():
    """Well-formed command lines: the grid's, each also with every flag
    written `--flag=value`, values after `=` that are empty or start with
    "-", and each subcommand with all its flags given, in every order."""
    for argv in cli_grid():
        yield argv
        yield argv[:1] + ["=".join(pair) for pair in flag_pairs(argv)]
    base = ["verma", "--n", "2", "--p", "5", "--i", "1"]
    yield from [
        base + ["--nu=-1,0"], base + ["--eps=-3,0,-1"], base + ["--nu=-h"], base + ["--nu="],
        ["verma", "--n=-1", "--p=-5", "--i=-2"], base + ["--eps=", "--full"],
        ["ext", "--n", "2", "--p", "5", "--nu=a=b", "--i=1"],
    ]
    full = {
        "block": [], "dim": [], "verify": [],
        "jantzen": ["--i", "2", "--full"],
        "ext": ["--i", "1", "--eps=0,0,-1", "--full"],
    }
    for command in ("verma", "verma-dual", "proj"):
        full[command] = ["--i", "1", "--nu", "1,0", "--full"]
    for command, rest in full.items():
        pairs = flag_pairs([command, "--n", "2", "--p", "5", "--format", "json", *rest])
        for order in itertools.permutations(pairs):
            yield [command, *[arg for pair in order for arg in pair]]


def deferred_argvs():
    """Command lines the fast path leaves to argparse: help, abbreviations,
    repeats, values that start with "-" after a space or "--" after `=`,
    `--`, unknown or foreign flags, bad ints and choices, exclusive flags
    together, missing flags or values, stray positionals.  Argparse accepts
    some of them."""
    base = ["verma", "--n", "2", "--p", "5", "--i", "1"]
    for k in range(len(base) + 1):
        yield base[:k] + ["-h"] + base[k:]
        yield base[:k] + ["--"] + base[k:]
    yield from [
        [], ["nope"], ["-h"], ["--help"], ["verma"], base + ["--help"], base + ["--form", "json"],
        base + ["--fu"], base + ["--e", "1,0,0"], base + ["--n", "3"], base + ["--full", "--full"],
        base + ["--full=1"], base + ["--nu", "1,0", "--eps", "1,0,0"], base + ["--eps=1,0,0", "--nu=1,0"],
        base[:5], ["verma", "--n", "-3", "--p", "5", "--i", "1"], ["verma", "--n", "1", "--p", "5",
        "--i", "0", "--nu", "-1"], base + ["--nu", "-h"], base + ["--nu", "--"], base + ["--n=-1"],
        ["verma", "--n", "x", "--p", "5", "--i", "1"], ["verma", "--n", "2.0", "--p", "5", "--i", "1"],
        ["verma", "--n=", "--p", "5", "--i", "1"], base + ["--format", "xml"], base + ["--format=JSON"],
        base + ["--format="], base + ["extra"], base[:1] + ["2"] + base[1:], base + ["--bogus"],
        base + ["-n", "2"], base + ["--nu"], base + ["--nu=1", "--nu=1"], base + ["--nu=--"],
        base + ["--nu=--1"],
        ["block", "--n", "2", "--p", "5", "--i", "1"], ["block", "--n", "2", "--p", "5", "--full"],
        ["jantzen", "--n", "2", "--p", "5", "--nu", "1,0"], ["ext", "--n", "2"],
    ]


def test_plain_parse_matches_argparse(capsys):
    # On a well-formed command line the fast path returns exactly the
    # namespace argparse parses; on any other it returns None.
    commands = loewylab.cli._commands()
    parser = loewylab.cli._build_parser(commands)
    plain = list(plain_argvs())
    assert len(plain) == 2 * len(json.loads(GRID_FIXTURE.read_text())) + 7 + 3 * 3 * 2 + 5 * 4 * 3 * 2 + 4 * 720
    for argv in plain:
        args = loewylab.cli._parse_plain(argv, commands)
        assert args is not None, argv
        assert vars(args) == vars(parser.parse_args(argv)), argv
    for argv in deferred_argvs():
        assert loewylab.cli._parse_plain(argv, commands) is None, argv
    assert capsys.readouterr() == ("", "")


def test_every_subcommand_declares_its_budgets():
    # Each subcommand's values in the one table hold its up-front refusals:
    # a nonempty tuple of rows (size, budget, message) whose budgets are ints
    # and whose sizes are ints at n = 1..3 for every index it takes.  The
    # two Verma listings share one row.
    commands = loewylab.cli._commands()
    assert list(commands) == COMMANDS
    assert commands["verma"][2]["budgets"] is commands["verma-dual"][2]["budgets"]
    for command, (_, flags, values) in commands.items():
        budgets = values["budgets"]
        assert type(budgets) is tuple and budgets, command
        required = {flag[0]: flag[2] for flag in flags}
        for size_of, budget, message in budgets:
            assert type(budget) is int and type(message) is str, command
            for n in (1, 2, 3):
                indices = [] if required.get("i", False) else [None]
                indices += range(n + 1) if "i" in required else []
                for i in indices:
                    assert type(size_of(n, 5, i)) is int, (command, n, i)


def test_plain_command_line_loads_no_argparse_machinery():
    # Without site (-S), nothing but the library decides what a run loads:
    # a well-formed command line constructs no ArgumentParser, so argparse
    # never imports `locale`; a misspelt flag builds them and does.
    script = """if True:
        import argparse, contextlib, io, sys
        import loewylab.cli
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        argparse.ArgumentParser.__init__ = counting

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    loewylab.cli.main(list(argv))
                except SystemExit as stop:
                    code = stop.code
            return code, len(built), "locale" in sys.modules

        before = "locale" in sys.modules
        plain = run("verma", "--n", "3", "--p", "5", "--i", "1", "--nu=1,0,2", "--format", "json")
        deferred = run("verma", "--n", "3", "--p", "5", "--i", "1", "--form", "json")
        print(before, plain, deferred)
    """
    env = {**os.environ, "PYTHONPATH": str(Path(loewylab.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True,
        timeout=60,
    ).stdout
    assert out == f"False (0, 0, False) (0, {1 + len(COMMANDS)}, True)\n"


def test_plain_command_line_imports_no_argparse():
    # Without site (-S), nothing but the library decides what a run imports:
    # a well-formed command line leaves argparse and its gettext unimported,
    # and a misspelt flag still exits 2 through argparse's usage error.
    script = """if True:
        import contextlib, io, sys
        import loewylab.cli

        def run(*argv):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    loewylab.cli.main(list(argv))
                except SystemExit as stop:
                    code = stop.code
            loaded = [name for name in ("argparse", "gettext") if name in sys.modules]
            return code, loaded, "error: unrecognized arguments: --fromat" in err.getvalue()

        plain = run("verma", "--n", "3", "--p", "5", "--i", "1", "--nu=1,0,2", "--format", "json")
        misspelt = run("verma", "--n", "3", "--p", "5", "--i", "1", "--fromat", "json")
        print(plain, misspelt)
    """
    env = {**os.environ, "PYTHONPATH": str(Path(loewylab.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True,
        timeout=60,
    ).stdout
    assert out == "(0, [], False) (2, ['argparse', 'gettext'], True)\n"


def test_json_reruns_are_byte_identical(capsys):
    argv = ["verma", "--n", "3", "--p", "5", "--i", "2", "--format", "json"]
    code, first, _ = run_cli(argv, capsys)
    assert code == 0
    code, second, _ = run_cli(argv, capsys)
    assert code == 0
    assert first == second


def test_verma_json_schema_and_frozen_layers(capsys):
    payload = run_json(["verma", "--n", "2", "--p", "5", "--i", "1"], capsys)
    assert set(payload) == {"n", "p", "object", "layers", CONDITIONAL_FLAG_KEY}
    assert payload["n"] == 2 and payload["p"] == 5
    assert payload["object"] == "Zhat(i=1, nu=[0,0])"
    assert payload[CONDITIONAL_FLAG_KEY] is False
    assert payload["layers"] == [
        {"j": 0, "factors": [{"i": 1, "mult": 1, "nu": [0, 0]}]},
        {
            "j": 1,
            "factors": [
                {"i": 0, "mult": 1, "nu": [-1, 0]},
                {"i": 2, "mult": 1, "nu": [0, -1]},
            ],
        },
        {"j": 2, "factors": [{"i": 1, "mult": 1, "nu": [-1, -1]}]},
    ]


PROJ_2_5_1_TEXT = f"""\
Qhat(i=1, nu=[0,0]) radical layers, n=2, p=5
note: {CONDITIONAL_FLAG_KEY} = true
  rad_0 (1): (1; [0,0])
  rad_1 (6): (0; [-1,0])  (0; [0,1])  (0; [1,-1])  (2; [-1,1])  (2; [0,-1])  (2; [1,0])
  rad_2 (10): (1; [-2,1])  (1; [-1,-1])  (1; [-1,2])  4*(1; [0,0])  (1; [1,-2])  (1; [1,1])  \
(1; [2,-1])
  rad_3 (6): (0; [-1,0])  (0; [0,1])  (0; [1,-1])  (2; [-1,1])  (2; [0,-1])  (2; [1,0])
  rad_4 (1): (1; [0,0])
"""


def test_layer_commands_text_head_frozen(capsys):
    expected = {
        "verma": ["Zhat(i=1, nu=[0,0]) radical layers, n=2, p=5", "  rad_0 (1): (1; [0,0])"],
        "verma-dual": [
            "Zhat_dual(i=1, nu=[0,0]) radical layers, n=2, p=5",
            "  rad_0 (1): (1; [-1,-1])",
        ],
    }
    for command, head in expected.items():
        code, out, err = run_cli([command, "--n", "2", "--p", "5", "--i", "1"], capsys)
        assert code == 0 and err == ""
        assert out.splitlines()[: len(head)] == head
    # The whole cover listing: multiplicity prefix and conditional note.
    argv = ["proj", "--n", "2", "--p", "5", "--i", "1"]
    assert run_cli(argv, capsys) == (0, PROJ_2_5_1_TEXT, "")


def test_help_lists_subcommands(capsys):
    code, out, err = run_cli(["--help"], capsys)
    assert code == 0
    assert re.search(r"\{([^}]*)\}", out).group(1) == (
        "block,verma,verma-dual,proj,ext,dim,jantzen,verify"
    )


def test_verma_dual_reverses_verma(capsys):
    verma = run_json(["verma", "--n", "2", "--p", "5", "--i", "1"], capsys)
    dual = run_json(["verma-dual", "--n", "2", "--p", "5", "--i", "1"], capsys)
    assert dual[CONDITIONAL_FLAG_KEY] is False
    n = verma["n"]
    for j in range(n + 1):
        assert dual["layers"][j]["factors"] == verma["layers"][n - j]["factors"]


def test_proj_is_conditional(capsys):
    payload = run_json(["proj", "--n", "1", "--p", "5", "--i", "0"], capsys)
    assert payload[CONDITIONAL_FLAG_KEY] is True
    assert payload["object"] == "Qhat(i=0, nu=[0])"
    assert [len(layer["factors"]) for layer in payload["layers"]] == [1, 2, 1]
    code, out, _ = run_cli(["proj", "--n", "1", "--p", "5", "--i", "0"], capsys)
    assert code == 0
    assert f"note: {CONDITIONAL_FLAG_KEY} = true" in out


def test_twist_flags_agree(capsys):
    base = ["verma", "--n", "2", "--p", "5", "--i", "1", "--format", "json"]
    code, via_nu, _ = run_cli(base + ["--nu", "1,0"], capsys)
    assert code == 0
    code, via_eps, _ = run_cli(base + ["--eps", "1,0,0"], capsys)
    assert code == 0
    assert via_nu == via_eps


def test_twist_values_may_carry_whitespace(capsys):
    # Whitespace around a comma-separated twist coordinate changes nothing,
    # given after "=" or as the next argument; an empty coordinate is still
    # refused, its message quoting the value as given.
    for command in ("verma", "ext"):
        base = [command, "--n", "2", "--p", "5", "--i", "1"]
        for fmt in ([], ["--format", "json"]):
            plain = run_cli(base + ["--nu=1,0"] + fmt, capsys)
            assert plain[0] == 0 and plain[2] == ""
            for spaced in (["--nu= 1, 0"], ["--nu", " 1, 0"], ["--nu=\t1,0\n"],
                           ["--eps=1 ,0,0 "], ["--eps", " 1,0 ,0"]):
                assert run_cli(base + spaced + fmt, capsys) == plain, spaced
        for flag, value, message in [
            ("nu", " ,1", "--nu must be comma-separated integers (got ' ,1')"),
            ("eps", "1, ,0", "--eps must be comma-separated integers (got '1, ,0')"),
            ("nu", "1 0", "--nu must be comma-separated integers (got '1 0')"),
            ("eps", "1,0,0,", "--eps must be comma-separated integers (got '1,0,0,')"),
            ("nu", " 1", "--nu needs exactly 2 comma-separated integers (got 1)"),
        ]:
            assert run_cli(base + [f"--{flag}={value}"], capsys) == (2, "", f"error: {message}\n")


def test_ext_table_json(capsys):
    payload = run_json(["ext", "--n", "2", "--p", "5"], capsys)
    assert payload["object"] == "ext-table"
    assert payload["kinds"] == [
        ["zero", "dual", "zero"],
        ["standard", "zero", "dual"],
        ["zero", "standard", "zero"],
    ]


def test_ext_single_index_json(capsys):
    payload = run_json(["ext", "--n", "2", "--p", "5", "--i", "0"], capsys)
    assert payload["kinds"] == ["zero", "dual", "zero"]
    assert payload["rad1_cover"] == [
        {"i": 1, "mult": 1, "nu": [-1, 1]},
        {"i": 1, "mult": 1, "nu": [0, -1]},
        {"i": 1, "mult": 1, "nu": [1, 0]},
    ]


@pytest.mark.parametrize(
    ("argv", "checked_indices"),
    [
        (["ext", "--n", "20", "--p", "5", "--format", "json"], list(range(21))),
        (["ext", "--n", "20", "--p", "5", "--i", "3"], [3]),
    ],
    ids=["table", "one-index"],
)
def test_ext_checks_each_block_index_once(argv, checked_indices, capsys, monkeypatch):
    # The table checks each of its n + 1 row indices once, and `--i` its one
    # index, rather than both indices of every one of the (n+1)^2 entries.
    checked = []
    check = loewylab.ext.check_index

    def counting(n, i):
        checked.append(i)
        check(n, i)

    monkeypatch.setattr(loewylab.ext, "check_index", counting)
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    assert checked == checked_indices


EXT_2_5_1_NU_TEXT = """\
ext(i=1, nu=[1,0]), n=2, p=5
  Ext^1 kind toward each j: j=0:standard  j=1:zero  j=2:dual
  Ext^1-neighbour labels (= rad_1 of the projective cover, 6 labels):
    (0; [0,0])  (0; [1,1])  (0; [2,-1])  (2; [0,1])  (2; [1,-1])  (2; [2,0])
"""


def test_ext_single_index_text_frozen(capsys):
    argv = ["ext", "--n", "2", "--p", "5", "--i", "1", "--nu", "1,0"]
    assert run_cli(argv, capsys) == (0, EXT_2_5_1_NU_TEXT, "")


# sha256 of the whole stdout of `verma --n 10 --p 7 --i 5` (29783 bytes).
VERMA_10_7_5_SHA256 = "889272ce93946738ecab2b7b96eb507af3f61ff88eb160e411056d18ee2cf3de"


def test_text_truncation_and_full(capsys):
    # A layer listing: rad_5 of the Verma at n=10 holds C(10,5) = 252 labels.
    argv = ["verma", "--n", "10", "--p", "7", "--i", "5"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == VERMA_10_7_5_SHA256
    rad5 = out.splitlines()[6]
    assert rad5.startswith("  rad_5 (252): (0; [0,0,0,0,-1,0,0,0,0,0])  (2; ")
    assert rad5.endswith(f"  ... ({252 - TRUNCATE_AT} more)")
    assert rad5.count("; [") == TRUNCATE_AT
    code, out, _ = run_cli(argv + ["--full"], capsys)
    assert code == 0
    assert "more)" not in out
    assert out.splitlines()[6].count("; [") == 252
    # The Ext^1 neighbour listing.
    argv = ["ext", "--n", "100", "--p", "7", "--i", "50"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert "202 labels" in out
    assert f"... ({202 - TRUNCATE_AT} more)" in out
    code, out, _ = run_cli(argv + ["--full"], capsys)
    assert code == 0
    assert "more)" not in out
    payload = run_json(argv, capsys)
    assert len(payload["rad1_cover"]) == 202


def test_text_listing_formats_only_the_labels_it_prints(capsys, monkeypatch):
    # Without --full, rad_j of the Verma at n=12 prints min(C(12, j),
    # TRUNCATE_AT) of its C(12, j) labels, and formats no others.
    formatted = []
    template = loewylab.cli._label_template

    class Recording(str):
        def __mod__(self, values):
            formatted.append(str.__mod__(self, values))
            return formatted[-1]

    monkeypatch.setattr(loewylab.cli, "_label_template", lambda n: Recording(template(n)))
    code, out, err = run_cli(["verma", "--n", "12", "--p", "5", "--i", "6"], capsys)
    assert code == 0 and err == ""
    layers = [line.split(": ", 1)[1].split("  ") for line in out.splitlines()[1:]]
    printed = [[part for part in layer if not part.startswith("...")] for layer in layers]
    assert [len(layer) for layer in printed] == [min(comb(12, j), TRUNCATE_AT) for j in range(13)]
    assert formatted == [part for layer in printed for part in layer]


def test_dim_text_and_exit(capsys):
    code, out, err = run_cli(["dim", "--n", "2", "--p", "5"], capsys)
    assert code == 0 and err == ""
    assert "baby Verma dimension 125" in out
    assert "i=0: dim L=15  M_I=25 (ok)  M_J=-" in out
    assert "i=1: dim L=10  M_I=100 (ok)  M_J=25 (ok)" in out
    assert "i=2: dim L=90  M_I=-  M_J=100 (ok)" in out
    assert "per-Verma dimension conservation: ok" in out
    payload = run_json(["dim", "--n", "3", "--p", "5"], capsys)
    assert payload["conservation_ok"] is True
    assert payload["verma_dimension"] == 5**6


def test_dim_exits_1_when_a_cover_identity_fails(capsys, monkeypatch):
    # The side-"I" cover of lam_1 one too large breaks its identity alone:
    # conservation still holds, and the exit code must still say FAIL.
    real = loewylab.checks.dim_parabolic_verma

    def one_too_many_at_1_i(ctx, i, side):
        return real(ctx, i, side) + (i == 1 and side == "I")

    monkeypatch.setattr(loewylab.checks, "dim_parabolic_verma", one_too_many_at_1_i)
    code, out, err = run_cli(["dim", "--n", "2", "--p", "5"], capsys)
    assert code == 1 and err == ""
    assert "i=1: dim L=10  M_I=101 (FAIL)  M_J=25 (ok)" in out
    assert "per-Verma dimension conservation: ok" in out
    code, out, err = run_cli(["dim", "--n", "2", "--p", "5", "--format", "json"], capsys)
    assert code == 1 and err == ""
    payload = json.loads(out)
    assert payload["conservation_ok"] is True
    assert [row["identity_I"] for row in payload["rows"]] == [True, False, None]


def test_jantzen_command(capsys):
    code, out, err = run_cli(["jantzen", "--n", "2", "--p", "5"], capsys)
    assert code == 0 and err == ""
    assert "checked 9 pairs" in out
    assert "OK" in out
    code, out, _ = run_cli(["jantzen", "--n", "2", "--p", "5", "--i", "0"], capsys)
    assert code == 0
    cert_lines = [line for line in out.splitlines() if "root=" in line]
    assert len(cert_lines) == 3
    assert all(line.strip().startswith("i=0 ") for line in cert_lines)
    payload = run_json(["jantzen", "--n", "2", "--p", "5"], capsys)
    assert payload["report"]["ok"] is True
    assert payload["report"]["failures"] == []
    # --i filters the JSON listings too; the counts describe the full sweep.
    report = run_json(["jantzen", "--n", "3", "--p", "5", "--i", "1"], capsys)["report"]
    assert [c["i"] for c in report["certificates"]] == [1] * 6
    assert report["failures"] == [] and report["replay_failures"] == []
    assert report["checked"] == report["replayed"] == 24
    assert report["ok"] is True


def test_jantzen_reports_failures(capsys, monkeypatch):
    # A search that finds no witness for m = 5 fails the three roots that
    # pair to 5, and a closed form with a wrong m fails its root's replay:
    # each is one FAIL line after the certificates, and the exit code is 1.
    search, closed_forms = loewylab.chardim.witness_search, loewylab.chardim._closed_forms

    def no_witness_for_5(nu, p):
        return {m: None if m == 5 else witness for m, witness in search(nu, p).items()}

    def wrong_m_at_1_23(p, i, lam, roots):
        built = closed_forms(p, i, lam, roots)
        return [
            (w[0] + 1, *w[1:]) if (i, root) == (1, (2, 3)) else w for root, w in zip(roots, built)
        ]

    monkeypatch.setattr(loewylab.chardim, "witness_search", no_witness_for_5)
    monkeypatch.setattr(loewylab.chardim, "_closed_forms", wrong_m_at_1_23)
    argv = ["jantzen", "--n", "2", "--p", "5"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[0] == (
        "simplicity certificates, n=2, p=5: checked 9 pairs, replayed 9 closed forms: FAILURES"
    )
    assert [line.split(":")[0] for line in lines[1:7]] == [
        "  i=0 root=(1,2)", "  i=0 root=(1,3)", "  i=1 root=(1,2)",
        "  i=1 root=(2,3)", "  i=2 root=(1,3)", "  i=2 root=(2,3)",
    ]
    assert lines[7:] == [
        "  FAIL i=0 root=[2, 3]: search failed",
        "  FAIL i=1 root=[1, 3]: search failed",
        "  FAIL i=2 root=[1, 2]: search failed",
        "  FAIL i=1 root=[2, 3]: closed-form certificate invalid",
    ]
    # --i keeps its own failures; the header still describes the sweep.
    code, out, err = run_cli(argv + ["--i", "1"], capsys)
    assert code == 1 and err == ""
    assert out.splitlines() == [
        lines[0],
        "  i=1 root=(1,2): m=4 = 4*5^0 + 0*5^1, beta0=(1,2), betas: -",
        "  i=1 root=(2,3): m=1 = 1*5^0 + 0*5^1, beta0=(2,3), betas: -",
        "  FAIL i=1 root=[1, 3]: search failed",
        "  FAIL i=1 root=[2, 3]: closed-form certificate invalid",
    ]
    code, out, err = run_cli(argv + ["--format", "json"], capsys)
    assert code == 1 and err == ""
    report = json.loads(out)["report"]
    assert report["ok"] is False and report["checked"] == report["replayed"] == 9
    assert len(report["certificates"]) == 6
    assert report["failures"] == [
        {"i": 0, "root": [2, 3], "reason": "search failed"},
        {"i": 1, "root": [1, 3], "reason": "search failed"},
        {"i": 2, "root": [1, 2], "reason": "search failed"},
    ]
    assert report["replay_failures"] == [
        {"i": 1, "root": [2, 3], "reason": "closed-form certificate invalid"}
    ]
    code, out, err = run_cli(argv + ["--i", "2", "--format", "json"], capsys)
    assert code == 1 and err == ""
    report = json.loads(out)["report"]
    assert [c["i"] for c in report["certificates"]] == [2, 2]
    assert report["failures"] == [{"i": 2, "root": [1, 2], "reason": "search failed"}]
    assert report["replay_failures"] == []


def test_verify_prints_a_counterexample(capsys, monkeypatch):
    # With every weight taken for a root-lattice weight, (0, 0) is in w_1's
    # coset but not above w_1: the battery names it and fails that check alone.
    monkeypatch.setattr(loewylab.checks, "in_root_lattice", lambda w: True)
    code, out, err = run_cli(["verify", "--n", "2", "--p", "5"], capsys)
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL lattice.coset_minimality: counterexample (0, 0)"
    ]
    assert lines[-1] == "CHECKS FAILED at n=2, p=5 (13 checks)"


def test_verify_command(capsys):
    code, out, err = run_cli(["verify", "--n", "2", "--p", "5"], capsys)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert sum(line.startswith("PASS ") for line in lines) == 13
    assert not any(line.startswith("FAIL") for line in lines)
    assert any("[conditional]" in line for line in lines)
    assert lines[-1].startswith("all checks passed at n=2, p=5")
    payload = run_json(["verify", "--n", "2", "--p", "5"], capsys)
    assert payload["ok"] is True
    assert len(payload["checks"]) == 13
    names = [c["name"] for c in payload["checks"]]
    assert "chardim.block_simplicity" in names
    assert "projective.structure" in names


DIM_3_5_TEXT = """\
dimensions in the block, n=3, p=5 (baby Verma dimension 15625)
  i=0: dim L=1375  M_I=1875 (ok)  M_J=-
  i=1: dim L=500  M_I=1250 (ok)  M_J=1875 (ok)
  i=2: dim L=750  M_I=11250 (ok)  M_J=1250 (ok)
  i=3: dim L=10500  M_I=-  M_J=11250 (ok)
  per-Verma dimension conservation: ok
"""

DIM_3_5_JSON = {
    "conservation_ok": True,
    "n": 3,
    "object": "dim",
    "p": 5,
    "rows": [
        {"dim_cover_I": 1875, "dim_cover_J": None, "dim_simple": 1375, "i": 0,
         "identity_I": True, "identity_J": None},
        {"dim_cover_I": 1250, "dim_cover_J": 1875, "dim_simple": 500, "i": 1,
         "identity_I": True, "identity_J": True},
        {"dim_cover_I": 11250, "dim_cover_J": 1250, "dim_simple": 750, "i": 2,
         "identity_I": True, "identity_J": True},
        {"dim_cover_I": None, "dim_cover_J": 11250, "dim_simple": 10500, "i": 3,
         "identity_I": None, "identity_J": True},
    ],
    "verma_dimension": 15625,
}

VERIFY_NAMES = [
    "lattice.round_trip",
    "lattice.twist_order",
    "lattice.coset_minimality",
    "block.weight_table",
    "block.lowest_weight_identity",
    "chardim.dim_identities",
    "chardim.dimension_conservation",
    "chardim.block_simplicity",
    "loewy.layer_counts",
    "loewy.rad1_parabolic_forms",
    "loewy.rigidity",
    "ext.rules",
    "projective.structure",
]


def test_dim_and_verify_output_frozen(capsys):
    # Full stdout at (3, 5), recorded before the battery left the CLI.
    def frozen_json(payload):
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    assert run_cli(["dim", "--n", "3", "--p", "5"], capsys) == (0, DIM_3_5_TEXT, "")
    argv = ["dim", "--n", "3", "--p", "5", "--format", "json"]
    assert run_cli(argv, capsys) == (0, frozen_json(DIM_3_5_JSON), "")
    verify_text = "".join(
        f"PASS {name}{' [conditional]' if name.startswith('projective') else ''}\n"
        for name in VERIFY_NAMES
    ) + "all checks passed at n=3, p=5 (13 checks)\n"
    assert run_cli(["verify", "--n", "3", "--p", "5"], capsys) == (0, verify_text, "")
    verify_json = {
        "checks": [
            {"conditional": name.startswith("projective"), "detail": "", "name": name, "ok": True}
            for name in VERIFY_NAMES
        ],
        "n": 3,
        "object": "verify",
        "ok": True,
        "p": 5,
    }
    argv = ["verify", "--n", "3", "--p", "5", "--format", "json"]
    assert run_cli(argv, capsys) == (0, frozen_json(verify_json), "")


def test_verify_reports_a_failing_check(capsys, monkeypatch):
    # Dual Vermas that are not reversals must fail exactly the rigidity check.
    monkeypatch.setattr(loewylab.checks, "dual_verma_rows", verma_rows)
    code, out, err = run_cli(["verify", "--n", "2", "--p", "5"], capsys)
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL loewy.rigidity: socle/dual series are not reversals"
    ]
    assert lines[-1] == "CHECKS FAILED at n=2, p=5 (13 checks)"
    code, out, err = run_cli(["verify", "--n", "2", "--p", "5", "--format", "json"], capsys)
    assert code == 1 and err == ""
    payload = json.loads(out)
    assert payload["ok"] is False
    assert [c["name"] for c in payload["checks"] if not c["ok"]] == ["loewy.rigidity"]


def _swap_first_and_second_radical(layers):
    # Layers 1 and 2 are not mirror images of each other.
    layers[1], layers[2] = layers[2], layers[1]


def _bump_middle_multiplicity(layers):
    # The middle layer is its own mirror image, so only the totals see this.
    u, c, m = layers[len(layers) // 2][0]
    layers[len(layers) // 2][0] = (u, c, m + 1)


@pytest.mark.parametrize("corrupt", [_swap_first_and_second_radical, _bump_middle_multiplicity])
def test_verify_cover_check_reads_the_rows(capsys, monkeypatch, corrupt):
    # Corrupted cover rows must fail exactly the cover structure check.
    def corrupted_cover_rows(ctx, label):
        layers = loewylab.projective.cover_rows(ctx, label)
        corrupt(layers)
        return layers

    monkeypatch.setattr(loewylab.checks, "cover_rows", corrupted_cover_rows)
    code, out, err = run_cli(["verify", "--n", "2", "--p", "5"], capsys)
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL projective.structure [conditional]: cover layer shape or aggregates broke"
    ]
    code, out, err = run_cli(["verify", "--n", "2", "--p", "5", "--format", "json"], capsys)
    assert code == 1 and err == ""
    payload = json.loads(out)
    assert payload["ok"] is False
    assert [c["name"] for c in payload["checks"] if not c["ok"]] == ["projective.structure"]


def _bump_a_second_layer(monkeypatch):
    # One multiplicity in each Verma's layer 2 goes up by one, in its dual too.
    def bumped(ctx, label):
        layers = verma_rows(ctx, label)
        (u, c, m), *rest = layers[2]
        layers[2] = [(u, c, m + 1), *rest]
        return layers

    monkeypatch.setattr(loewylab.checks, "verma_rows", bumped)
    monkeypatch.setattr(loewylab.checks, "dual_verma_rows", lambda ctx, label: bumped(ctx, label)[::-1])


def _skew_one_ext_pair(monkeypatch):
    # Ext^1 from (0, 0) to (1, 0) one more than from (1, 0) to (0, 0).
    ext1_dim = loewylab.checks._ext1_dim

    def skewed(a, b):
        return ext1_dim(a, b) + (a[0] == 0 and b[0] == 1 and not any(a[1] + b[1]))

    monkeypatch.setattr(loewylab.checks, "_ext1_dim", skewed)


def _shift_parabolic_second_layers(monkeypatch):
    # Each parabolic cover's second layer moves by 5 in every coordinate.
    def shifted(ctx, label, side):
        layers = loewylab.loewy.parabolic_m_structure(ctx, label, side)
        layers[1] = [(u, tuple(x + 5 for x in c), m) for u, c, m in layers[1]]
        return layers

    monkeypatch.setattr(loewylab.checks, "parabolic_m_structure", shifted)


def _mislabel_one_twist(monkeypatch):
    # The weight of (1, w_1) classifies as (0, w_1).
    classify = loewylab.checks.classify

    def mislabelled(ctx, w):
        i, nu = classify(ctx, w)
        return (0 if (i, nu) == (1, (1,) + (0,) * (ctx.n - 1)) else i), nu

    monkeypatch.setattr(loewylab.checks, "classify", mislabelled)


def _drop_one_support_entry(monkeypatch):
    # The cover of (0, 0) loses one baby Verma of its support.
    support = loewylab.projective.verma_support

    def dropped(ctx, label):
        rows = support(ctx, label)
        return rows[1:] if label[0] == 0 else rows

    monkeypatch.setattr(loewylab.checks, "verma_support", dropped)


@pytest.mark.parametrize("n, p", [(2, 5), (3, 7)])
@pytest.mark.parametrize("corrupt, name", [
    (_mislabel_one_twist, "block.weight_table"),
    (_bump_a_second_layer, "loewy.layer_counts"),
    (_shift_parabolic_second_layers, "loewy.rad1_parabolic_forms"),
    (_skew_one_ext_pair, "ext.rules"),
    (_drop_one_support_entry, "projective.structure"),
])
def test_each_layer_and_ext_check_fails_alone(monkeypatch, n, p, corrupt, name):
    corrupt(monkeypatch)
    checks = loewylab.checks.verify_checks(make_context(n, p))
    assert [check["name"] for check in checks if not check["ok"]] == [name]


def module_env() -> dict[str, str]:
    """This environment, with the library's sources first on PYTHONPATH."""
    src = str(Path(loewylab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_python_m_loewylab(capsys):
    argv = ["block", "--n", "2", "--p", "5", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-m", "loewylab", *argv],
        capture_output=True,
        text=True,
        env=module_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert proc.stdout == out


def test_large_prime_is_checked_fast(capsys):
    start = perf_counter()
    code, out, err = run_cli(["block", "--n", "1", "--p", str(2**61 - 1)], capsys)
    assert perf_counter() - start < 0.5
    assert code == 0 and err == ""
    composite = (2**31 - 1) * (2**61 - 1)
    code, out, err = run_cli(["block", "--n", "1", "--p", str(composite)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_json_mode_renders_no_text(capsys, monkeypatch):
    # JSON output is the payload itself: no text renderer runs to produce it.
    argvs = [
        [command, "--n", "2", "--p", "5", *extra, "--format", "json"]
        for command, extra in [
            ("block", []), ("verma", ["--i", "1"]), ("verma-dual", ["--i", "1"]),
            ("proj", ["--i", "1"]), ("ext", []), ("ext", ["--i", "1"]), ("dim", []),
            ("jantzen", []), ("verify", []),
        ]
    ]
    expected = [run_cli(argv, capsys) for argv in argvs]

    def refuse(*args, **kwargs):
        raise AssertionError("a text renderer ran in JSON mode")

    for name in (
        "_layers_text", "_blocks_text", "_block_text", "_ext_text", "_dim_text", "_jantzen_text",
        "_verify_text",
    ):
        monkeypatch.setattr(loewylab.cli, name, refuse)
    assert [run_cli(argv, capsys) for argv in argvs] == expected
    assert all(code == 0 for code, _, _ in expected)


# ------------------------------------------------------- JSON writer

def assert_same_text(got: str, want: str) -> None:
    """Assert `got == want`, failing fast: the lengths and sha256 digests
    are compared first, and a failure names the first offset where the texts
    differ.  On the strings themselves, pytest's assertion rewriting diffs a
    long JSON document for minutes before it reports."""
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    if (len(got), digest(got)) != (len(want), digest(want)):
        k = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        near = slice(max(k - 40, 0), k + 40)
        pytest.fail(
            f"texts of lengths {len(got)} and {len(want)} first differ at offset {k}: "
            f"{got[near]!r} != {want[near]!r}", pytrace=False,
        )
    assert got == want

def reference_json(doc: dict, blocks: bool = False) -> str:
    """json.dumps of a document, a layer listing's factor rows (i, nu, mult)
    or, with `blocks`, its Verma blocks (t, heads, tails), `ext --i`'s
    `rad1_cover` rows (i, nu, mult), and a jantzen report's certificate rows
    (i, root, m, s, a, b, beta0, betas) written as the objects its JSON
    holds."""
    if "layers" in doc:
        layers = []
        for layer in doc["layers"]:
            rows = layer["factors"]
            if blocks:
                rows = [(t, head + tail, 1) for t, heads, tails in rows for head in heads for tail in tails]
            layers.append({**layer, "factors": [{"i": u, "nu": list(c), "mult": m} for u, c, m in rows]})
        doc = {**doc, "layers": layers}
    if "rad1_cover" in doc:
        cover = [{"i": u, "nu": list(c), "mult": m} for u, c, m in doc["rad1_cover"]]
        doc = {**doc, "rad1_cover": cover}
    if "report" in doc:
        certificates = [
            {"i": i, "root": list(root), "m": m, "s": s, "a": a, "b": b, "beta0": list(beta0),
             "betas": [list(beta) for beta in betas]}
            for i, root, m, s, a, b, beta0, betas in doc["report"]["certificates"]
        ]
        doc = {**doc, "report": {**doc["report"], "certificates": certificates}}
    return json.dumps(doc, sort_keys=True, indent=2)


def random_layer_doc(rng: random.Random, rank: int, conditional: bool) -> dict:
    """A layer document shaped like `cmd_layers`' output, with random values."""
    layers = []
    for j in range(rng.randint(1, 6)):
        factors = [
            (rng.randint(0, rank), tuple(rng.randint(-120, 120) for _ in range(rank)),
             rng.choice((1, 1, 2, 3, 16, 1001)))
            for _ in range(1 if j == 0 else rng.randint(1, 5))
        ]
        layers.append({"j": j, "factors": factors})
    return {"n": rank, "p": rng.choice((3, 5, 7, 2**61 - 1)), "object": f"Qhat(i=0, nu=[{rank}])",
            "layers": layers, CONDITIONAL_FLAG_KEY: conditional}


def mirrored_layer_doc(rng: random.Random, rank: int, change: str) -> dict:
    """A random layer document of at least two layers whose factor lists
    read the same from both ends (as a cover's do), each list its own
    object; with `change` "mult" or "coord", one factor of the last layer
    differs from its mirror's in that field."""
    doc = random_layer_doc(rng, rank, rng.random() < 0.5)
    while len(doc["layers"]) < 2:
        doc = random_layer_doc(rng, rank, rng.random() < 0.5)
    layers = doc["layers"]
    for j in range(len(layers) // 2):
        layers[-1 - j]["factors"] = list(layers[j]["factors"])
    rows = layers[-1]["factors"]
    k = rng.randrange(len(rows))
    u, c, m = rows[k]
    if change == "mult":
        rows[k] = (u, c, m + 1)
    elif change == "coord":
        s = rng.randrange(rank)
        rows[k] = (u, c[:s] + (c[s] - 1,) + c[s + 1:], m)
    return doc


def test_dump_json_matches_json_dumps_on_random_layer_docs():
    rng = random.Random(20181)
    docs = [
        random_layer_doc(rng, rank, conditional)
        for rank in range(1, 8) for conditional in (False, True) for _ in range(12)
    ]
    factors = [f for doc in docs for layer in doc["layers"] for f in layer["factors"]]
    # The cases the template must get right all occur.
    assert {len(nu) for _, nu, _ in factors} == set(range(1, 8))
    coords = [c for _, nu, _ in factors for c in nu]
    assert min(coords) < -9 and max(coords) > 9
    assert any(m > 1 for _, _, m in factors)
    assert sum(len(layer["factors"]) == 1 for doc in docs for layer in doc["layers"]) > len(docs)
    for doc in docs:
        assert_same_text("".join(_dump_json(doc)), reference_json(doc))
    # Factor lists equal to their mirror's reuse its text; a list that
    # differs from its mirror in one multiplicity or one coordinate is
    # written from its own rows.
    for change in ("", "mult", "coord"):
        mirrored = [mirrored_layer_doc(rng, rank, change) for rank in range(1, 8) for _ in range(6)]
        for doc in mirrored:
            lists = [layer["factors"] for layer in doc["layers"]]
            assert (lists == lists[::-1]) == (change == "")
            written = []

            def counting(rows):
                written.append(rows)
                return loewylab.cli._factors_json(rows)

            assert_same_text("".join(_dump_json(doc, counting)), reference_json(doc))
            assert len(written) == (len(lists) + 1) // 2 + (change != "")


def test_dump_json_matches_json_dumps_on_random_block_docs():
    # Verma listings at ranks 1..8 and every i, from i = 0 (every head is
    # ()) to i = n (every tail is ()), twisted by coordinates beyond ±100,
    # as `verma` and as `verma-dual` write them.
    rng = random.Random(2018)
    docs = []
    for n in range(1, 9):
        ctx = make_context(n, 11)
        for i in range(n + 1):
            nu = tuple(rng.randint(-150, 150) for _ in range(n))
            for kind, layers in (("Zhat", verma_blocks(ctx, (i, nu))),
                                 ("Zhat_dual", verma_blocks(ctx, (i, nu))[::-1])):
                docs.append({
                    "n": n, "p": 11, "object": f"{kind}(i={i}, nu=[{nu[0]}])",
                    "layers": [{"j": j, "factors": blocks} for j, blocks in enumerate(layers)],
                    CONDITIONAL_FLAG_KEY: False,
                })
    coords = [c for doc in docs for layer in doc["layers"] for _, heads, tails in layer["factors"]
              for half in (*heads, *tails) for c in half]
    assert min(coords) < -100 and max(coords) > 100
    for doc in docs:
        assert_same_text("".join(_dump_json(doc, loewylab.cli._blocks_json)), reference_json(doc, blocks=True))


def test_dump_json_matches_json_dumps_on_random_ext_docs():
    # `ext --i` writes its `rad1_cover` rows from the factor template at the
    # list's own indent, at every rank and with coordinates beyond ±9.
    rng = random.Random(2020)
    for rank in range(1, 8):
        for _ in range(6):
            rows = [
                (rng.randint(0, rank), tuple(rng.randint(-120, 120) for _ in range(rank)), 1)
                for _ in range(rng.randint(1, 5))
            ]
            doc = {"n": rank, "p": 5, "object": f"ext(i=0, nu=[{rank}])",
                   "kinds": ["zero"] * (rank + 1), "rad1_cover": rows}
            assert_same_text("".join(_dump_json(doc)), reference_json(doc))


def test_dump_json_matches_json_dumps_on_cli_payloads(capsys, monkeypatch):
    # main prints exactly what json.dumps writes for the document it dumps,
    # with the factor writer main picks for the listing.
    docs = []

    def recording(doc, factors_json=None):
        docs.append((doc, factors_json is loewylab.cli._blocks_json))
        return _dump_json(doc, factors_json)

    monkeypatch.setattr(loewylab.cli, "_dump_json", recording)
    argvs = [["proj", "--n", "6", "--p", "5", "--i", str(i)] for i in range(7)]
    argvs += [
        [command, "--n", "11", "--p", "5", "--i", "5", "--nu=3,-12,0,1,0,0,-1,0,0,0,25"]
        for command in ("verma", "verma-dual")
    ]
    for argv in argvs:
        code, out, err = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0 and err == ""
        assert_same_text(out, reference_json(*docs[-1]) + "\n")
    assert len(docs) == len(argvs)
    # Verma listings are written from blocks, covers from rows.
    assert [blocks for _, blocks in docs] == [False] * 7 + [True] * 2
    # An `ext --i` neighbourhood, and jantzen reports, the whole sweep and
    # one index at a time.
    argvs = [["ext", "--n", "3", "--p", "5", "--i", "1"]]
    for n in (1, 3, 12):
        argvs += [["jantzen", "--n", str(n), "--p", "3", *index] for index in ([], ["--i", "0"], ["--i", str(n)])]
    for argv in argvs:
        code, out, err = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0 and err == ""
        assert_same_text(out, reference_json(*docs[-1]) + "\n")


def random_report_doc(rng: random.Random, rank: int) -> dict:
    """A document shaped like `cmd_jantzen`'s output, with random values."""
    def root():
        k = rng.randint(1, rank)
        return (k, rng.randint(k + 1, rank + 1))

    certificates = []
    for _ in range(rng.choice((0, 1, 3, 8))):
        b = rng.choice((0, 0, 1, 2, 5))
        certificates.append((
            rng.randint(0, rank), root(), rng.choice((1, 7, 49, 343, 2400)), rng.randint(0, 3),
            rng.randint(1, 10), b, root(), tuple(root() for _ in range(b)),
        ))
    failures = [
        {"i": rng.randint(0, rank), "root": list(root()), "reason": "search failed"}
        for _ in range(rng.choice((0, 0, 2)))
    ]
    replay_failures = [
        {"i": rng.randint(0, rank), "root": list(root()), "reason": "closed-form certificate invalid"}
        for _ in range(rng.choice((0, 0, 1)))
    ]
    checked = (rank + 1) * rank * (rank + 1) // 2
    report = {
        "n": rank, "p": 7, "checked": checked, "failures": failures, "replayed": checked,
        "replay_failures": replay_failures, "certificates": certificates,
        "ok": not failures and not replay_failures,
    }
    return {"n": rank, "p": 7, "object": "jantzen", "report": report}


def test_dump_json_matches_json_dumps_on_random_reports():
    rng = random.Random(1807)
    docs = [random_report_doc(rng, rank) for rank in range(1, 12) for _ in range(10)]
    reports = [doc["report"] for doc in docs]
    certificates = [c for report in reports for c in report["certificates"]]
    # The cases the row templates must get right all occur.
    assert any(report["certificates"] == [] for report in reports)
    assert any(betas == () for *_, betas in certificates)
    assert any(b > 1 for _, _, _, _, _, b, _, _ in certificates)
    assert any(m >= 100 for _, _, m, *_ in certificates)
    assert any(report["failures"] for report in reports)
    assert any(report["replay_failures"] for report in reports)
    for doc in docs:
        assert_same_text("".join(_dump_json(doc)), reference_json(doc))
    # A value that encodes like a slot would be filled as one: refused.
    doc = {**docs[0], "object": loewylab.cli._SLOT}
    with pytest.raises(RuntimeError, match=r"^2 slots in the JSON of 1 template-written lists$"):
        _dump_json(doc)


class RecordingStream(io.StringIO):
    """A text stream that keeps the text of each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def test_json_is_written_in_pieces_never_whole():
    # A Verma listing, a cover and a jantzen report, each with a recorded
    # digest: the writes join to the recorded bytes, and none of them holds
    # the whole document, which is never joined into one str.
    fixture = json.loads(LARGE_FIXTURE.read_text())
    for command in (
        "verma --n 12 --p 7 --i 6 --format json",
        "proj --n 6 --p 5 --i 2 --nu=10,-1,0,0,-12,1 --format json",
        "jantzen --n 31 --p 3 --i 17 --format json",
    ):
        stream = RecordingStream()
        with contextlib.redirect_stdout(stream), pytest.raises(SystemExit) as exc:
            main(command.split())
        text = "".join(stream.writes)
        assert [exc.value.code or 0, hashlib.sha256(text.encode()).hexdigest()] == fixture[command][:2]
        assert text.endswith("}\n") and max(map(len, stream.writes)) < len(text) - 1, command


@pytest.mark.parametrize("command, writer, fail_at", [
    ("verma --n 8 --p 5 --i 4", "_blocks_json", 3),
    ("proj --n 4 --p 7 --i 2", "_factors_json", 2),
    ("jantzen --n 6 --p 5", "_certificates_json", 1),
], ids=["verma", "proj", "jantzen"])
def test_a_failing_json_writer_leaves_stdout_empty(monkeypatch, command, writer, fail_at):
    # The writer raises on one of its lists, after the lists before it are
    # built: every piece is built before the first write, so nothing
    # reaches stdout.
    real, calls = getattr(loewylab.cli, writer), []

    class WriterFailed(Exception):
        pass

    def failing(*args):
        calls.append(1)
        if len(calls) == fail_at:
            raise WriterFailed
        return real(*args)

    monkeypatch.setattr(loewylab.cli, writer, failing)
    stream = RecordingStream()
    with contextlib.redirect_stdout(stream), pytest.raises(WriterFailed):
        main(command.split() + ["--format", "json"])
    assert len(calls) == fail_at and stream.writes == [] and stream.getvalue() == ""


class CountingStream(io.TextIOBase):
    """A text stream that counts the characters written to it and drops them."""

    def __init__(self):
        super().__init__()
        self.written = 0

    def write(self, text):
        self.written += len(text)
        return len(text)


@pytest.mark.parametrize("command, ratio", [
    ("verma --n 13 --p 3 --i 6 --format json", 1 / 4),
    ("jantzen --n 18 --p 7 --format json", 3 / 4),
    ("ext --n 300 --p 5 --i 150 --format json", 2),
    ("verma --n 15 --p 3 --i 7 --full", 2),
], ids=["verma", "jantzen", "ext", "verma-text"])
def test_json_is_formatted_while_it_is_written(command, ratio):
    # The traced peak of a run stays under `ratio` times the document's
    # length: a Verma layer is formatted one head at a time, certificates
    # and factor rows _CHUNK at a time, as `main` writes them, and a text
    # listing one layer's line at a time.  Holding the document whole, as
    # one str or as its pieces, peaks at about 1x (verma), 2.5x (jantzen,
    # with its rows) and 3x (ext) its length, and building every text line
    # first at about 3.4x (verma-text, with each line's labels).
    stream = CountingStream()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(stream), pytest.raises(SystemExit) as exc:
            main(command.split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.code == 0 and stream.written > 900_000
    assert peak < ratio * stream.written, (peak, stream.written)


def recorded_writes(command: str) -> tuple[int, list[str]]:
    """The exit code of an in-process run and the text of each of its writes."""
    stream = RecordingStream()
    with contextlib.redirect_stdout(stream), pytest.raises(SystemExit) as exc:
        main(command.split())
    return exc.value.code or 0, stream.writes


def test_stdout_is_written_in_bounded_batches(monkeypatch):
    # JSON and text go through one write loop, which gathers the writer's
    # pieces into batches of _BATCH characters.  The pieces are the writes of
    # a run with a batch of one character.  The writes join to the recorded
    # bytes; every write but the last holds at least one batch, and none
    # more than a batch and the longest piece; a short document is one write.
    batch = loewylab.cli._BATCH
    fixture = json.loads(LARGE_FIXTURE.read_text())
    for command in (
        "verma --n 12 --p 7 --i 6 --format json",
        "verma --n 14 --p 7 --i 7 --format text --full",
        "jantzen --n 31 --p 3 --format text --full",
    ):
        code, writes = recorded_writes(command)
        text = "".join(writes)
        assert [code, hashlib.sha256(text.encode()).hexdigest()] == fixture[command][:2], command
        with monkeypatch.context() as patch:
            patch.setattr(loewylab.cli, "_BATCH", 1)
            pieces = recorded_writes(command)[1]
        assert "".join(pieces) == text and len(pieces) > len(writes) > 2, command
        assert min(map(len, writes[:-1])) >= batch, command
        assert max(map(len, writes)) < batch + max(map(len, pieces)), command
    assert recorded_writes("block --n 2 --p 5") == (0, [BLOCK_2_5_TEXT])


def test_an_early_closing_reader_ends_the_run_quietly():
    # A reader that closes stdout after one byte ends a run with exit code
    # 141 (128 + SIGPIPE, as shells report it) and nothing on stderr.
    argv = ["verma", "--n", "13", "--p", "3", "--i", "6", "--format", "json"]
    with subprocess.Popen([sys.executable, "-m", "loewylab", *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=module_env()) as proc:
        first = proc.stdout.read(1)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (first, code, err) == (b"{", 141, b"")


def test_output_through_a_real_pipe_is_byte_identical():
    # `python -m loewylab` writes through the interpreter's own text stream
    # over a pipe, buffered and under -u (unbuffered, each write one
    # syscall), where the in-process runs write into a StringIO: exit code,
    # stdout and stderr match the recorded digests.
    fixture, env = json.loads(LARGE_FIXTURE.read_text()), module_env()
    for command in (
        "verma --n 12 --p 7 --i 6 --format json",
        "verma --n 14 --p 7 --i 7 --format text --full",
        "proj --n 8 --p 5 --i 2 --format json",
        "jantzen --n 31 --p 3 --format json",
    ):
        for flags in ([], ["-u"]):
            run = subprocess.run([sys.executable, *flags, "-m", "loewylab", *command.split()],
                                 capture_output=True, env=env, timeout=60)
            digests = [hashlib.sha256(out).hexdigest() for out in (run.stdout, run.stderr)]
            assert [run.returncode, *digests] == fixture[command], (command, flags)


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    Its fd is a scratch file's, so `main`'s redirect of that fd to the null
    device touches nothing else."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def fileno(self):
        return self.fd

    def write(self, text):
        raise BrokenPipeError


def collector_passes(argv):
    """The exit code of `main(argv)` and the generations of the collector
    passes run under it, with the collector enabled when it starts.

    A pass counts when it runs in a library frame other than `main`'s own:
    the first allocation after `main` puts the collector back may start one,
    in `main` or in its caller, over what the command left.
    """
    passes = []

    def hook(phase, info):
        frame = sys._getframe(1) if phase == "start" else None
        while frame is not None:
            if frame.f_globals.get("__name__", "").startswith("loewylab.") \
                    and frame.f_code is not main.__code__:
                passes.append(info["generation"])
                return
            frame = frame.f_back

    gc.enable()
    gc.callbacks.append(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with pytest.raises(SystemExit) as exc:
                main(argv)
    finally:
        gc.callbacks.remove(hook)
    return exc.value.code or 0, passes


def test_a_command_runs_no_collector_pass():
    # A command builds no reference cycle, so the cyclic collector is off
    # while it runs: a battery that allocates far past the collector's
    # thresholds, and a refused input, run no pass.
    assert collector_passes(["verify", "--n", "5", "--p", "7"]) == (0, [])
    assert collector_passes(["verify", "--n", "5", "--p", "3"]) == (2, [])


def test_main_puts_back_the_collector_setting_on_every_exit(monkeypatch, tmp_path):
    # Exit 0, 1 (one check broken), 2 (p divides n + 1) and 141 (the reader
    # of stdout has gone), each with the collector enabled and disabled
    # before `main`: after it, the collector is as it was.
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    was_enabled = gc.isenabled()
    runs = [
        (0, ["verify", "--n", "2", "--p", "5"], io.StringIO),
        (1, ["verify", "--n", "2", "--p", "7"], io.StringIO),
        (2, ["verify", "--n", "2", "--p", "3"], io.StringIO),
        (141, ["verify", "--n", "2", "--p", "5"], lambda: ClosedPipe(fd)),
    ]
    try:
        for enabled in (True, False):
            for want, argv, stream in runs:
                gc.enable() if enabled else gc.disable()
                with monkeypatch.context() as patch:
                    if want == 1:
                        patch.setattr(loewylab.checks, "in_root_lattice", lambda w: True)
                    with contextlib.redirect_stdout(stream()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        with pytest.raises(SystemExit) as exc:
                            main(argv)
                assert exc.value.code == want
                assert gc.isenabled() is enabled, (enabled, want)
    finally:
        os.close(fd)
        gc.enable() if was_enabled else gc.disable()


def record_opens(monkeypatch) -> list[int]:
    """Record every descriptor `loewylab.cli` opens with os.open, in the
    list returned, until `monkeypatch` is undone."""
    real_open, opened = os.open, []

    def recording_open(*args, **kwargs):
        opened.append(real_open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(loewylab.cli.os, "open", recording_open)
    return opened


def test_an_early_closing_reader_leaves_no_descriptor_open(monkeypatch, tmp_path):
    # On exit 141 `main` points stdout's fd at the null device through a
    # descriptor of its own, and closes that descriptor again: runs in one
    # process leave no descriptor open.
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    opened = record_opens(monkeypatch)
    try:
        for _ in range(3):
            with contextlib.redirect_stdout(ClosedPipe(fd)), contextlib.redirect_stderr(io.StringIO()):
                with pytest.raises(SystemExit) as exc:
                    main(["block", "--n", "2", "--p", "5"])
            assert exc.value.code == 141
    finally:
        monkeypatch.undo()
        os.close(fd)
    left_open = []
    for opened_fd in opened:
        try:
            os.fstat(opened_fd)
        except OSError:
            continue
        left_open.append(opened_fd)
        os.close(opened_fd)
    assert len(opened) == 3 and left_open == []


class UnfiledClosedPipe(io.TextIOBase):
    """A stdout with no file descriptor whose reader has gone: `fileno`
    raises io.UnsupportedOperation and every write BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError


def test_an_early_closing_reader_without_a_descriptor_exits_141(monkeypatch):
    # A stdout with no fd has nothing to point at the null device: the run
    # exits 141 with nothing on stderr and opens no descriptor.
    opened = record_opens(monkeypatch)
    try:
        for _ in range(3):
            err = io.StringIO()
            with contextlib.redirect_stdout(UnfiledClosedPipe()), contextlib.redirect_stderr(err):
                with pytest.raises(SystemExit) as exc:
                    main(["block", "--n", "2", "--p", "5"])
            assert (exc.value.code, err.getvalue()) == (141, "")
    finally:
        monkeypatch.undo()
        for opened_fd in opened:
            os.close(opened_fd)
    assert opened == []


def test_a_run_without_stdout_writes_nothing_and_keeps_its_code(capsys, monkeypatch):
    # With stdout closed before the run, `sys.stdout` is None: a command
    # writes nothing and exits with its own code, 0, 1 when a check is
    # broken, or 2 with its error line on stderr, never a traceback.
    def code_of(argv):
        with contextlib.redirect_stdout(None), pytest.raises(SystemExit) as exc:
            main(argv)
        return exc.value.code

    for fmt in ("text", "json"):
        assert code_of(["verify", "--n", "2", "--p", "5", "--format", fmt]) == 0
        with monkeypatch.context() as patch:
            patch.setattr(loewylab.checks, "in_root_lattice", lambda w: True)
            assert code_of(["verify", "--n", "2", "--p", "5", "--format", fmt]) == 1
        assert capsys.readouterr() == ("", "")
    assert code_of(["verify", "--n", "2", "--p", "4"]) == 2
    assert capsys.readouterr() == ("", "error: p must be an odd prime, p > 2 (got 4)\n")
    # The same from a shell that closes fd 1 before the interpreter starts.
    run = subprocess.run(["sh", "-c", 'exec "$0" -m loewylab verify --n 2 --p 5 >&-', sys.executable],
                         env=module_env(), capture_output=True, timeout=60)
    assert (run.returncode, run.stderr) == (0, b"")


# ------------------------------------------------------- size budget

LAYER_SIZES = {
    "verma": lambda n, i: 2**n,
    "verma-dual": lambda n, i: 2**n,
    "proj": lambda n, i: (n + 1) * comb(n, i) * 2**n,
}


def layer_argv(command: str, n: int, i: int) -> list[str]:
    p = next(q for q in (3, 5, 7) if (n + 1) % q)
    return [command, "--n", str(n), "--p", str(p), "--i", str(i)]


def refused_at_once(argv: list[str], capsys) -> str:
    """The stderr of a run of `argv` that exits 2 within 0.5 s with nothing
    on stdout."""
    start = perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert perf_counter() - start < 0.5, argv
    assert code == 2 and out == "", argv
    return err


def assert_refused(argv: list[str], size: int, capsys) -> None:
    err = refused_at_once(argv, capsys)
    assert err.startswith("error: ") and err.count("\n") == 1, argv
    assert f" {size} labels" in err and f"budget of {LAYER_BUDGET} labels" in err, argv


def test_huge_layer_listings_are_refused_up_front(capsys):
    assert_refused(layer_argv("verma", 40, 20), 2**40, capsys)
    assert_refused(layer_argv("proj", 40, 20), 41 * comb(40, 20) * 2**40, capsys)


def test_layer_budget_edges(capsys):
    # Each command's smallest listing over the budget is refused, and the
    # largest listing within it runs.  All are found from the closed forms.
    sizes = {
        (size, command, n, i)
        for command, size_of in LAYER_SIZES.items()
        for n in range(1, 25) for i in range(n + 1)
        for size in [size_of(n, i)]
    }
    for command in LAYER_SIZES:
        over = min(key for key in sizes if key[1] == command and key[0] > LAYER_BUDGET)
        assert_refused(layer_argv(*over[1:]), over[0], capsys)
    under = max(key for key in sizes if key[0] <= LAYER_BUDGET)
    # Text output: the listing is built in full, and each layer line states
    # its total multiplicity.
    code, out, err = run_cli(layer_argv(*under[1:]), capsys)
    assert code == 0 and err == ""
    totals = re.findall(r"^  rad_\d+ \((\d+)\):", out, re.MULTILINE)
    assert sum(map(int, totals)) == under[0]


def test_jantzen_pair_budget_edges(capsys):
    # n = 31 checks 15872 pairs and runs; n = 32 checks 17424 and is refused,
    # as is n = 200 (4040100 pairs), before any certificate is built.
    assert 32 * 31 * 32 // 2 <= PAIR_BUDGET < 33 * 32 * 33 // 2
    code, out, err = run_cli(["jantzen", "--n", "31", "--p", "3"], capsys)
    assert code == 0 and err == ""
    assert "checked 15872 pairs" in out
    for n, pairs in ((32, 17424), (200, 4040100)):
        argv = ["jantzen", "--n", str(n), "--p", "5", "--format", "json"]
        assert refused_at_once(argv, capsys) == (
            f"error: jantzen at n={n} would check {pairs} (block index, root) pairs, "
            f"over the budget of {PAIR_BUDGET} pairs\n"
        )


def test_verify_budget_edges(capsys):
    # verify stacks (n+1)·4^n cover labels: n = 8 (589824) is admitted,
    # n = 9 (2621440) and n = 40 are refused before any check runs.
    assert 9 * 4**8 <= VERIFY_BUDGET < 10 * 4**9
    for n in (9, 40):
        for argv in (["verify", "--n", str(n), "--p", "11"],
                     ["verify", "--n", str(n), "--p", "11", "--format", "json"]):
            assert refused_at_once(argv, capsys) == (
                f"error: verify at n={n} would stack {(n + 1) * 4**n} cover labels with "
                f"multiplicity, over the budget of {VERIFY_BUDGET} labels\n"
            )


# The largest prime below `block._PRIME_TEST_BOUND`, where the primality
# test stops being exact.
LARGEST_PRIME = 3317044064679887385961813


def test_verify_runs_at_every_prime(capsys):
    # verify's work does not grow with p: at n = 1 it passes on both sides of
    # the Fermat prime 65537, and at n = 1 and 8 at the largest prime the
    # primality test admits, in both formats.
    start = perf_counter()
    for n, p in ((1, 65537), (1, 65539), (1, LARGEST_PRIME), (8, LARGEST_PRIME)):
        code, out, err = run_cli(["verify", "--n", str(n), "--p", str(p)], capsys)
        assert code == 0 and err == "", (n, p)
        assert out.endswith(f"all checks passed at n={n}, p={p} (13 checks)\n"), (n, p)
        payload = run_json(["verify", "--n", str(n), "--p", str(p)], capsys)
        assert payload["ok"] is True and len(payload["checks"]) == 13, (n, p)
        assert all(check["ok"] for check in payload["checks"]), (n, p)
    assert perf_counter() - start < 5


def refuse_weight_table(monkeypatch):
    """Make building the weight table, (n+1)·n ints, fail the test."""
    def refuse(n, p):
        raise AssertionError(f"the weight table was built at n={n}")

    monkeypatch.setattr(loewylab.cli, "make_context", refuse)


def test_huge_ranks_are_refused_before_the_weight_table(capsys, monkeypatch):
    # Every subcommand checks the (n, p) hypotheses and --i, then the weight
    # table's size, before it builds the table: at n = 20000 it would hold
    # 4 * 10^8 ints, and the sizes of the listings could not be printed.  A
    # table size with more digits than the digit budget is given by its digit
    # count: 8001 at n = 10^4000 under the default budget of 4300 digits, and
    # 801 at n = 10^400 under the least int-to-str limit, 640.
    refuse_weight_table(monkeypatch)
    default = sys.get_int_max_str_digits()
    runs = [[command, *(["--i", "0"] if command in LAYER_SIZES else [])] for command in COMMANDS]
    try:
        for n, limit, size in [
            (20000, default, str(20001 * 20000)),
            (10**12, default, str((10**12 + 1) * 10**12)),
            (10**4000, 4300, "<8001 digits>"),
            (10**400, 640, "<801 digits>"),
        ]:
            sys.set_int_max_str_digits(limit)
            p = next(q for q in (3, 5, 7) if (n + 1) % q)
            for command, *index in runs + [["ext", "--i", "0"]]:
                argv = [command, "--n", str(n), "--p", str(p), *index]
                assert refused_at_once(argv, capsys) == (
                    f"error: {command} at n={n} would build a weight table of {size} ints, "
                    f"over the budget of {WEIGHT_BUDGET} ints\n"
                )
    finally:
        sys.set_int_max_str_digits(default)
    for argv, message in [
        (["verma", "--n", "20000", "--p", "9", "--i", "0"], "p must be an odd prime"),
        (["proj", "--n", "20000", "--p", "3", "--i", "0"], "p must not divide n + 1"),
        (["ext", "--n", "20000", "--p", "7", "--i", "20001"], "block index i must be in [0, 20000]"),
        (["block", "--n", "0", "--p", "7"], "rank parameter n must be >= 1"),
    ]:
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "") and err.startswith("error: " + message), argv


# (command, largest n admitted, size at n, budget, what the message says)
TABLE_BUDGETS = [
    ("block", 417, lambda n: 3 * n * (n + 1), BLOCK_BUDGET,
     "write {} weight coordinates, over the budget of {} coordinates"),
    ("dim", 70, lambda n: n * (3 * n * n + 1) // 2, DIM_BUDGET,
     "evaluate {} root pairings, over the budget of {} pairings"),
    ("ext", 723, lambda n: (n + 1) ** 2, EXT_BUDGET,
     "tabulate {} Ext^1 kinds, over the budget of {} kinds"),
]


def test_table_budget_edges(capsys, monkeypatch):
    # block writes 3n(n+1) weight coordinates, dim evaluates n(3n^2+1)/2
    # root pairings (n(n+1)/2 per simple, n(n-1)/2 per parabolic cover), and
    # the ext table holds (n+1)^2 kinds: each one's largest admitted rank
    # runs, and the next is refused before the weight table is built.  So is
    # `ext --i` past the weight table's budget.
    for command, under, size_of, budget, what in TABLE_BUDGETS:
        assert size_of(under) <= budget < size_of(under + 1)
        argv = [command, "--n", str(under), "--p", str(next(q for q in (3, 5, 7) if (under + 1) % q))]
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err == "" and out.startswith(("singular block", "dimensions", "Ext^1"))
    rank = 1023
    assert rank * (rank + 1) <= WEIGHT_BUDGET < (rank + 1) * (rank + 2)
    code, out, err = run_cli(["ext", "--n", str(rank), "--p", "5", "--i", "511"], capsys)
    assert code == 0 and err == "" and "2048 labels" in out
    refuse_weight_table(monkeypatch)
    for command, under, size_of, budget, what in TABLE_BUDGETS:
        n = under + 1
        argv = [command, "--n", str(n), "--p", str(next(q for q in (3, 5, 7) if (n + 1) % q))]
        assert run_cli(argv, capsys) == (
            2, "", f"error: {command} at n={n} would {what.format(size_of(n), budget)}\n"
        )
    n = rank + 1
    assert run_cli(["ext", "--n", str(n), "--p", "3", "--i", "0"], capsys) == (
        2, "", f"error: ext at n={n} would build a weight table of {n * (n + 1)} ints, "
        f"over the budget of {WEIGHT_BUDGET} ints\n"
    )


def test_dim_refuses_numbers_too_long_to_print(capsys):
    # dim prints the baby Verma dimension p^(n(n+1)/2), its largest number,
    # of about n(n+1)/2·log10 p digits.  Past CPython's default limit of 4300
    # digits for int-to-str conversion it is refused up front in text and
    # JSON, not printed as a traceback.
    assert DIGIT_BUDGET == 4300
    for argv, digits in [
        (["dim", "--n", "70", "--p", "73"], 4631),
        (["dim", "--n", "19", "--p", "3317044064679887385961813"], 4659),
    ]:
        p = argv[-1]
        for fmt in ([], ["--format", "json"]):
            assert refused_at_once(argv + fmt, capsys) == (
                f"error: dim at n={argv[2]}, p={p} would print a {digits}-digit dimension, "
                f"over the budget of {DIGIT_BUDGET} digits\n"
            ), argv + fmt
    # At the largest prime the primality test admits, n = 18 prints 4194 digits.
    argv = ["dim", "--n", "18", "--p", "3317044064679887385961813"]
    code, out, err = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0 and err == ""
    assert len(str(json.loads(out)["verma_dimension"])) == 4194
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == "" and out.startswith("dimensions in the block, n=18")


def test_dim_digit_budget_follows_a_lower_interpreter_limit():
    # An interpreter started with a lower int-to-str limit (640 is the least
    # CPython accepts) refuses past that limit instead of raising: p^820 at
    # n = 40, p = 7 has 693 digits, and p^465 at n = 30 has 393 and prints.
    env = {**module_env(), "PYTHONINTMAXSTRDIGITS": "640"}
    for n, code, err in [
        (40, 2, "error: dim at n=40, p=7 would print a 693-digit dimension, "
                "over the budget of 640 digits\n"),
        (30, 0, ""),
    ]:
        for fmt in ("text", "json"):
            run = subprocess.run(
                [sys.executable, "-m", "loewylab", "dim", "--n", str(n), "--p", "7", "--format", fmt],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert (run.returncode, run.stderr) == (code, err), (n, fmt)
            assert (run.stdout == "") == (code == 2)


def test_dim_digit_budget_reads_the_limit_when_it_runs(capsys):
    # A program that lowers the int-to-str limit after importing the command
    # line is refused past the limit as it stands when `main` runs, not met
    # by a ValueError from printing the dimension.
    default = sys.get_int_max_str_digits()
    argv = ["dim", "--n", "40", "--p", "7"]
    sys.set_int_max_str_digits(640)
    try:
        for fmt in ("text", "json"):
            assert run_cli(argv + ["--format", fmt], capsys) == (
                2, "", "error: dim at n=40, p=7 would print a 693-digit dimension, "
                "over the budget of 640 digits\n"
            ), fmt
        code, out, err = run_cli(["dim", "--n", "30", "--p", "7", "--format", "json"], capsys)
        assert code == 0 and err == ""
    finally:
        sys.set_int_max_str_digits(default)
    code, out, err = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0 and err == "" and len(str(json.loads(out)["verma_dimension"])) == 693


def test_digit_budget_is_its_constant_without_an_interpreter_limit(capsys, monkeypatch):
    # An interpreter with no int-to-str limit, set to 0 or without
    # `sys.get_int_max_str_digits` at all (CPython 3.10.0 to 3.10.6), refuses
    # past DIGIT_BUDGET digits: a 4631-digit dimension and a twist of 4300
    # nines are refused, and the 4194-digit dimension at n = 18 prints.
    default = sys.get_int_max_str_digits()
    twist = ["verma", "--n", "1", "--p", "5", "--i", "0", "--nu", "9" * DIGIT_BUDGET]
    sys.set_int_max_str_digits(0)
    try:
        for has_limit_getter in (True, False):
            with monkeypatch.context() as patch:
                if not has_limit_getter:
                    patch.delattr(sys, "get_int_max_str_digits")
                assert run_cli(["dim", "--n", "70", "--p", "73"], capsys) == (
                    2, "", "error: dim at n=70, p=73 would print a 4631-digit dimension, "
                    f"over the budget of {DIGIT_BUDGET} digits\n"
                ), has_limit_getter
                code, out, err = run_cli(["dim", "--n", "18", "--p", str(LARGEST_PRIME)], capsys)
                assert code == 0 and err == "" and out.startswith("dimensions in the block, n=18")
                assert run_cli(twist, capsys) == (
                    2, "", "error: verma with this twist would print a label coordinate "
                    f"over the budget of {DIGIT_BUDGET} digits\n"
                ), has_limit_getter
    finally:
        sys.set_int_max_str_digits(default)


def test_twists_past_the_digit_limit_are_refused_before_any_output(capsys):
    # A label lies at most its command's reach (1 for a Verma and `ext --i`,
    # 2 for a cover, 1 for a cover at rank 1) from the twist in each
    # coordinate.  A twist, by --nu or by --eps, that could put a label
    # coordinate past the int-to-str limit as it stands when `main` runs is
    # refused in either format with one error line and nothing written, not
    # met by a ValueError mid-write; the largest coordinates admitted print.
    default = sys.get_int_max_str_digits()
    top = 10**640
    sys.set_int_max_str_digits(640)
    runs = [
        (command, "2", "1", (
            f"--nu={top - reach},0", f"--nu=0,{reach - top}", f"--eps={top - reach},0,0",
            f"--eps={top // 2},{-top // 2},0",
        ), (f"--nu={top - reach - 1},{reach + 1 - top}", f"--eps={top - reach - 1},0,0"))
        for command, reach in (("verma", 1), ("verma-dual", 1), ("proj", 2), ("ext", 1))
    ]
    runs.append(("proj", "1", "0", (f"--nu={top - 1}", f"--nu={1 - top}", f"--eps={top - 1},0"),
                 (f"--nu={top - 2}", f"--nu={2 - top}", f"--eps=0,{top - 2}")))
    try:
        for command, n, i, refused, admitted in runs:
            argv = [command, "--n", n, "--p", "5", "--i", i, "--full"]
            for fmt in ("text", "json"):
                for twist in refused:
                    assert run_cli(argv + [twist, "--format", fmt], capsys) == (
                        2, "", f"error: {command} with this twist would print a label "
                        "coordinate over the budget of 640 digits\n"
                    ), (command, n, fmt, twist[:8])
                for twist in admitted:
                    code, out, err = run_cli(argv + [twist, "--format", fmt], capsys)
                    assert code == 0 and err == "" and out, (command, n, fmt, twist[:8])
    finally:
        sys.set_int_max_str_digits(default)


def test_every_subcommand_runs_or_refuses_at_the_largest_prime(capsys):
    # At n = 1 and 2 every subcommand, at every block index it takes, ends
    # with a result (exit 0), never a refusal or an exception.  At the first
    # odd p past the largest prime, the bound itself, every one is refused.
    bound = _PRIME_TEST_BOUND
    assert is_odd_prime(LARGEST_PRIME) and bound % 2 == 1
    assert [q for q in range(LARGEST_PRIME + 2, bound, 2) if is_odd_prime(q)] == []
    start = perf_counter()
    for n in (1, 2):
        runs = [[command] for command in COMMANDS if command not in LAYER_SIZES]
        runs += [[command, "--i", str(i)] for command in [*LAYER_SIZES, "ext"] for i in range(n + 1)]
        for run in runs:
            for fmt in ("text", "json"):
                argv = [run[0], "--n", str(n), "--p", str(LARGEST_PRIME), *run[1:], "--format", fmt]
                code, out, err = run_cli(argv, capsys)
                assert code == 0 and err == "" and out, argv
            argv = [run[0], "--n", str(n), "--p", str(bound), *run[1:]]
            assert run_cli(argv, capsys) == (
                2, "", f"error: p must be below {bound} for an exact primality test (got {bound})\n"
            ), argv
    assert perf_counter() - start < 3


# ------------------------------------------------------- byte-identity grid


def test_cli_output_byte_identical_on_grid(monkeypatch):
    # Stdout, stderr and exit code of every grid run match the recorded
    # reference (record with `PYTHONPATH=src python tests/cli_fixtures.py`).
    monkeypatch.setenv("COLUMNS", "100")
    assert_digests_match(GRID_FIXTURE, cli_grid())


def test_fixture_replay_lists_a_raising_run_and_replays_the_rest(monkeypatch, tmp_path):
    # A run that raises is listed with its exception, and the runs after it
    # still replay: the `block` run matches, so only the `dim` run is listed.
    monkeypatch.setenv("COLUMNS", "100")
    runs = [["dim", "--n", "1", "--p", "5"], ["block", "--n", "1", "--p", "5"]]
    fixture = tmp_path / "two_runs.json"
    fixture.write_text(json.dumps({" ".join(argv): grid_digest(argv) for argv in runs}))

    def broken(ctx):
        raise KeyError(None)

    monkeypatch.setattr(loewylab.cli, "dimension_table", broken)
    replayed = []

    def recording_main(argv):
        replayed.append(argv)
        main(argv)

    monkeypatch.setattr(cli_fixtures, "main", recording_main)
    assert mismatches(fixture, runs) == ["dim --n 1 --p 5: raised KeyError: None"]
    assert replayed == runs
    with pytest.raises(AssertionError, match="1 runs differ from two_runs.json:\ndim --n 1 --p 5: "
                       "raised KeyError: None$"):
        assert_digests_match(fixture, runs)


def test_cli_output_byte_identical_on_large_listings(monkeypatch):
    # The same for listings of 2^11 to 2^12 labels, truncated and in full.
    monkeypatch.setenv("COLUMNS", "100")
    assert_digests_match(LARGE_FIXTURE, cli_large())
