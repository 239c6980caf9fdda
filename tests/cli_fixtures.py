"""Byte-identity fixtures of the command line, with the standard library only.

Each fixture maps a command line to [exit code, sha256 of stdout, sha256 of
stderr] of one in-process run of `loewylab.cli.main`: `cli_grid.json` for
every subcommand at small n, `cli_large.json` for the listings past text
truncation.  `tests/test_cli.py` compares both under pytest; without pytest,

    PYTHONPATH=src python tests/cli_fixtures.py --check

replays every run, prints each command line whose digests differ, with
which of its exit code, stdout and stderr differ and both exit codes, or
with the exception it raised, and exits 1 if any does.  With no argument
the script records both fixtures, stopping at a run that raises; run that
only on a reference commit.
"""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from loewylab.cli import main

GRID_FIXTURE = Path(__file__).with_name("cli_grid.json")


def cli_grid():
    """Every subcommand at n = 1..3 and p = 5, 7, in text and JSON.

    The module commands run at every block index and at the first invalid
    one (n + 1), untwisted, twisted by w_1 (`--nu`) and by -eps_{n+1}
    (`--eps`), and with a malformed `--nu x`; `jantzen` runs with and
    without `--i`.
    """
    for n in (1, 2, 3):
        for p in (5, 7):
            twists = [
                [],
                ["--nu", ",".join(["1"] + ["0"] * (n - 1))],
                ["--eps", ",".join(["0"] * n + ["-1"])],
                ["--nu", "x"],
            ]
            runs = [["block"], ["dim"], ["verify"], ["jantzen"]]
            runs += [["jantzen", "--i", str(i)] for i in range(n + 2)]
            runs += [["ext", *twist] for twist in twists]
            runs += [
                [command, "--i", str(i), *twist]
                for command in ("verma", "verma-dual", "proj", "ext")
                for i in range(n + 2)
                for twist in twists
            ]
            for command, *rest in runs:
                for fmt in ("text", "json"):
                    yield [command, "--n", str(n), "--p", str(p), *rest, "--format", fmt]


def grid_digest(argv: list[str]) -> list:
    """[exit code, sha256 of stdout, sha256 of stderr] of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(argv)
        except SystemExit as exc:
            code = exc.code
    return [
        0 if code is None else code,
        hashlib.sha256(out.getvalue().encode()).hexdigest(),
        hashlib.sha256(err.getvalue().encode()).hexdigest(),
    ]


LARGE_FIXTURE = Path(__file__).with_name("cli_large.json")


def cli_large():
    """Layer listings past the grid, where text truncation at TRUNCATE_AT fires.

    `verma` and `verma-dual` at n = 11 and 12, i = 0 (no heads), n // 2 and
    n (no tails).  Each (command, n) meets all three twists (none, a `--nu`
    with coordinates beyond ±9, an `--eps`) and all three formats (text,
    text --full, JSON); the untwisted middle listings at n = 12 in JSON and
    two `proj --n 6` listings close the set.  Then the largest `jantzen`
    report admitted, n = 31 at p = 3, whole and restricted by `--i`, and one
    report each at n = 18, p = 7 (JSON) and n = 22, p = 5 (text, full).  Last,
    `ext --i` at n = 300, whose 2n + 2 first-layer labels pass TRUNCATE_AT:
    twisted in JSON and in text, and untwisted at i = 0 in full.  Then three
    JSON lists that span many chunks of rows: `proj --n 8 --i 2`, `ext --i`
    at n = 60 and `jantzen --n 12 --i 0`.  Then the whole `ext` table at
    n = 60, in text and in JSON.  Last, text past the grid: `proj --n 8 --i 2`
    and `verma --n 14 --p 7 --i 7` in full, `block --n 40 --p 7` in text and
    JSON, and the whole `jantzen --n 18 --p 7` report in full text.  Last, the
    `verify` battery at the benchmark's (n, p) = (4, 3), (5, 5), (5, 7),
    (5, 11) and (6, 5), in text and JSON.  Last, the three largest JSON
    listings admitted: `proj --n 12 --p 5` at i = 0 and 12 and `verma --n 16
    --p 5 --i 8`.
    """
    formats = [["--format", "text"], ["--format", "text", "--full"], ["--format", "json"]]
    for n, p in ((11, 5), (12, 7)):
        nu = ["-105", "0", "7", "0", "12", "-1"] + ["0"] * (n - 8) + ["3", "-40"]
        eps = ["11"] + ["0"] * (n - 1) + ["-3"]
        twists = [[], ["--nu=" + ",".join(nu)], ["--eps=" + ",".join(eps)]]
        for c, command in enumerate(("verma", "verma-dual")):
            for k, i in enumerate((0, n // 2, n)):
                yield [command, "--n", str(n), "--p", str(p), "--i", str(i), *twists[k],
                       *formats[(k + c + n) % 3]]
    # The largest JSON with both heads and tails, untwisted.
    for command in ("verma", "verma-dual"):
        yield [command, "--n", "12", "--p", "7", "--i", "6", "--format", "json"]
    yield ["proj", "--n", "6", "--p", "5", "--i", "3", "--format", "text"]
    yield ["proj", "--n", "6", "--p", "5", "--i", "2", "--nu=10,-1,0,0,-12,1", "--format", "json"]
    jantzen = ["jantzen", "--n", "31", "--p", "3"]
    for rest in (["--format", "json"], ["--format", "text"], ["--format", "text", "--full"],
                 ["--i", "17", "--format", "text"], ["--i", "17", "--format", "json"]):
        yield jantzen + rest
    # The s >= 1 fences at p = 7 and p = 5, where the p = 3 reports reach few.
    yield ["jantzen", "--n", "18", "--p", "7", "--format", "json"]
    yield ["jantzen", "--n", "22", "--p", "5", "--format", "text", "--full"]
    nu = "--nu=" + ",".join(str(k % 7 - 3) for k in range(300))
    ext = ["ext", "--n", "300", "--p", "5"]
    for rest in (["--i", "150", nu, "--format", "json"], ["--i", "150", nu, "--format", "text"],
                 ["--i", "0", "--format", "text", "--full"]):
        yield ext + rest
    # Lists written in several chunks: the largest cover admitted at n = 8,
    # palindromic, whose middle layer of 3631 rows is its own mirror, a
    # longer `ext --i` cover and a report restricted by `--i`.
    yield ["proj", "--n", "8", "--p", "5", "--i", "2", "--format", "json"]
    yield ["ext", "--n", "60", "--p", "7", "--i", "30", "--format", "json"]
    yield ["jantzen", "--n", "12", "--p", "3", "--i", "0", "--format", "json"]
    # The whole Ext^1 table past the grid's n = 3, in both formats.
    for fmt in ("text", "json"):
        yield ["ext", "--n", "60", "--p", "7", "--format", fmt]
    # Text past the grid: a cover's multiplicity prefixes at scale, a whole
    # Verma listing at p = 7 and a whole p = 7 report; block rows in both
    # formats.
    yield ["proj", "--n", "8", "--p", "5", "--i", "2", "--format", "text", "--full"]
    yield ["verma", "--n", "14", "--p", "7", "--i", "7", "--format", "text", "--full"]
    for fmt in ("text", "json"):
        yield ["block", "--n", "40", "--p", "7", "--format", fmt]
    yield ["jantzen", "--n", "18", "--p", "7", "--format", "text", "--full"]
    # The `verify` battery at the benchmark's sizes, in both formats.
    for n, p in ((4, 3), (5, 5), (5, 7), (5, 11), (6, 5)):
        for fmt in ("text", "json"):
            yield ["verify", "--n", str(n), "--p", str(p), "--format", fmt]
    # The largest listings LAYER_BUDGET admits: the covers at n = 12 whose
    # rows reach the widest label packing, and the middle Verma at n = 16.
    for i in ("0", "12"):
        yield ["proj", "--n", "12", "--p", "5", "--i", i, "--format", "json"]
    yield ["verma", "--n", "16", "--p", "5", "--i", "8", "--format", "json"]


def fixtures():
    """Each fixture file with the runs it records."""
    return ((GRID_FIXTURE, cli_grid()), (LARGE_FIXTURE, cli_large()))


def record_fixtures() -> None:
    """Write the digests of the grid and of the large listings to their
    fixtures; run only on a reference commit."""
    for fixture, runs in fixtures():
        digests = {" ".join(argv): grid_digest(argv) for argv in runs}
        fixture.write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n")


def mismatches(fixture: Path, runs) -> list[str]:
    """Each command line whose digests differ from the fixture's, including
    any that only one of `runs` and the fixture has, with what differs: the
    exit code, stdout or stderr, and both exit codes.  A run that raises is
    listed with the exception's type and message, and the rest still run."""
    expected = json.loads(fixture.read_text())
    got = {}
    for argv in runs:
        try:
            got[" ".join(argv)] = grid_digest(argv)
        except Exception as exc:
            got[" ".join(argv)] = f"raised {type(exc).__name__}: {exc}"
    lines = []
    for argv in sorted(got.keys() | expected.keys()):
        now, then = got.get(argv), expected.get(argv)
        if isinstance(now, str):
            lines.append(f"{argv}: {now}")
        elif now is None or then is None:
            lines.append(f"{argv}: {'not run' if now is None else 'not in ' + fixture.name}")
        elif now != then:
            parts = [part for part, a, b in zip(("exit code", "stdout", "stderr"), now, then) if a != b]
            lines.append(f"{argv}: differs in {', '.join(parts)} (exit {then[0]} recorded, {now[0]} now)")
    return lines


def assert_digests_match(fixture: Path, runs) -> None:
    bad = mismatches(fixture, runs)
    if bad:
        raise AssertionError(f"{len(bad)} runs differ from {fixture.name}:\n" + "\n".join(bad))


if __name__ == "__main__":
    os.environ["COLUMNS"] = "100"
    if sys.argv[1:] == ["--check"]:
        bad = [argv for fixture, runs in fixtures() for argv in mismatches(fixture, runs)]
        print("\n".join(bad) if bad else "every run matches its fixture")
        sys.exit(1 if bad else 0)
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    record_fixtures()
