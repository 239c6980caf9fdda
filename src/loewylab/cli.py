"""Command line front end: parses arguments, renders results, sets exit codes.

The library computes and checks; `main` builds the block context (and
checks `--i`) once. Each subcommand returns one JSON payload, which `main`
writes with --format json or else renders as text from that payload, n and
p alone: the text is a view of the JSON.  `_dump_json` writes the JSON
exactly as `json.dumps(payload, sort_keys=True, indent=2)` would, its long
lists from %-format templates, and the text views format labels from
templates too, without --full only the first TRUNCATE_AT of each listing.
Both formats leave through one batching write loop, `_write_batched`, and
everything that can raise runs before its first write, so an error leaves
stdout empty.
Subcommands: block, verma, verma-dual, proj, ext, dim, jantzen, verify,
declared once in `_commands` (flags, and the values set on the parsed
arguments: among them the `budgets` by which work is refused up front,
after the (n, p) hypotheses, `--i` and the weight table's row).  So is a
twist that could put a label coordinate past the digit budget (`_twist`).
A plainly well-formed command line is parsed from that table without
argparse (`_parse_plain`), which is then never imported: its import with
gettext, its parsers and its lazily imported `locale` cost a few ms per
run.  Any other, help included, imports argparse and goes to the parser
built from the same table (`_build_parser`), which alone writes help,
usage and argument errors.
Exit codes: 0 on success, 1 when a verification fails, 2 on invalid or
oversized input (the message names the violated hypothesis or the size),
141 (128 + SIGPIPE, as shells report it) when the reader of stdout closes
it before the output ends; nothing is written to stderr then.  A run
whose stdout is closed before it starts writes nothing and exits with the
command's own code.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import chain, islice
from math import comb, log10
from types import SimpleNamespace

from .block import BlockContext, check_hypotheses, check_index, make_context, mu_weight, nu_weight
from .chardim import CertificateRow, check_block_simplicity
from .checks import dimension_table, identities_hold, verify_checks
from .ext import ext1_g1_row, rad1_qhat
from .lattice import from_eps
from .loewy import Block, Row, verma_blocks
from .projective import CONDITIONAL_FLAG_KEY, cover_rows

__all__ = ["main"]

TRUNCATE_AT = 200
# Layer listings are refused above this many labels, counted with
# multiplicity.  The largest one admitted, `verma --n 16 --p 5 --i 8 --format
# json` (22 MB of JSON), took about 0.07 s and 15 MB peak RSS, the median of
# fresh processes on a 2-core VM.
LAYER_BUDGET = 1 << 16
# `jantzen` is refused above this many (block index, positive root) pairs,
# (n+1)·n(n+1)/2 at rank n.  The largest one admitted, n = 31 at p = 3, took
# about 0.15 s and 17 MB and wrote 6 MB of JSON, the median of fresh
# processes on a 2-core VM.
PAIR_BUDGET = 1 << 14
# `verify` is refused above this many labels, the (n+1)·4^n labels with
# multiplicity of the n+1 covers it sums at nu = 0; no check grows with p.
# The largest one admitted, n = 8, took about 0.27 s and 30 MB at p = 7 and
# at 3317044064679887385961813, the largest prime `is_odd_prime` decides,
# the median of fresh processes on a 2-core VM; the battery at n = 9, run
# through the library, took about 0.8 s and 65 MB.
VERIFY_BUDGET = 1 << 20
# `block` is refused above this many weight coordinates, three weights of n
# coordinates per block index, 3n(n+1) at rank n.  The largest one admitted,
# n = 417 at p = 3, took about 0.75 s and 62 MB with --format json, the
# median of fresh processes on a 2-core VM.
BLOCK_BUDGET = 1 << 19
# `dim` is refused above this many root pairings: n(n+1)/2 for each of the
# n+1 simples' Weyl dimensions and n(n-1)/2 for each of the 2n parabolic
# covers, n(3n^2+1)/2 in all.  The largest one admitted, n = 70 at p = 7,
# took 0.40-0.65 s, the medians of fresh processes on a 2-core VM on
# different days.
DIM_BUDGET = 1 << 19
# The `ext` table is refused above this many Ext^1 kinds, (n+1)^2 at rank n.
# The largest one admitted, n = 723, took about 0.3 s and 65 MB with
# --format json, the median of fresh processes on a 2-core VM.
EXT_BUDGET = 1 << 19
# Every subcommand is refused above this many ints in the weight table,
# (n+1)·n at rank n, before its own row is read: so no size below is
# computed at a rank where it would be too large to compute or print.  Only
# `ext --i` reaches it: at n = 1023, p = 3, i = 511 it took about 0.18 s and
# 39 MB, and 0.32 s and 40 MB with --format json (23 MB of JSON), the median
# of fresh processes on a 2-core VM.
WEIGHT_BUDGET = 1 << 20
# `dim` is refused above this many digits in the largest number it prints,
# the baby Verma dimension p^(n(n+1)/2): CPython's default limit on
# converting an int to a string, which such a number would exceed.  An
# interpreter started with a lower limit (PYTHONINTMAXSTRDIGITS, or
# -X int_max_str_digits, or sys.set_int_max_str_digits before `main` runs)
# refuses above that limit instead; 0 is no limit.
DIGIT_BUDGET = 4300


def _digit_budget() -> int:
    """DIGIT_BUDGET, or the interpreter's int-to-str limit as it stands now
    when that is lower; CPython before 3.10.7 has none."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return min(DIGIT_BUDGET, limit) if limit else DIGIT_BUDGET


def _digits(x: int) -> int:
    """The decimal digits of x > 0, without converting x to a string."""
    digits = int(x.bit_length() * log10(2))  # the digit count, or one less
    return digits + (x >= 10**digits)


def _size_text(size: int) -> str:
    """`size` in decimal for a refusal message, or its digit count when it
    has more than `_digit_budget()` digits, too many to print."""
    digits = _digits(size)
    return str(size) if digits <= _digit_budget() else f"<{digits} digits>"


# The layer listings' refusal message, and the weight table's budget row,
# which every subcommand checks before its own `budgets` (`_commands`).
_LISTS = (
    "{command} at n={n}, i={i} would list {size} labels with multiplicity, "
    "over the budget of {budget} labels"
)
_WEIGHTS = (
    lambda n, p, i: (n + 1) * n, WEIGHT_BUDGET,
    "{command} at n={n} would build a weight table of {size} ints, "
    "over the budget of {budget} ints",
)


def main(argv: list[str] | None = None) -> None:
    """Run one command line; exits by SystemExit with the command's code.

    The cyclic garbage collector is off while the command runs, and on every
    way out the caller's setting is put back.  A command's data are tuples,
    lists and dicts of ints and strs, none of them in a cycle, so each pass
    would traverse them and free nothing.  The one cycle a JSON command
    makes, the closures of json.dumps' indenting encoder, is left to the
    first pass after `main`.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str] | None) -> None:
    """Parse `argv`, refuse oversized work, build the payload and write it.

    Everything that can raise runs before `_write_batched`'s first write,
    so an error exits 2 with stdout empty.  A reader that closes stdout
    early ends the run with exit 141 and nothing on stderr; with no stdout
    at all (`sys.stdout` is None) nothing is written and the command's own
    code stands.
    """
    if argv is None:
        argv = sys.argv[1:]
    commands = _commands()
    args = _parse_plain(argv, commands)
    if args is None:
        args = _build_parser(commands).parse_args(argv, SimpleNamespace())
    n, i = args.n, getattr(args, "i", None)
    try:
        check_hypotheses(n, args.p)
        if i is not None:
            check_index(n, i)
        for size_of, budget, message in (_WEIGHTS, *args.budgets):
            size = size_of(n, args.p, i)
            if size > budget:
                raise ValueError(message.format(
                    command=args.command, n=n, p=args.p, i=i, size=_size_text(size), budget=budget
                ))
        ctx = make_context(n, args.p)
        payload, code = args.func(ctx, args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        raise SystemExit(2) from None
    if sys.stdout is None:
        # Stdout was closed before the run: nothing to write, the code stands.
        raise SystemExit(code)
    if args.format == "json":
        doc = {"n": ctx.n, "p": ctx.p, **payload}
        pieces = chain(_dump_json(doc, getattr(args, "factors_json", None)), ["\n"])
    else:
        lines = args.render(ctx, payload, getattr(args, "full", False))
        pieces = (piece for line in lines for piece in (line, "\n"))
    try:
        _write_batched(pieces)
    except BrokenPipeError:
        # The reader closed early.  Point stdout's fd, if any, at the null device,
        # so the interpreter's last flush of what is still buffered is silent.
        try:
            fd = sys.stdout.fileno()
        except ValueError:  # io.UnsupportedOperation, or a closed stream
            raise SystemExit(141) from None
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        raise SystemExit(141) from None
    raise SystemExit(code)


def _write_batched(pieces: Iterable[str]) -> None:
    """Write `pieces` to stdout in batches, then flush.

    Pieces are gathered until they hold _BATCH characters, and each batch
    is one `write`; the rest, a partial batch, is one more.  So every write
    but the last holds at least _BATCH characters and at most _BATCH - 1
    plus one piece, and a document shorter than _BATCH is one write.
    """
    write, batch, size = sys.stdout.write, [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _BATCH:
            write("".join(batch))
            batch, size = [], 0
    write("".join(batch))
    sys.stdout.flush()


# ---------------------------------------------------------------- arguments

# A flag is (name, type, required, help, exclusive group).  The type is int
# or str for a flag that takes a value, bool for a switch that sets True, or
# a tuple of choices, the first of them the default; an absent flag is None
# otherwise.  Of the flags that share an exclusive group, at most one may
# be given.
_N = ("n", int, True, "rank; the group is SL(n+1)", None)
_P = ("p", int, True, "odd prime not dividing n+1", None)
_NU = ("nu", str, False, "twist in fundamental coordinates, n comma-separated ints (default 0)",
       "twist")
_EPS = ("eps", str, False, "twist in eps coefficients, n+1 comma-separated ints", "twist")
_FORMAT = ("format", ("text", "json"), False, None, None)
_FULL = ("full", bool, False, "never truncate long listings", None)
_BASIC = (_N, _P, _FORMAT)
_LISTING = (_N, _P, _NU, _EPS, _FORMAT, _FULL, ("i", int, True, "block index in [0, n]", None))


def _commands() -> dict[str, tuple[str, tuple, dict]]:
    """The subcommands, in the order the usage line lists them: name ->
    (help, flags in usage order, the values set on its parsed arguments).

    Built per call, so each function in it is the one this module's
    namespace holds when `main` runs (a wrapper patched in there, as
    `bench/spans.py` and the tests do, sees the call), and the digit budget
    is the interpreter's limit as it stands then.  Each command's `budgets`
    are the work it refuses up front, after `_WEIGHTS`: rows (closed-form
    size at (n, p, i), budget, the error message naming both), where a layer
    listing's size counts its labels with multiplicity.  A layer command
    sets the object kind, its layers function (a Verma's layers are blocks
    (t, heads, tails), and the dual Verma's are the Verma's, reversed; a
    cover's are rows (i, nu, mult), which carry multiplicities and have no
    product form) and whether the result is conditional on the Loewy length
    conjecture; a Verma also sets its factor writer, `_blocks_json`
    (`_dump_json` writes rows by default).  A twisted command sets how far
    its labels reach from the twist in a coordinate at rank n >= 2: 2 for a
    cover, else 1; at rank 1 every label lies within 1 (`_twist` reads
    min(reach, n)).
    """
    verma = {"func": cmd_layers, "render": _blocks_text, "factors_json": _blocks_json,
             "conditional": False, "reach": 1,
             "budgets": ((lambda n, p, i: 2**n, LAYER_BUDGET, _LISTS),)}
    return {
        "block": ("the block's weight table", _BASIC,
                  {"func": cmd_block, "render": _block_text, "budgets": ((
                      lambda n, p, i: 3 * n * (n + 1), BLOCK_BUDGET,
                      "block at n={n} would write {size} weight coordinates, "
                      "over the budget of {budget} coordinates",
                  ),)}),
        "verma": ("radical layers of a baby Verma module", _LISTING,
                  {**verma, "kind": "Zhat", "layers_of": verma_blocks}),
        "verma-dual": ("radical layers of the dual baby Verma", _LISTING,
                       {**verma, "kind": "Zhat_dual",
                        "layers_of": lambda ctx, label: verma_blocks(ctx, label)[::-1]}),
        "proj": ("radical layers of a projective cover (conditional)", _LISTING,
                 {"func": cmd_layers, "render": _layers_text, "conditional": True, "kind": "Qhat",
                  "layers_of": cover_rows, "reach": 2,
                  "budgets": ((lambda n, p, i: (n + 1) * comb(n, i) * 2**n, LAYER_BUDGET, _LISTS),)}),
        "ext": ("Ext^1 table, or one simple's Ext neighbourhood",
                (*_LISTING[:-1], ("i", int, False, "block index; omit for the full table", None)),
                {"func": cmd_ext, "render": _ext_text, "reach": 1, "budgets": ((
                    # `ext --i` finds the n+1 kinds from block index i.
                    lambda n, p, i: (n + 1) ** 2 if i is None else n + 1, EXT_BUDGET,
                    "ext at n={n} would tabulate {size} Ext^1 kinds, over the budget of {budget} kinds",
                ),)}),
        "dim": ("dimensions of simples and parabolic covers", _BASIC,
                {"func": cmd_dim, "render": _dim_text, "budgets": (
                    (
                        lambda n, p, i: n * (3 * n * n + 1) // 2, DIM_BUDGET,
                        "dim at n={n} would evaluate {size} root pairings, "
                        "over the budget of {budget} pairings",
                    ),
                    (
                        # The digits of p^(n(n+1)/2); p is never a power of 10.
                        lambda n, p, i: int(n * (n + 1) // 2 * log10(p)) + 1, _digit_budget(),
                        "dim at n={n}, p={p} would print a {size}-digit dimension, "
                        "over the budget of {budget} digits",
                    ),
                )}),
        "jantzen": ("witness certificates for block simplicity",
                    (*_BASIC, _FULL, ("i", int, False, "restrict the listing to one block index", None)),
                    {"func": cmd_jantzen, "render": _jantzen_text, "budgets": ((
                        lambda n, p, i: (n + 1) * n * (n + 1) // 2, PAIR_BUDGET,
                        "jantzen at n={n} would check {size} (block index, root) pairs, "
                        "over the budget of {budget} pairs",
                    ),)}),
        "verify": ("machine-check every library invariant at (n, p)", _BASIC,
                   {"func": cmd_verify, "render": _verify_text, "budgets": ((
                       lambda n, p, i: (n + 1) * 4**n, VERIFY_BUDGET,
                       "verify at n={n} would stack {size} cover labels with multiplicity, "
                       "over the budget of {budget} labels",
                   ),)}),
    }


def _default(kind) -> object:
    """The value of an absent flag of this type."""
    if kind is bool:
        return False
    return kind[0] if isinstance(kind, tuple) else None


def _parse_plain(argv: list[str], commands: dict) -> SimpleNamespace | None:
    """The arguments argparse would parse from a plainly well-formed `argv`,
    found without building a parser, or None for any other `argv`.

    Plainly well-formed: argv[0] names a subcommand, and each later argument
    is one of its flags, each at most once: a switch alone, any other flag
    as `--flag value` with a value not starting with "-" or as
    `--flag=value` with a value not starting with "--" (argparse takes a
    negative number there as it stands, and drops a value "--").  Every
    required flag is given, each int value passes int(), each choice is one
    of its choices, and at most one flag of an exclusive group is given.
    Help, abbreviations, `--`, values that start with "-" after a space and
    every malformed argv return None, for argparse to parse or refuse.
    """
    if not argv or argv[0] not in commands:
        return None
    _, flags, defaults = commands[argv[0]]
    by_name = {"--" + flag[0]: flag for flag in flags}
    values = {}
    rest = iter(argv[1:])
    for arg in rest:
        option, eq, value = arg.partition("=")
        flag = by_name.get(option)
        if flag is None or flag[0] in values:
            return None
        name, kind = flag[0], flag[1]
        if kind is bool:
            if eq:
                return None
            values[name] = True
            continue
        if not eq:
            value = next(rest, "-")
        if value.startswith("--" if eq else "-"):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is not str and value not in kind:
            return None
        values[name] = value
    groups = [flag[4] for flag in flags if flag[4] is not None and flag[0] in values]
    if len(groups) != len(set(groups)):
        return None
    for name, kind, required, _, _ in flags:
        if name not in values:
            if required:
                return None
            values[name] = _default(kind)
    return SimpleNamespace(command=argv[0], **values, **defaults)


def _build_parser(commands: dict):
    """The argparse parser of every subcommand in `commands`, for what
    `_parse_plain` leaves: help, usage and errors list every subcommand.

    argparse, and the gettext it imports, load only here.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="loewylab",
        description="Exact invariants of the singular block of G1T-modules for SL(n+1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags, defaults) in commands.items():
        sp = sub.add_parser(command, help=help_text)
        groups = {}
        for name, kind, required, flag_help, group in flags:
            if group is not None and group not in groups:
                groups[group] = sp.add_mutually_exclusive_group()
            target = sp if group is None else groups[group]
            if kind is bool:
                how = {"action": "store_true"}
            elif isinstance(kind, tuple):
                how = {"choices": kind}
            else:
                how = {"type": kind, "required": required}
            target.add_argument("--" + name, default=_default(kind), help=flag_help, **how)
        sp.set_defaults(**defaults)
    return parser


# ---------------------------------------------------------------- helpers


def _csv_ints(text: str, want: int, flag: str) -> tuple[int, ...]:
    try:
        vals = tuple(int(s) for s in text.split(","))
    except ValueError:
        raise ValueError(f"--{flag} must be comma-separated integers (got {text!r})")
    if len(vals) != want:
        raise ValueError(f"--{flag} needs exactly {want} comma-separated integers (got {len(vals)})")
    return vals


def _twist(args: SimpleNamespace, n: int) -> tuple[int, ...]:
    """The twist of --eps or --nu, else 0: refused if a label within its
    command's reach could have a coordinate past `_digit_budget()` digits."""
    nu = (0,) * n
    if args.eps is not None:
        nu = from_eps(_csv_ints(args.eps, n + 1, "eps"))
    elif args.nu is not None:
        nu = _csv_ints(args.nu, n, "nu")
    top, limit = max(map(abs, nu)) + min(args.reach, n), _digit_budget()
    if _digits(top) > limit:
        raise ValueError(f"{args.command} with this twist would print a label coordinate "
                         f"over the budget of {limit} digits")
    return nu


def _object_str(kind: str, i: int, nu: tuple[int, ...]) -> str:
    return f"{kind}(i={i}, nu=[{','.join(map(str, nu))}])"


# A document's template-written lists go through json.dumps as this slot,
# which cannot occur in the encoded skeleton otherwise (json.dumps escapes NUL).
_SLOT = "\x00rows"
_SLOT_JSON = json.dumps(_SLOT)
# Factor rows and certificates are written this many objects to a piece.
_CHUNK = 64
# Stdout is written in batches of at least this many characters (the output
# is ASCII, so bytes).  A text stream hands a write past its 8 KiB buffer to
# the kernel whole, and each write(2) wakes a reader on a pipe: the 2.36 MB
# of `verma-dual --n 13 --p 3 --i 6 --format json` leave in 63 writes, not
# 295 as through the buffer alone.  Half of Linux's default 64 KiB pipe
# capacity: in fresh processes on a 2-core VM, 16 KiB batches kept less of
# the gain, 64 KiB batches were about as fast at more peak RSS, and 128 KiB
# and 1 MiB batches were slower than no batching.
_BATCH = 1 << 15


def _dump_json(doc: dict, factors_json=None) -> Iterator[str]:
    """`json.dumps(doc, sort_keys=True, indent=2)` as str pieces whose
    concatenation is that text, byte for byte, where the factor rows
    of a layer listing or of `ext --i` stand for the objects
    {"i": i, "mult": mult, "nu": nu}, and a jantzen report's certificate
    rows (i, root, m, s, a, b, beta0, betas) for the objects with those keys.

    `factors_json` writes a layer listing's factor lists: `_factors_json`
    (the default) for rows, `_blocks_json` for a Verma's blocks.

    With `indent` set, json.dumps runs its pure-Python encoder, which spends
    most of a long document's time on its rows.  So each such list is a
    slot of the skeleton json.dumps writes, and one loop fills every slot
    from %-format templates: one factor object per list for its rank, one
    per certificate for its number of betas.  A document with no such list
    (`block`, `dim`, `verify`, the `ext` table) is a skeleton of no slots.

    The work is split in two stages.  This call runs everything that can
    raise, before `main`'s first write, so an error leaves stdout empty:
    the skeleton's json.dumps and its slot count, and each list's writer,
    which builds its templates (and a Verma block's tail texts) and returns
    its pieces as an iterator.  Only putting the payload's ints into those
    templates and joining is left for the iteration, which runs while
    `main` writes: a Verma layer is one piece per head, factor rows and
    certificates are _CHUNK objects to a piece.  A factor list equal to its
    mirror's (layer j and layer L - 1 - j of L, as in a palindromic cover)
    is written twice, so it is formatted once, into a list, in this call.
    No other list is held whole, and the document is never joined into one
    str nor encoded whole into one bytes object.
    """
    lists, write = [], factors_json or _factors_json
    if "layers" in doc:
        lists = [layer["factors"] for layer in doc["layers"]]
        doc = {**doc, "layers": [{**layer, "factors": _SLOT} for layer in doc["layers"]]}
    elif "rad1_cover" in doc:
        lists, write = [doc["rad1_cover"]], lambda rows: _factors_json(rows, 2)
        doc = {**doc, "rad1_cover": _SLOT}
    elif "report" in doc:
        lists, write = [doc["report"]["certificates"]], _certificates_json
        doc = {**doc, "report": {**doc["report"], "certificates": _SLOT}}
    skeleton = json.dumps(doc, sort_keys=True, indent=2).split(_SLOT_JSON)
    if len(skeleton) != len(lists) + 1:
        raise RuntimeError(f"{len(skeleton) - 1} slots in the JSON of {len(lists)} template-written lists")
    # A list equal to its mirror's is formatted once and held for it.
    pieces, held, last = [skeleton[:1]], {}, len(lists) - 1
    for j, (rows, after) in enumerate(zip(lists, skeleton[1:])):
        text = held.pop(j, None)
        if text is None:
            text = write(rows)
            if j < last - j and rows == lists[last - j]:
                text = held[last - j] = list(text)
        pieces += [text, [after]]
    return chain.from_iterable(pieces)


def _chunked(rows: list, format_chunk, close: str) -> Iterator[str]:
    """A JSON list's text in pieces, formatted as they are taken: "[\n",
    `format_chunk` of each _CHUNK rows in turn, with the ",\n" between two
    chunks a piece of its own, and `close`.  `rows` is never empty."""
    yield "[\n"
    yield format_chunk(rows[:_CHUNK])
    for k in range(_CHUNK, len(rows), _CHUNK):
        yield ",\n"
        yield format_chunk(rows[k:k + _CHUNK])
    yield close


def _factor_template(indent: int) -> tuple[str, str, str]:
    """One factor object {"i", "mult", "nu"} of a list whose brackets sit
    `indent` spaces in, at indent=2: its opening through the "nu" bracket,
    one coordinate, its close.  A `layers[*].factors` list sits 6 in."""
    obj, key = " " * (indent + 2), " " * (indent + 4)
    opening = f'{obj}{{\n{key}"i": %d,\n{key}"mult": %d,\n{key}"nu": [\n'
    return opening, " " * (indent + 6) + "%d", f"\n{key}]\n{obj}}}"


def _factors_json(rows: list[Row], indent: int = 6) -> Iterator[str]:
    """The indent=2 text of one factor list whose brackets sit `indent`
    spaces in, as an iterator of pieces: each row (i, nu, mult) is written
    as a factor object, formatted as the pieces are taken.

    Factor lists are never empty and ranks are at least 1 (`make_context`).
    """
    opening, coord, close = _factor_template(indent)
    template = opening + ",\n".join([coord] * len(rows[0][1])) + close

    def format_chunk(chunk):
        return ",\n".join([template % (u, m, *c) for u, c, m in chunk])

    return _chunked(rows, format_chunk, "\n" + " " * indent + "]")


def _blocks_json(blocks: list[Block]) -> Iterator[str]:
    """The indent=2 text of one Verma layer's `factors` list, as an iterator
    of pieces: each label (t, head + tail) of each block (t, heads, tails)
    is written as a factor object with multiplicity one.

    Each object is a head text (the opening and the head's coordinates)
    followed by a tail text (the tail's coordinates and the close).  Each
    block's head template and tail texts are built in this call, so each
    tail is formatted once per block; each head is formatted as the pieces
    are taken, and all objects of one head are one join, one piece: each
    object preceded by the ",\n" between objects, which the layer's first
    object drops.  The head text ends in the coordinates' ",\n" separator
    unless heads or tails are () (i = 0 or i = n).  Layers are never empty,
    and neither are a block's heads and tails.
    """
    opening, coord, close = _factor_template(6)
    parts = []
    for t, heads, tails in blocks:
        sep = ",\n" if heads[0] and tails[0] else ""
        head = ",\n" + opening % (t, 1) + ",\n".join([coord] * len(heads[0])) + sep
        tail = ",\n".join([coord] * len(tails[0])) + close
        parts.append((head, heads, ["", *(tail % c for c in tails)]))
    pieces = ((head % h).join(tail_texts) for head, heads, tail_texts in parts for h in heads)
    return chain(["[\n", next(pieces)[2:]], pieces, ["\n      ]"])


def _certificates_json(rows: list[CertificateRow]) -> Iterable[str]:
    """The indent=2 text of a jantzen report's `certificates` list, as
    pieces: each row (i, root, m, s, a, b, beta0, betas) is written as the
    object {"a", "b", "beta0", "betas", "i", "m", "root", "s"}, formatted
    as the pieces are taken, from templates built in this call, one per
    number of betas.

    Only the root varies between the rows of one witness at one block
    index, so the text before and after the root is formatted once per
    witness while the rows keep that index.
    """
    if not rows:
        return ["[]"]
    templates = {b: _certificate_template(b) for b in {row[5] for row in rows}}
    at, around = None, {}

    def format_chunk(chunk):
        nonlocal at, around
        texts = []
        for i, root, m, s, a, b, beta0, betas in chunk:
            if i != at:
                at, around = i, {}
            witness = (m, s, a, b, beta0, betas)
            parts = around.get(witness)
            if parts is None:
                head, tail = templates[b]
                parts = around[witness] = (
                    head % (a, b, *beta0, *[k for beta in betas for k in beta], i, m), tail % s
                )
            texts.append(f"{parts[0]}{root[0]},\n          {root[1]}{parts[1]}")
        return ",\n".join(texts)

    return _chunked(rows, format_chunk, "\n    ]")


def _certificate_template(b: int) -> tuple[str, str]:
    """One certificate object with b betas, its keys in sorted order: the
    text before its root's two coordinates and the text after them."""
    betas = "[]"
    if b:
        beta = "          [\n            %d,\n            %d\n          ]"
        betas = "[\n" + ",\n".join([beta] * b) + "\n        ]"
    return (
        '      {\n        "a": %d,\n        "b": %d,\n'
        '        "beta0": [\n          %d,\n          %d\n        ],\n'
        '        "betas": ' + betas + ',\n        "i": %d,\n        "m": %d,\n'
        '        "root": [\n          ',
        '\n        ],\n        "s": %d\n      }',
    )


def _label_template(n: int) -> str:
    """One label (i; [c_1,...,c_n]) of rank n >= 1 as a %-format template."""
    return "(%d; [" + ",".join(["%d"] * n) + "])"


def _truncate(parts: Iterator[str], count: int, full: bool) -> Iterator[str]:
    """The `count` parts of the iterator `parts`, or without `full` only the
    first TRUNCATE_AT of them and a "... (k more)" entry: the rest are never
    taken, so never formatted."""
    if full or count <= TRUNCATE_AT:
        return parts
    return chain(islice(parts, TRUNCATE_AT), [f"... ({count - TRUNCATE_AT} more)"])


# ---------------------------------------------------------------- commands


def cmd_block(ctx: BlockContext, args: SimpleNamespace) -> tuple[dict, int]:
    rows = [
        {"i": i, "lambda": list(ctx.lambdas[i]), "mu": list(mu_weight(ctx, i)),
         "rho_shifted": list(nu_weight(ctx, i))}
        for i in range(ctx.n + 1)
    ]
    return {"object": "block", "weights": rows}, 0


def _block_text(ctx: BlockContext, payload: dict, full: bool) -> Iterator[str]:
    coords = ",".join(["%d"] * ctx.n)
    row = f"  i=%d: lambda=[{coords}]  mu=[{coords}]  lambda+rho=[{coords}]"
    head = f"singular block for SL({ctx.n + 1}), p = {ctx.p}: {ctx.n + 1} restricted weights"
    rows = (row % (w["i"], *w["lambda"], *w["mu"], *w["rho_shifted"]) for w in payload["weights"])
    return chain([head], rows)


def cmd_layers(ctx: BlockContext, args: SimpleNamespace) -> tuple[dict, int]:
    nu = _twist(args, ctx.n)
    layers = args.layers_of(ctx, (args.i, nu))
    return {
        "object": _object_str(args.kind, args.i, nu),
        "layers": [{"j": j, "factors": rows} for j, rows in enumerate(layers)],
        CONDITIONAL_FLAG_KEY: args.conditional,
    }, 0


def _blocks_text(ctx: BlockContext, payload: dict, full: bool) -> Iterator[str]:
    """The text of a Verma listing, read off its blocks (t, heads, tails):
    a block has |heads|·|tails| labels (t, head + tail), each once."""
    label = _label_template(ctx.n)
    layers = []
    for layer in payload["layers"]:
        blocks = layer["factors"]
        total = sum(len(heads) * len(tails) for _, heads, tails in blocks)
        parts = (
            label % (t, *h, *tail) for t, heads, tails in blocks for h in heads for tail in tails
        )
        layers.append((total, _truncate(parts, total, full)))
    return _listing_text(ctx, payload, layers)


def _layers_text(ctx: BlockContext, payload: dict, full: bool) -> Iterator[str]:
    """The text of a cover listing, from its rows (i, nu, mult)."""
    label = _label_template(ctx.n)
    mult = "%d*" + label
    layers = []
    for layer in payload["layers"]:
        rows = layer["factors"]
        parts = (label % (u, *c) if m == 1 else mult % (m, u, *c) for u, c, m in rows)
        layers.append((sum(m for _, _, m in rows), _truncate(parts, len(rows), full)))
    return _listing_text(ctx, payload, layers)


def _listing_text(ctx: BlockContext, payload: dict, layers: list) -> Iterator[str]:
    """A layer listing's lines, given each layer's (total multiplicity,
    printed entries), each line formatted as it is taken."""
    yield f"{payload['object']} radical layers, n={ctx.n}, p={ctx.p}"
    if payload[CONDITIONAL_FLAG_KEY]:
        yield f"note: {CONDITIONAL_FLAG_KEY} = true"
    for layer, (total, parts) in zip(payload["layers"], layers):
        yield f"  rad_{layer['j']} ({total}): {'  '.join(parts)}"


def cmd_ext(ctx: BlockContext, args: SimpleNamespace) -> tuple[dict, int]:
    if args.i is None:
        if args.nu is not None or args.eps is not None:
            raise ValueError("--nu and --eps need --i: the Ext^1 kind table takes no twist")
        table = [ext1_g1_row(ctx, i) for i in range(ctx.n + 1)]
        return {"object": "ext-table", "kinds": table}, 0
    nu = _twist(args, ctx.n)
    return {
        "object": _object_str("ext", args.i, nu),
        "kinds": ext1_g1_row(ctx, args.i),
        "rad1_cover": rad1_qhat(ctx, (args.i, nu)),
    }, 0


def _ext_text(ctx: BlockContext, payload: dict, full: bool) -> list[str]:
    if payload["object"] == "ext-table":
        lines = [f"Ext^1 kinds between block simples, n={ctx.n}, p={ctx.p} (rows i, columns j)"]
        for i, row in enumerate(payload["kinds"]):
            lines.append(f"  i={i}: " + "  ".join(f"{v:8s}" for v in row))
        return lines
    cover, label = payload["rad1_cover"], _label_template(ctx.n)
    parts = (label % (u, *c) for u, c, _ in cover)
    return [
        f"{payload['object']}, n={ctx.n}, p={ctx.p}",
        "  Ext^1 kind toward each j: " + "  ".join(f"j={j}:{v}" for j, v in enumerate(payload["kinds"])),
        f"  Ext^1-neighbour labels (= rad_1 of the projective cover, {len(cover)} labels):",
        "    " + "  ".join(_truncate(parts, len(cover), full)),
    ]


def cmd_dim(ctx: BlockContext, args: SimpleNamespace) -> tuple[dict, int]:
    table = dimension_table(ctx)
    ok = table["conservation_ok"] and identities_hold(table)
    return {"object": "dim", **table}, 0 if ok else 1


def _dim_text(ctx: BlockContext, payload: dict, full: bool) -> list[str]:
    lines = [
        f"dimensions in the block, n={ctx.n}, p={ctx.p} "
        f"(baby Verma dimension {payload['verma_dimension']})"
    ]
    for row in payload["rows"]:
        d_i, d_j = row["dim_cover_I"], row["dim_cover_J"]
        cover_i = "M_I=-" if d_i is None else f"M_I={d_i} ({'ok' if row['identity_I'] else 'FAIL'})"
        cover_j = "M_J=-" if d_j is None else f"M_J={d_j} ({'ok' if row['identity_J'] else 'FAIL'})"
        lines.append(f"  i={row['i']}: dim L={row['dim_simple']}  {cover_i}  {cover_j}")
    conservation = "ok" if payload["conservation_ok"] else "FAIL"
    lines.append(f"  per-Verma dimension conservation: {conservation}")
    return lines


def cmd_jantzen(ctx: BlockContext, args: SimpleNamespace) -> tuple[dict, int]:
    report = check_block_simplicity(ctx)
    if args.i is not None:
        # The listings follow --i; the counts and status describe the sweep.
        report["certificates"] = [row for row in report["certificates"] if row[0] == args.i]
        for key in ("failures", "replay_failures"):
            report[key] = [entry for entry in report[key] if entry["i"] == args.i]
    return {"object": "jantzen", "report": report}, 0 if report["ok"] else 1


def _jantzen_text(ctx: BlockContext, payload: dict, full: bool) -> Iterator[str]:
    """A report's lines, each certificate and failure line formatted as it
    is taken."""
    report = payload["report"]
    status = "OK" if report["ok"] else "FAILURES"
    head = (
        f"simplicity certificates, n={ctx.n}, p={ctx.p}: checked {report['checked']} pairs, "
        f"replayed {report['replayed']} closed forms: {status}"
    )
    rows = report["certificates"]
    failures = (
        f"  FAIL i={f['i']} root={f['root']}: {f['reason']}"
        for f in chain(report["failures"], report["replay_failures"])
    )
    certificates = (_certificate_text(ctx.p, row) for row in rows)
    return chain([head], _truncate(certificates, len(rows), full), failures)


def _certificate_text(p: int, row: CertificateRow) -> str:
    i, root, m, s, a, b, beta0, betas = row
    tail = " ".join(f"({k},{j})" for k, j in betas) or "-"
    return (
        f"  i={i} root=({root[0]},{root[1]}): m={m} = {a}*{p}^{s} + {b}*{p}^{s + 1}, "
        f"beta0=({beta0[0]},{beta0[1]}), betas: {tail}"
    )


def cmd_verify(ctx: BlockContext, args: SimpleNamespace) -> tuple[dict, int]:
    checks = verify_checks(ctx)
    ok = all(c["ok"] for c in checks)
    return {"object": "verify", "checks": checks, "ok": ok}, 0 if ok else 1


def _verify_text(ctx: BlockContext, payload: dict, full: bool) -> list[str]:
    lines = []
    for c in payload["checks"]:
        tag = "PASS" if c["ok"] else "FAIL"
        cond = " [conditional]" if c["conditional"] else ""
        detail = f": {c['detail']}" if c["detail"] else ""
        lines.append(f"{tag} {c['name']}{cond}{detail}")
    lines.append(
        f"{'all checks passed' if payload['ok'] else 'CHECKS FAILED'} at n={ctx.n}, p={ctx.p} "
        f"({len(payload['checks'])} checks)"
    )
    return lines
