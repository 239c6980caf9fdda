"""Command line front end: parses arguments, renders results, sets exit codes.

The library computes and checks; `main` builds the block context (and
checks `--i`) once. Each subcommand returns one JSON payload, which `main`
prints with --format json or else renders as text from that payload, n and
p alone: the text is a view of the JSON. A Verma listing's payload holds
the layer formula's blocks (t, heads, tails) from `verma_blocks` (reversed
for `verma-dual`), and its JSON writes each block's labels (t, head + tail)
as factor objects, formatting each head and tail once; a cover's payload
holds `cover_rows`' rows (i, nu, mult), which carry multiplicities and
have no product form, and its JSON writes each row as a factor object; a
layer's factor list that equals its mirror layer's (as in a palindromic
cover) reuses the mirror's text.
Each layer listing names its factor writer, and both build one factor
object template. `ext --i` builds its factor dicts from `rad1_qhat`'s
rows, and a `jantzen` report holds `check_block_simplicity`'s certificate
rows (i, root, m, s, a, b, beta0, betas), each written as a certificate
object. So no label object is built and nothing is sorted, and no Verma
rows are built. The JSON is exactly
`json.dumps(payload, sort_keys=True, indent=2)` of those objects,
so reruns are byte-identical; the factor lists of a layer listing and the
certificate rows of a `jantzen` report are written from %-format templates
(one per layer, one per certificate row) instead of by json.dumps, which
is slow with `indent`.  A text view formats only the entries it prints:
without --full, the first TRUNCATE_AT of each listing, its other counts
read from lengths.  Sizes are closed forms, one `_BUDGETS` row per
subcommand, checked after the (n, p) hypotheses and `--i` and before any
other work, the weight table's (n+1)·n ints included: a layer listing
(2^n labels for `verma` and `verma-dual`, (n+1)·C(n,i)·2^n with
multiplicity for `proj`) is refused above LAYER_BUDGET = 2^16 labels,
`jantzen`, which checks (n+1)·n(n+1)/2 pairs, above PAIR_BUDGET = 2^14,
`verify`, which stacks the n+1 covers at nu = 0, (n+1)·4^n labels, above
VERIFY_BUDGET = 2^20, `block`, which writes 3n(n+1) weight coordinates,
above BLOCK_BUDGET = 2^19, `dim`, which evaluates n(3n^2+1)/2 root
pairings, above DIM_BUDGET = 2^19, and the `ext` table of (n+1)^2 Ext^1
kinds above EXT_BUDGET = 2^19; every subcommand is refused first when its
weight table would hold over WEIGHT_BUDGET = 2^20 ints.
Subcommands: block, verma, verma-dual, proj, ext, dim, jantzen, verify,
declared once in `_commands` (flags and the values set on the parsed
arguments).  A plainly well-formed command line is parsed from that table
without argparse (`_parse_plain`), whose parsers and lazily imported
`locale` cost a few ms per run; any other, help included, goes to the
argparse parser built from the same table, which alone writes help, usage
and argument errors.
Exit codes: 0 on success, 1 when a verification fails, 2 on invalid or
oversized input (the message names the violated hypothesis or the size).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from itertools import islice
from math import comb

from .block import BlockContext, check_hypotheses, check_index, make_context, mu_weight, nu_weight
from .chardim import CertificateRow, check_block_simplicity
from .checks import dimension_table, verify_checks
from .ext import ext1_g1, rad1_qhat
from .lattice import Weight, from_eps, zero
from .loewy import Block, Row, verma_blocks
from .projective import CONDITIONAL_FLAG_KEY, cover_rows

__all__ = ["main"]

TRUNCATE_AT = 200
# Layer listings are refused above this many labels, counted with
# multiplicity.  The largest one admitted, `verma --n 16 --format json`, took
# about 0.2 s and 57 MB on a 2-core VM.
LAYER_BUDGET = 1 << 16
# `jantzen` is refused above this many (block index, positive root) pairs,
# (n+1)·n(n+1)/2 at rank n.  The largest one admitted, n = 31, took about
# 1 s and wrote 6 MB of JSON on a 2-core VM.
PAIR_BUDGET = 1 << 14
# `verify` is refused above this many labels, the (n+1)·4^n labels of the
# n+1 covers it stacks at nu = 0.  The largest one admitted, n = 8, took
# about 1 s on a 2-core VM; the battery at n = 9, run through the library,
# took about 4 s and 90 MB.
VERIFY_BUDGET = 1 << 20
# `block` is refused above this many weight coordinates, three weights of n
# coordinates per block index, 3n(n+1) at rank n.  The largest one admitted,
# n = 417, took about 0.7 s and 62 MB with --format json on a 2-core VM.
BLOCK_BUDGET = 1 << 19
# `dim` is refused above this many root pairings: n(n+1)/2 for each of the
# n+1 simples' Weyl dimensions and n(n-1)/2 for each of the 2n parabolic
# covers, n(3n^2+1)/2 in all.  The largest one admitted, n = 70, took about
# 1.3 s on a 2-core VM; n = 200 ran for more than a minute.
DIM_BUDGET = 1 << 19
# The `ext` table is refused above this many Ext^1 kinds, (n+1)^2 at rank n.
# The largest one admitted, n = 723, took about 1 s and 66 MB with
# --format json on a 2-core VM.
EXT_BUDGET = 1 << 19
# Every subcommand is refused above this many ints in the weight table,
# (n+1)·n at rank n, before its own row is read: so no size below is
# computed at a rank where it would be too large to compute or print.  Only
# `ext --i` reaches it: at n = 1023 it took about 0.6 s, and 2.7 s and
# 207 MB with --format json, on a 2-core VM.
WEIGHT_BUDGET = 1 << 20

# Work refused up front, per subcommand: (closed-form size at (n, i), budget,
# the error message naming both).  A layer listing's size counts its labels
# with multiplicity.
_LISTS = (
    "{command} at n={n}, i={i} would list {size} labels with multiplicity, "
    "over the budget of {budget} labels"
)
_WEIGHTS = (
    lambda n, i: (n + 1) * n, WEIGHT_BUDGET,
    "{command} at n={n} would build a weight table of {size} ints, "
    "over the budget of {budget} ints",
)
_BUDGETS = {
    "block": (
        lambda n, i: 3 * n * (n + 1), BLOCK_BUDGET,
        "block at n={n} would write {size} weight coordinates, "
        "over the budget of {budget} coordinates",
    ),
    "verma": (lambda n, i: 2**n, LAYER_BUDGET, _LISTS),
    "verma-dual": (lambda n, i: 2**n, LAYER_BUDGET, _LISTS),
    "proj": (lambda n, i: (n + 1) * comb(n, i) * 2**n, LAYER_BUDGET, _LISTS),
    # `ext --i` finds the n+1 kinds from block index i.
    "ext": (
        lambda n, i: (n + 1) ** 2 if i is None else n + 1, EXT_BUDGET,
        "ext at n={n} would tabulate {size} Ext^1 kinds, over the budget of {budget} kinds",
    ),
    "dim": (
        lambda n, i: n * (3 * n * n + 1) // 2, DIM_BUDGET,
        "dim at n={n} would evaluate {size} root pairings, over the budget of {budget} pairings",
    ),
    "jantzen": (
        lambda n, i: (n + 1) * n * (n + 1) // 2, PAIR_BUDGET,
        "jantzen at n={n} would check {size} (block index, root) pairs, "
        "over the budget of {budget} pairs",
    ),
    "verify": (
        lambda n, i: (n + 1) * 4**n, VERIFY_BUDGET,
        "verify at n={n} would stack {size} cover labels with multiplicity, "
        "over the budget of {budget} labels",
    ),
}


def main(argv: list[str] | None = None) -> None:
    if argv is None:
        argv = sys.argv[1:]
    commands = _commands()
    args = _parse_plain(argv, commands)
    if args is None:
        args = _build_parser(commands).parse_args(argv)
    n, i = args.n, getattr(args, "i", None)
    try:
        check_hypotheses(n, args.p)
        if i is not None:
            check_index(n, i)
        for size_of, budget, message in (_WEIGHTS, _BUDGETS[args.command]):
            size = size_of(n, i)
            if size > budget:
                raise ValueError(
                    message.format(command=args.command, n=n, i=i, size=size, budget=budget)
                )
        ctx = make_context(n, args.p)
        payload, code = args.func(ctx, args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        raise SystemExit(2) from None
    if args.format == "json":
        print(_dump_json({"n": ctx.n, "p": ctx.p, **payload}, getattr(args, "factors_json", None)))
    else:
        print(args.render(ctx, payload, getattr(args, "full", False)))
    raise SystemExit(code)


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
    `bench/spans.py` and the tests do, sees the call).  A layer command
    sets the object kind, its layers function (a Verma's layers are blocks
    (t, heads, tails), and the dual Verma's are the Verma's, reversed; a
    cover's are rows (i, nu, mult), which carry multiplicities and have no
    product form) and whether the result is conditional on the Loewy length
    conjecture; a Verma also sets its factor writer, `_blocks_json`
    (`_dump_json` writes rows by default).
    """
    verma = {"func": cmd_layers, "render": _blocks_text, "factors_json": _blocks_json,
             "conditional": False}
    return {
        "block": ("the block's weight table", _BASIC, {"func": cmd_block, "render": _block_text}),
        "verma": ("radical layers of a baby Verma module", _LISTING,
                  {**verma, "kind": "Zhat", "layers_of": verma_blocks}),
        "verma-dual": ("radical layers of the dual baby Verma", _LISTING,
                       {**verma, "kind": "Zhat_dual",
                        "layers_of": lambda ctx, i, nu: verma_blocks(ctx, i, nu)[::-1]}),
        "proj": ("radical layers of a projective cover (conditional)", _LISTING,
                 {"func": cmd_layers, "render": _layers_text, "conditional": True, "kind": "Qhat",
                  "layers_of": cover_rows}),
        "ext": ("Ext^1 table, or one simple's Ext neighbourhood",
                (*_LISTING[:-1], ("i", int, False, "block index; omit for the full table", None)),
                {"func": cmd_ext, "render": _ext_text}),
        "dim": ("dimensions of simples and parabolic covers", _BASIC,
                {"func": cmd_dim, "render": _dim_text}),
        "jantzen": ("witness certificates for block simplicity",
                    (*_BASIC, _FULL, ("i", int, False, "restrict the listing to one block index", None)),
                    {"func": cmd_jantzen, "render": _jantzen_text}),
        "verify": ("machine-check every library invariant at (n, p)", _BASIC,
                   {"func": cmd_verify, "render": _verify_text}),
    }


def _default(kind) -> object:
    """The value of an absent flag of this type."""
    if kind is bool:
        return False
    return kind[0] if isinstance(kind, tuple) else None


def _parse_plain(argv: list[str], commands: dict) -> argparse.Namespace | None:
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
    return argparse.Namespace(command=argv[0], **values, **defaults)


def _build_parser(commands: dict) -> argparse.ArgumentParser:
    """The argparse parser of every subcommand in `commands`, for what
    `_parse_plain` leaves: help, usage and errors list every subcommand."""
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
    parts = [s.strip() for s in text.split(",")]
    try:
        vals = tuple(int(s) for s in parts)
    except ValueError:
        raise ValueError(f"--{flag} must be comma-separated integers (got {text!r})")
    if len(vals) != want:
        raise ValueError(f"--{flag} needs exactly {want} comma-separated integers (got {len(vals)})")
    return vals


def _twist(args: argparse.Namespace, n: int) -> Weight:
    if args.eps is not None:
        return from_eps(_csv_ints(args.eps, n + 1, "eps"))
    if args.nu is not None:
        return Weight(_csv_ints(args.nu, n, "nu"))
    return zero(n)


def _fmt_coords(coords: tuple[int, ...] | list[int]) -> str:
    return "[" + ",".join(str(c) for c in coords) + "]"


def _object_str(kind: str, i: int, nu: Weight) -> str:
    return f"{kind}(i={i}, nu={_fmt_coords(nu.coords)})"


# A document's template-written lists go through json.dumps as this slot,
# which cannot occur in the encoded skeleton otherwise (json.dumps escapes NUL).
_SLOT = "\x00rows"
_SLOT_JSON = '"\\u0000rows"'


def _dump_json(doc: dict, factors_json=None) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2)`, byte for byte, where a
    layer listing's factor lists stand for lists of objects
    {"i": i, "mult": mult, "nu": nu}, and a jantzen report's certificate
    rows (i, root, m, s, a, b, beta0, betas) for the objects with those keys.

    `factors_json` writes a layer listing's factor lists: `_factors_json`
    (the default) for rows, `_blocks_json` for a Verma's blocks.

    With `indent` set, json.dumps runs its pure-Python encoder, which spends
    most of a long document's time on its rows.  So each layer's factor list
    and a jantzen report's certificate list are dumped as slots, and each
    slot is filled from %-format templates: one factor object per layer for
    its rank, one per certificate for its number of betas.  A factor list
    equal to its mirror's (layer j and layer L - 1 - j of L, as in a
    palindromic cover) reuses the mirror's text.
    """
    if "layers" in doc:
        factors_json = factors_json or _factors_json
        factors = [layer["factors"] for layer in doc["layers"]]
        lists = []
        for j, rows in enumerate(factors):
            mirror = len(factors) - 1 - j
            if mirror < j and rows == factors[mirror]:
                lists.append(lists[mirror])
            else:
                lists.append(factors_json(rows))
        doc = {**doc, "layers": [{**layer, "factors": _SLOT} for layer in doc["layers"]]}
    elif "report" in doc:
        lists = [_certificates_json(doc["report"]["certificates"])]
        doc = {**doc, "report": {**doc["report"], "certificates": _SLOT}}
    else:
        return json.dumps(doc, sort_keys=True, indent=2)
    pieces = json.dumps(doc, sort_keys=True, indent=2).split(_SLOT_JSON)
    if len(pieces) != len(lists) + 1:
        raise RuntimeError(f"{len(pieces) - 1} slots in the JSON of {len(lists)} template-written lists")
    out = [pieces[0]]
    for text, piece in zip(lists, pieces[1:]):
        out += text
        out.append(piece)
    return "".join(out)


# One factor object {"i", "mult", "nu"} of a `layers[*].factors` list at
# indent=2: its opening through the "nu" bracket, one coordinate, its close.
_FACTOR_OPEN = '        {\n          "i": %d,\n          "mult": %d,\n          "nu": [\n'
_FACTOR_COORD = "            %d"
_FACTOR_CLOSE = "\n          ]\n        }"


def _factors_json(rows: list[Row]) -> list[str]:
    """The indent=2 text of one `layers[*].factors` list, in pieces: each
    row (i, nu, mult) is written as a factor object.

    Layers are never empty and ranks are at least 1 (`make_context`).
    """
    template = _FACTOR_OPEN + ",\n".join([_FACTOR_COORD] * len(rows[0][1])) + _FACTOR_CLOSE
    body = ",\n".join([template % (u, m, *c) for u, c, m in rows])
    return ["[\n", body, "\n      ]"]


def _blocks_json(blocks: list[Block]) -> list[str]:
    """The indent=2 text of one Verma layer's `factors` list, in pieces: each
    label (t, head + tail) of each block (t, heads, tails) is written as a
    factor object with multiplicity one.

    Each object is a head text (the opening and the head's coordinates)
    followed by a tail text (the tail's coordinates and the close), so each
    head and tail is formatted once per block, and all objects of one head
    are one join.  The head text ends in the coordinates' ",\n" separator
    unless heads or tails are () (i = 0 or i = n).  Layers are never empty;
    blocks without heads or tails add nothing.
    """
    texts = []
    for t, heads, tails in blocks:
        if not (heads and tails):
            continue
        open_t = _FACTOR_OPEN % (t, 1)
        sep = ",\n" if heads[0] and tails[0] else ""
        head = ",\n".join([_FACTOR_COORD] * len(heads[0])) + sep
        tail = ",\n".join([_FACTOR_COORD] * len(tails[0])) + _FACTOR_CLOSE
        tail_texts = [tail % c for c in tails]
        for h in heads:
            h = open_t + head % h
            texts.append(h + (",\n" + h).join(tail_texts))
    return ["[\n", ",\n".join(texts), "\n      ]"]


def _certificates_json(rows: list[CertificateRow]) -> list[str]:
    """The indent=2 text of a jantzen report's `certificates` list, in
    pieces: each row (i, root, m, s, a, b, beta0, betas) is written as the
    object {"a", "b", "beta0", "betas", "i", "m", "root", "s"}."""
    if not rows:
        return ["[]"]
    text = [
        _certificate_template(b)
        % (a, b, *beta0, *[k for beta in betas for k in beta], i, m, *root, s)
        for i, root, m, s, a, b, beta0, betas in rows
    ]
    return ["[\n", ",\n".join(text), "\n    ]"]


@lru_cache(maxsize=64)
def _certificate_template(b: int) -> str:
    """One certificate object with b betas, its keys in sorted order."""
    betas = "[]"
    if b:
        beta = "          [\n            %d,\n            %d\n          ]"
        betas = "[\n" + ",\n".join([beta] * b) + "\n        ]"
    return (
        '      {\n        "a": %d,\n        "b": %d,\n'
        '        "beta0": [\n          %d,\n          %d\n        ],\n'
        '        "betas": ' + betas + ',\n        "i": %d,\n        "m": %d,\n'
        '        "root": [\n          %d,\n          %d\n        ],\n        "s": %d\n      }'
    )


def _fmt_factor(i: int, coords: tuple[int, ...]) -> str:
    return f"({i}; {_fmt_coords(coords)})"


def _truncate(parts, count: int, full: bool) -> list[str]:
    """The `count` parts that the iterable `parts` yields, or without `full`
    only the first TRUNCATE_AT of them and a "... (k more)" entry: the rest
    are never taken, so never formatted."""
    if full or count <= TRUNCATE_AT:
        return list(parts)
    return [*islice(parts, TRUNCATE_AT), f"... ({count - TRUNCATE_AT} more)"]


# ---------------------------------------------------------------- commands


def cmd_block(ctx: BlockContext, args: argparse.Namespace) -> tuple[dict, int]:
    rows = [
        {"i": i, "lambda": list(ctx.lambdas[i].coords), "mu": list(mu_weight(ctx, i).coords),
         "rho_shifted": list(nu_weight(ctx, i).coords)}
        for i in range(ctx.n + 1)
    ]
    return {"object": "block", "weights": rows}, 0


def _block_text(ctx: BlockContext, payload: dict, full: bool) -> str:
    lines = [f"singular block for SL({ctx.n + 1}), p = {ctx.p}: {ctx.n + 1} restricted weights"]
    for row in payload["weights"]:
        lines.append(
            f"  i={row['i']}: lambda={_fmt_coords(row['lambda'])}  mu={_fmt_coords(row['mu'])}"
            f"  lambda+rho={_fmt_coords(row['rho_shifted'])}"
        )
    return "\n".join(lines)


def cmd_layers(ctx: BlockContext, args: argparse.Namespace) -> tuple[dict, int]:
    nu = _twist(args, ctx.n)
    layers = args.layers_of(ctx, args.i, nu)
    return {
        "object": _object_str(args.kind, args.i, nu),
        "layers": [{"j": j, "factors": rows} for j, rows in enumerate(layers)],
        CONDITIONAL_FLAG_KEY: args.conditional,
    }, 0


def _blocks_text(ctx: BlockContext, payload: dict, full: bool) -> str:
    """The text of a Verma listing, read off its blocks (t, heads, tails):
    a block has |heads|·|tails| labels (t, head + tail), each once."""
    layers = []
    for layer in payload["layers"]:
        blocks = layer["factors"]
        total = sum(len(heads) * len(tails) for _, heads, tails in blocks)
        parts = (
            _fmt_factor(t, h + tail) for t, heads, tails in blocks for h in heads for tail in tails
        )
        layers.append((total, _truncate(parts, total, full)))
    return _listing_text(ctx, payload, layers)


def _layers_text(ctx: BlockContext, payload: dict, full: bool) -> str:
    """The text of a cover listing, from its rows (i, nu, mult)."""
    layers = []
    for layer in payload["layers"]:
        rows = layer["factors"]
        parts = (_fmt_factor(u, c) if m == 1 else f"{m}*{_fmt_factor(u, c)}" for u, c, m in rows)
        layers.append((sum(m for _, _, m in rows), _truncate(parts, len(rows), full)))
    return _listing_text(ctx, payload, layers)


def _listing_text(ctx: BlockContext, payload: dict, layers: list[tuple[int, list[str]]]) -> str:
    """A layer listing's text, given each layer's (total multiplicity,
    printed entries)."""
    lines = [f"{payload['object']} radical layers, n={ctx.n}, p={ctx.p}"]
    if payload[CONDITIONAL_FLAG_KEY]:
        lines.append(f"note: {CONDITIONAL_FLAG_KEY} = true")
    for layer, (total, parts) in zip(payload["layers"], layers):
        lines.append(f"  rad_{layer['j']} ({total}): {'  '.join(parts)}")
    return "\n".join(lines)


def cmd_ext(ctx: BlockContext, args: argparse.Namespace) -> tuple[dict, int]:
    n = ctx.n
    if args.i is None:
        if args.nu is not None or args.eps is not None:
            raise ValueError("--nu and --eps need --i: the Ext^1 kind table takes no twist")
        table = [[ext1_g1(ctx, i, j).value for j in range(n + 1)] for i in range(n + 1)]
        return {"object": "ext-table", "kinds": table}, 0
    nu = _twist(args, ctx.n)
    return {
        "object": _object_str("ext", args.i, nu),
        "kinds": [ext1_g1(ctx, args.i, j).value for j in range(n + 1)],
        "rad1_cover": [{"i": u, "nu": c, "mult": m} for u, c, m in rad1_qhat(ctx, args.i, nu)],
    }, 0


def _ext_text(ctx: BlockContext, payload: dict, full: bool) -> str:
    if payload["object"] == "ext-table":
        lines = [f"Ext^1 kinds between block simples, n={ctx.n}, p={ctx.p} (rows i, columns j)"]
        for i, row in enumerate(payload["kinds"]):
            lines.append(f"  i={i}: " + "  ".join(f"{v:8s}" for v in row))
        return "\n".join(lines)
    cover = payload["rad1_cover"]
    parts = (_fmt_factor(f["i"], f["nu"]) for f in cover)
    return "\n".join([
        f"{payload['object']}, n={ctx.n}, p={ctx.p}",
        "  Ext^1 kind toward each j: " + "  ".join(f"j={j}:{v}" for j, v in enumerate(payload["kinds"])),
        f"  Ext^1-neighbour labels (= rad_1 of the projective cover, {len(cover)} labels):",
        "    " + "  ".join(_truncate(parts, len(cover), full)),
    ])


def cmd_dim(ctx: BlockContext, args: argparse.Namespace) -> tuple[dict, int]:
    table = dimension_table(ctx)
    return {"object": "dim", **table}, 0 if table["conservation_ok"] else 1


def _dim_text(ctx: BlockContext, payload: dict, full: bool) -> str:
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
    return "\n".join(lines)


def cmd_jantzen(ctx: BlockContext, args: argparse.Namespace) -> tuple[dict, int]:
    report = check_block_simplicity(ctx)
    if args.i is not None:
        # The listings follow --i; the counts and status describe the sweep.
        report["certificates"] = [row for row in report["certificates"] if row[0] == args.i]
        for key in ("failures", "replay_failures"):
            report[key] = [entry for entry in report[key] if entry["i"] == args.i]
    return {"object": "jantzen", "report": report}, 0 if report["ok"] else 1


def _jantzen_text(ctx: BlockContext, payload: dict, full: bool) -> str:
    report = payload["report"]
    status = "OK" if report["ok"] else "FAILURES"
    lines = [
        f"simplicity certificates, n={ctx.n}, p={ctx.p}: checked {report['checked']} pairs, "
        f"replayed {report['replayed']} closed forms: {status}"
    ]
    rows = report["certificates"]
    lines.extend(_truncate((_certificate_text(ctx.p, row) for row in rows), len(rows), full))
    for f in report["failures"] + report["replay_failures"]:
        lines.append(f"  FAIL i={f['i']} root={f['root']}: {f['reason']}")
    return "\n".join(lines)


def _certificate_text(p: int, row: CertificateRow) -> str:
    i, root, m, s, a, b, beta0, betas = row
    tail = " ".join(f"({k},{j})" for k, j in betas) or "-"
    return (
        f"  i={i} root=({root[0]},{root[1]}): m={m} = {a}*{p}^{s} + {b}*{p}^{s + 1}, "
        f"beta0=({beta0[0]},{beta0[1]}), betas: {tail}"
    )


def cmd_verify(ctx: BlockContext, args: argparse.Namespace) -> tuple[dict, int]:
    checks = verify_checks(ctx)
    ok = all(c["ok"] for c in checks)
    return {"object": "verify", "checks": checks, "ok": ok}, 0 if ok else 1


def _verify_text(ctx: BlockContext, payload: dict, full: bool) -> str:
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
    return "\n".join(lines)
