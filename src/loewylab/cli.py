"""Command line front end: parses arguments, renders results, sets exit codes.

The library computes and checks; `main` builds the block context (and
checks `--i`) once. Each subcommand returns one JSON payload, which `main`
prints with --format json or else renders as text from that payload, n and
p alone: the text is a view of the JSON. A Verma listing's payload holds
the layer formula's blocks (t, heads, tails) from `verma_blocks` (reversed
for `verma-dual`), and its JSON writes each block's labels (t, head + tail)
as factor objects, formatting each head and tail once; a cover's payload
holds `cover_rows`' rows (i, nu, mult), which carry multiplicities and
have no product form, and its JSON writes each row as a factor object.
Each layer listing names its factor writer, and both build one factor
object template. `ext --i` builds its factor dicts from `rad1_qhat`'s
rows, and a `jantzen` report holds `check_block_simplicity`'s certificate
rows (i, root, m, s, a, b, beta0, betas), each written as a certificate
object. So no label object is built and nothing is sorted, and a Verma's
rows are built only for its text view (`flatten_blocks`). The JSON is exactly
`json.dumps(payload, sort_keys=True, indent=2)` of those objects,
so reruns are byte-identical; the factor lists of a layer listing and the
certificate rows of a `jantzen` report are written from %-format templates
(one per layer, one per certificate row) instead of by json.dumps, which
is slow with `indent`.  Sizes are closed forms checked before any work,
one `_BUDGETS` row per subcommand: a layer listing (2^n labels for `verma`
and `verma-dual`, (n+1)·C(n,i)·2^n with multiplicity for `proj`) is
refused above LAYER_BUDGET = 2^16 labels, `jantzen`, which checks
(n+1)·n(n+1)/2 pairs, above PAIR_BUDGET = 2^14, and `verify`, which stacks
the n+1 covers at nu = 0, (n+1)·4^n labels, above VERIFY_BUDGET = 2^20.
Subcommands: block, verma, verma-dual, proj, ext, dim, jantzen, verify;
only the invoked one's parser is built.
Exit codes: 0 on success, 1 when a verification fails, 2 on invalid or
oversized input (the message names the violated hypothesis or the size).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from math import comb

from .block import BlockContext, check_index, make_context, mu_weight, nu_weight
from .chardim import CertificateRow, check_block_simplicity
from .checks import dimension_table, verify_checks
from .ext import ext1_g1, rad1_qhat
from .lattice import Weight, from_eps, zero
from .loewy import Block, Row, flatten_blocks, verma_blocks
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

# Work refused up front, per subcommand: (closed-form size at (n, i), budget,
# the error message naming both).  A layer listing's size counts its labels
# with multiplicity.
_LISTS = (
    "{command} at n={n}, i={i} would list {size} labels with multiplicity, "
    "over the budget of {budget} labels"
)
_BUDGETS = {
    "verma": (lambda n, i: 2**n, LAYER_BUDGET, _LISTS),
    "verma-dual": (lambda n, i: 2**n, LAYER_BUDGET, _LISTS),
    "proj": (lambda n, i: (n + 1) * comb(n, i) * 2**n, LAYER_BUDGET, _LISTS),
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
    args = _build_parser(argv).parse_args(argv)
    try:
        ctx = make_context(args.n, args.p)
        i = getattr(args, "i", None)
        if i is not None:
            check_index(ctx, i)
        if args.command in _BUDGETS:
            size_of, budget, message = _BUDGETS[args.command]
            size = size_of(ctx.n, i)
            if size > budget:
                raise ValueError(
                    message.format(command=args.command, n=ctx.n, i=i, size=size, budget=budget)
                )
        payload, code = args.func(ctx, args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        raise SystemExit(2) from None
    if args.format == "json":
        print(_dump_json({"n": ctx.n, "p": ctx.p, **payload}, args.factors_json))
    else:
        print(args.render(ctx, payload, getattr(args, "full", False)))
    raise SystemExit(code)


# The subcommands, in the order the top-level usage line lists them.
_COMMANDS = ("block", "verma", "verma-dual", "proj", "ext", "dim", "jantzen", "verify")


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for `argv`.

    When argv[0] names a subcommand, only its subparser is built (building
    all eight takes a few ms, a large share of a small command's run), and
    the metavar keeps the top-level usage line listing all of them.  Any other
    argv (help, a missing or an unknown command) builds all eight, so those
    messages list and offer every choice.
    """
    parser = argparse.ArgumentParser(
        prog="loewylab",
        description="Exact invariants of the singular block of G1T-modules for SL(n+1).",
    )
    if argv and argv[0] in _COMMANDS:
        names = argv[:1]
        sub = parser.add_subparsers(
            dest="command", required=True, metavar="{" + ",".join(_COMMANDS) + "}"
        )
    else:
        names = _COMMANDS
        sub = parser.add_subparsers(dest="command", required=True)

    def common(name, help_text, func, render, twist=False, full=False) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--n", type=int, required=True, help="rank; the group is SL(n+1)")
        sp.add_argument("--p", type=int, required=True, help="odd prime not dividing n+1")
        if twist:
            group = sp.add_mutually_exclusive_group()
            group.add_argument("--nu", help="twist in fundamental coordinates, n comma-separated ints (default 0)")
            group.add_argument("--eps", help="twist in eps coefficients, n+1 comma-separated ints")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        if full:
            sp.add_argument("--full", action="store_true", help="never truncate long listings")
        sp.set_defaults(func=func, render=render, factors_json=_factors_json)
        return sp

    if "block" in names:
        common("block", "the block's weight table", cmd_block, _block_text)

    for command, help_text, kind, layers_of, blocks, conditional in _LAYER_COMMANDS:
        if command in names:
            render = _blocks_text if blocks else _layers_text
            sp = common(command, help_text, cmd_layers, render, twist=True, full=True)
            sp.add_argument("--i", type=int, required=True, help="block index in [0, n]")
            sp.set_defaults(kind=kind, layers_of=layers_of, conditional=conditional,
                            factors_json=_blocks_json if blocks else _factors_json)

    if "ext" in names:
        sp = common("ext", "Ext^1 table, or one simple's Ext neighbourhood", cmd_ext, _ext_text,
                    twist=True, full=True)
        sp.add_argument("--i", type=int, help="block index; omit for the full table")

    if "dim" in names:
        common("dim", "dimensions of simples and parabolic covers", cmd_dim, _dim_text)

    if "jantzen" in names:
        sp = common("jantzen", "witness certificates for block simplicity", cmd_jantzen,
                    _jantzen_text, full=True)
        sp.add_argument("--i", type=int, help="restrict the listing to one block index")

    if "verify" in names:
        common("verify", "machine-check every library invariant at (n, p)", cmd_verify,
               _verify_text)

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
    its rank, one per certificate for its number of betas.
    """
    if "layers" in doc:
        factors_json = factors_json or _factors_json
        lists = [factors_json(layer["factors"]) for layer in doc["layers"]]
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


def _truncate(parts: list[str], full: bool) -> list[str]:
    if full or len(parts) <= TRUNCATE_AT:
        return parts
    return parts[:TRUNCATE_AT] + [f"... ({len(parts) - TRUNCATE_AT} more)"]


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


# The layer subcommands: (name, help, object kind, layers function, whether
# its layers are blocks, whether the result is conditional on the Loewy
# length conjecture).  A Verma's layers are blocks (t, heads, tails), and
# the dual Verma's are the Verma's, reversed; a cover's are rows
# (i, nu, mult), which carry multiplicities and have no product form.  The
# lambdas look the library function up in this module's namespace at call
# time, so a wrapper patched in there (as `bench/spans.py` does) still sees
# the call.
_LAYER_COMMANDS = (
    ("verma", "radical layers of a baby Verma module", "Zhat",
     lambda ctx, i, nu: verma_blocks(ctx, i, nu), True, False),
    ("verma-dual", "radical layers of the dual baby Verma", "Zhat_dual",
     lambda ctx, i, nu: verma_blocks(ctx, i, nu)[::-1], True, False),
    ("proj", "radical layers of a projective cover (conditional)", "Qhat",
     lambda ctx, i, nu: cover_rows(ctx, i, nu), False, True),
)


def cmd_layers(ctx: BlockContext, args: argparse.Namespace) -> tuple[dict, int]:
    nu = _twist(args, ctx.n)
    layers = args.layers_of(ctx, args.i, nu)
    return {
        "object": _object_str(args.kind, args.i, nu),
        "layers": [{"j": j, "factors": rows} for j, rows in enumerate(layers)],
        CONDITIONAL_FLAG_KEY: args.conditional,
    }, 0


def _blocks_text(ctx: BlockContext, payload: dict, full: bool) -> str:
    """The text of a Verma listing: `_layers_text` of its rows."""
    layers = [{**layer, "factors": flatten_blocks(layer["factors"])} for layer in payload["layers"]]
    return _layers_text(ctx, {**payload, "layers": layers}, full)


def _layers_text(ctx: BlockContext, payload: dict, full: bool) -> str:
    lines = [f"{payload['object']} radical layers, n={ctx.n}, p={ctx.p}"]
    if payload[CONDITIONAL_FLAG_KEY]:
        lines.append(f"note: {CONDITIONAL_FLAG_KEY} = true")
    for layer in payload["layers"]:
        rows = layer["factors"]
        total = sum(m for _, _, m in rows)
        parts = [_fmt_factor(u, c) if m == 1 else f"{m}*{_fmt_factor(u, c)}" for u, c, m in rows]
        body = "  ".join(_truncate(parts, full))
        lines.append(f"  rad_{layer['j']} ({total}): {body}")
    return "\n".join(lines)


def cmd_ext(ctx: BlockContext, args: argparse.Namespace) -> tuple[dict, int]:
    n = ctx.n
    if args.i is None:
        if args.nu is not None or args.eps is not None:
            raise ValueError("--nu and --eps need --i: the Ext^1 kind table takes no twist")
        table = [[ext1_g1(ctx, i, j).kind.value for j in range(n + 1)] for i in range(n + 1)]
        return {"object": "ext-table", "kinds": table}, 0
    nu = _twist(args, ctx.n)
    return {
        "object": _object_str("ext", args.i, nu),
        "kinds": [ext1_g1(ctx, args.i, j).kind.value for j in range(n + 1)],
        "rad1_cover": [{"i": u, "nu": c, "mult": m} for u, c, m in rad1_qhat(ctx, args.i, nu)],
    }, 0


def _ext_text(ctx: BlockContext, payload: dict, full: bool) -> str:
    if payload["object"] == "ext-table":
        lines = [f"Ext^1 kinds between block simples, n={ctx.n}, p={ctx.p} (rows i, columns j)"]
        for i, row in enumerate(payload["kinds"]):
            lines.append(f"  i={i}: " + "  ".join(f"{v:8s}" for v in row))
        return "\n".join(lines)
    parts = [_fmt_factor(f["i"], f["nu"]) for f in payload["rad1_cover"]]
    return "\n".join([
        f"{payload['object']}, n={ctx.n}, p={ctx.p}",
        "  Ext^1 kind toward each j: " + "  ".join(f"j={j}:{v}" for j, v in enumerate(payload["kinds"])),
        f"  Ext^1-neighbour labels (= rad_1 of the projective cover, {len(parts)} labels):",
        "    " + "  ".join(_truncate(parts, full)),
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
    cert_lines = []
    for i, root, m, s, a, b, beta0, betas in report["certificates"]:
        tail = " ".join(f"({k},{j})" for k, j in betas) or "-"
        cert_lines.append(
            f"  i={i} root=({root[0]},{root[1]}): "
            f"m={m} = {a}*{ctx.p}^{s} + {b}*{ctx.p}^{s + 1}, "
            f"beta0=({beta0[0]},{beta0[1]}), betas: {tail}"
        )
    lines.extend(_truncate(cert_lines, full))
    for f in report["failures"] + report["replay_failures"]:
        lines.append(f"  FAIL i={f['i']} root={f['root']}: {f['reason']}")
    return "\n".join(lines)


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
