"""Command line front end: parses arguments, renders results, sets exit codes.

The library computes and checks; `main` builds the block context (and
checks `--i`) once. Each subcommand returns one JSON payload, which `main`
prints with --format json or else renders as text from that payload, n and
p alone: the text is a view of the JSON. A layer listing's factor dicts are
written straight from the library's rows (`verma_rows`, `cover_rows`),
which come in (i, nu) order, so no label object is built and nothing is
sorted. The JSON is exactly
`json.dumps(payload, sort_keys=True, indent=2)`, so reruns are
byte-identical; the factor lists of a layer listing and the certificate
rows of a `jantzen` report are written from %-format templates (one per
layer, one per certificate row) instead of by json.dumps, which is slow
with `indent`.  Sizes are closed forms checked before any work: a layer
listing (2^n labels for `verma` and `verma-dual`, (n+1)·C(n,i)·2^n with
multiplicity for `proj`) is refused above LAYER_BUDGET = 2^16 labels, and
`jantzen`, which checks (n+1)·n(n+1)/2 pairs, above PAIR_BUDGET = 2^14;
`verify`, which stacks the n+1 covers at nu = 0, (n+1)·4^n labels, above
VERIFY_BUDGET = 2^20.
Subcommands: block, verma, verma-dual, proj, ext, dim, jantzen, verify.
Exit codes: 0 on success, 1 when a verification fails, 2 on invalid or
oversized input (the message names the violated hypothesis or the size).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from math import comb

from .block import (
    BlockContext,
    IrreducibleLabel,
    check_index,
    make_context,
    mu_weight,
    nu_weight,
)
from .chardim import check_block_simplicity
from .checks import dimension_table, verify_checks
from .ext import ext1_g1, rad1_qhat
from .lattice import Weight, from_eps, zero
from .loewy import verma_rows
from .projective import CONDITIONAL_FLAG_KEY, cover_rows

__all__ = ["main"]

TRUNCATE_AT = 200
# Layer listings are refused above this many labels, counted with
# multiplicity.  The largest one admitted, `verma --n 16`, took about 0.5 s
# and 92 MB on a 2-core VM.
LAYER_BUDGET = 1 << 16
# `jantzen` is refused above this many (block index, positive root) pairs,
# (n+1)·n(n+1)/2 at rank n.  The largest one admitted, n = 31, took about
# 1 s and wrote 6 MB of JSON on a 2-core VM.
PAIR_BUDGET = 1 << 14
# `verify` is refused above this many labels, the (n+1)·4^n labels of the
# n+1 covers it stacks at nu = 0.  The largest one admitted, n = 8, took
# about 1.7 s on a 2-core VM; the battery at n = 9, run through the library,
# took about 6 s.
VERIFY_BUDGET = 1 << 20


def main(argv: list[str] | None = None) -> None:
    args = _build_parser().parse_args(argv)
    try:
        ctx = make_context(args.n, args.p)
        if getattr(args, "i", None) is not None:
            check_index(ctx, args.i)
        size = args.labels(ctx.n, args.i) if args.labels else 0
        if size > LAYER_BUDGET:
            raise ValueError(
                f"{args.command} at n={ctx.n}, i={args.i} would list {size} labels with "
                f"multiplicity, over the budget of {LAYER_BUDGET} labels"
            )
        pairs = (ctx.n + 1) * ctx.n * (ctx.n + 1) // 2
        if args.command == "jantzen" and pairs > PAIR_BUDGET:
            raise ValueError(
                f"jantzen at n={ctx.n} would check {pairs} (block index, root) pairs, "
                f"over the budget of {PAIR_BUDGET} pairs"
            )
        stacked = (ctx.n + 1) * 4**ctx.n if args.command == "verify" else 0
        if stacked > VERIFY_BUDGET:
            raise ValueError(
                f"verify at n={ctx.n} would stack {stacked} cover labels with multiplicity, "
                f"over the budget of {VERIFY_BUDGET} labels"
            )
        payload, code = args.func(ctx, args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        raise SystemExit(2) from None
    if args.format == "json":
        print(_dump_json({"n": ctx.n, "p": ctx.p, **payload}))
    else:
        print(args.render(ctx, payload, getattr(args, "full", False)))
    raise SystemExit(code)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loewylab",
        description="Exact invariants of the singular block of G1T-modules for SL(n+1).",
    )
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
        sp.set_defaults(func=func, render=render, labels=None)
        return sp

    common("block", "the block's weight table", cmd_block, _block_text)

    for command, help_text, kind, layers_of, labels, conditional in _LAYER_COMMANDS:
        sp = common(command, help_text, cmd_layers, _layers_text, twist=True, full=True)
        sp.add_argument("--i", type=int, required=True, help="block index in [0, n]")
        sp.set_defaults(kind=kind, layers_of=layers_of, labels=labels, conditional=conditional)

    sp = common("ext", "Ext^1 table, or one simple's Ext neighbourhood", cmd_ext, _ext_text,
                twist=True, full=True)
    sp.add_argument("--i", type=int, help="block index; omit for the full table")

    common("dim", "dimensions of simples and parabolic covers", cmd_dim, _dim_text)

    sp = common("jantzen", "witness certificates for block simplicity", cmd_jantzen, _jantzen_text,
                full=True)
    sp.add_argument("--i", type=int, help="restrict the listing to one block index")

    common("verify", "machine-check every library invariant at (n, p)", cmd_verify, _verify_text)

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


def _factors(layer: dict[IrreducibleLabel, int]) -> list[dict]:
    """One layer as factor dicts, sorted by (i, nu): the order both renderings show."""
    return [
        {"i": lab.i, "nu": list(lab.nu.coords), "mult": m}
        for lab, m in sorted(layer.items(), key=lambda item: (item[0].i, item[0].nu.coords))
    ]


# A document's template-written lists go through json.dumps as this slot,
# which cannot occur in the encoded skeleton otherwise (json.dumps escapes NUL).
_SLOT = "\x00rows"
_SLOT_JSON = '"\\u0000rows"'


def _dump_json(doc: dict) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2)`, byte for byte.

    With `indent` set, json.dumps runs its pure-Python encoder, which spends
    most of a long document's time on its rows.  So each layer's factor list
    and a jantzen report's certificate list are dumped as slots, and each
    slot is filled from %-format templates: one per layer for its rank, one
    per certificate for its number of betas.
    """
    if "layers" in doc:
        lists = [_factors_json(layer["factors"]) for layer in doc["layers"]]
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


def _factors_json(factors: list[dict]) -> list[str]:
    """The indent=2 text of one `layers[*].factors` list, in pieces.

    Layers are never empty and ranks are at least 1 (`make_context`).
    """
    nu = ",\n".join(["            %d"] * len(factors[0]["nu"]))
    template = '        {\n          "i": %d,\n          "mult": %d,\n          "nu": [\n'
    template += nu + "\n          ]\n        }"
    body = ",\n".join([template % (f["i"], f["mult"], *f["nu"]) for f in factors])
    return ["[\n", body, "\n      ]"]


def _certificates_json(certs: list[dict]) -> list[str]:
    """The indent=2 text of a jantzen report's `certificates` list, in pieces."""
    if not certs:
        return ["[]"]
    rows = [
        _certificate_template(len(c["betas"]))
        % (c["a"], c["b"], *c["beta0"], *[k for beta in c["betas"] for k in beta],
           c["i"], c["m"], *c["root"], c["s"])
        for c in certs
    ]
    return ["[\n", ",\n".join(rows), "\n    ]"]


@lru_cache(maxsize=64)
def _certificate_template(b: int) -> str:
    """One certificate row with b betas, its keys in sorted order."""
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


def _fmt_factor(factor: dict) -> str:
    return f"({factor['i']}; {_fmt_coords(factor['nu'])})"


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


# The layer subcommands: (name, help, object kind, layer rows function,
# closed form of the labels it lists counted with multiplicity, whether the
# result is conditional on the Loewy length conjecture).  The layer lambdas
# look the library function up in this module's namespace at call time, so
# a wrapper patched in there (as `bench/spans.py` does) still sees the call.
# The dual Verma's radical layers are the Verma's, reversed.
_LAYER_COMMANDS = (
    ("verma", "radical layers of a baby Verma module", "Zhat",
     lambda ctx, i, nu: verma_rows(ctx, i, nu), lambda n, i: 2**n, False),
    ("verma-dual", "radical layers of the dual baby Verma", "Zhat_dual",
     lambda ctx, i, nu: verma_rows(ctx, i, nu)[::-1], lambda n, i: 2**n, False),
    ("proj", "radical layers of a projective cover (conditional)", "Qhat",
     lambda ctx, i, nu: cover_rows(ctx, i, nu), lambda n, i: (n + 1) * comb(n, i) * 2**n,
     True),
)


def cmd_layers(ctx: BlockContext, args: argparse.Namespace) -> tuple[dict, int]:
    nu = _twist(args, ctx.n)
    layers = args.layers_of(ctx, args.i, nu)
    return {
        "object": _object_str(args.kind, args.i, nu),
        "layers": [
            {"j": j, "factors": [{"i": u, "nu": list(c), "mult": m} for u, c, m in rows]}
            for j, rows in enumerate(layers)
        ],
        CONDITIONAL_FLAG_KEY: args.conditional,
    }, 0


def _layers_text(ctx: BlockContext, payload: dict, full: bool) -> str:
    lines = [f"{payload['object']} radical layers, n={ctx.n}, p={ctx.p}"]
    if payload[CONDITIONAL_FLAG_KEY]:
        lines.append(f"note: {CONDITIONAL_FLAG_KEY} = true")
    for layer in payload["layers"]:
        factors = layer["factors"]
        total = sum(f["mult"] for f in factors)
        parts = [_fmt_factor(f) if f["mult"] == 1 else f"{f['mult']}*{_fmt_factor(f)}" for f in factors]
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
        "rad1_cover": _factors(rad1_qhat(ctx, args.i, nu)),
    }, 0


def _ext_text(ctx: BlockContext, payload: dict, full: bool) -> str:
    if payload["object"] == "ext-table":
        lines = [f"Ext^1 kinds between block simples, n={ctx.n}, p={ctx.p} (rows i, columns j)"]
        for i, row in enumerate(payload["kinds"]):
            lines.append(f"  i={i}: " + "  ".join(f"{v:8s}" for v in row))
        return "\n".join(lines)
    parts = [_fmt_factor(f) for f in payload["rad1_cover"]]
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
        for key in ("certificates", "failures", "replay_failures"):
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
    for c in report["certificates"]:
        betas = " ".join(f"({k},{j})" for k, j in c["betas"]) or "-"
        cert_lines.append(
            f"  i={c['i']} root=({c['root'][0]},{c['root'][1]}): "
            f"m={c['m']} = {c['a']}*{ctx.p}^{c['s']} + {c['b']}*{ctx.p}^{c['s'] + 1}, "
            f"beta0=({c['beta0'][0]},{c['beta0'][1]}), betas: {betas}"
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
