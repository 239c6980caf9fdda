"""Command line front end: parses arguments, renders results, sets exit codes.

The library computes and checks; `main` builds the block context (and
checks `--i`) once, and each subcommand renders what the library returns.
Subcommands: block, verma, verma-dual, proj, ext, dim, jantzen, verify.
Output is plain text by default or JSON with --format json; JSON is
emitted with sorted keys and fixed layout, so reruns are byte-identical.
Exit codes: 0 on success, 1 when a verification fails, 2 on invalid input
(the message names the violated hypothesis).
"""

from __future__ import annotations

import argparse
import json
import sys

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
from .loewy import rad_layers_z_g1t, rad_layers_zprime_g1t
from .projective import CONDITIONAL_FLAG_KEY, rad_layers_qhat

__all__ = ["main"]

TRUNCATE_AT = 200


def main(argv: list[str] | None = None) -> None:
    args = _build_parser().parse_args(argv)
    try:
        ctx = make_context(args.n, args.p)
        if getattr(args, "i", None) is not None:
            check_index(ctx, args.i)
        code = args.func(ctx, args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        raise SystemExit(2) from None
    raise SystemExit(code)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loewylab",
        description="Exact invariants of the singular block of G1T-modules for SL(n+1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser, twist: bool = False, full: bool = False) -> None:
        sp.add_argument("--n", type=int, required=True, help="rank; the group is SL(n+1)")
        sp.add_argument("--p", type=int, required=True, help="odd prime not dividing n+1")
        if twist:
            group = sp.add_mutually_exclusive_group()
            group.add_argument("--nu", help="twist in fundamental coordinates, n comma-separated ints (default 0)")
            group.add_argument("--eps", help="twist in eps coefficients, n+1 comma-separated ints")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        if full:
            sp.add_argument("--full", action="store_true", help="never truncate long listings")

    sp = sub.add_parser("block", help="the block's weight table")
    common(sp)
    sp.set_defaults(func=cmd_block)

    for command, help_text, kind, layers_of, conditional in _LAYER_COMMANDS:
        sp = sub.add_parser(command, help=help_text)
        common(sp, twist=True, full=True)
        sp.add_argument("--i", type=int, required=True, help="block index in [0, n]")
        sp.set_defaults(func=cmd_layers, kind=kind, layers_of=layers_of, conditional=conditional)

    sp = sub.add_parser("ext", help="Ext^1 table, or one simple's Ext neighbourhood")
    common(sp, twist=True, full=True)
    sp.add_argument("--i", type=int, help="block index; omit for the full table")
    sp.set_defaults(func=cmd_ext)

    sp = sub.add_parser("dim", help="dimensions of simples and parabolic covers")
    common(sp)
    sp.set_defaults(func=cmd_dim)

    sp = sub.add_parser("jantzen", help="witness certificates for block simplicity")
    common(sp, full=True)
    sp.add_argument("--i", type=int, help="restrict the listing to one block index")
    sp.set_defaults(func=cmd_jantzen)

    sp = sub.add_parser("verify", help="machine-check every library invariant at (n, p)")
    common(sp)
    sp.set_defaults(func=cmd_verify)

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


def _fmt_weight(w: Weight) -> str:
    return "[" + ",".join(str(c) for c in w.coords) + "]"


def _fmt_label(label: IrreducibleLabel) -> str:
    return f"({label.i}; {_fmt_weight(label.nu)})"


def _label_key(item: tuple[IrreducibleLabel, int]) -> tuple[int, tuple[int, ...]]:
    return (item[0].i, item[0].nu.coords)


def _truncate(parts: list[str], full: bool) -> list[str]:
    if full or len(parts) <= TRUNCATE_AT:
        return parts
    return parts[:TRUNCATE_AT] + [f"... ({len(parts) - TRUNCATE_AT} more)"]


def _layers_text(
    title: str, layers: list[dict[IrreducibleLabel, int]], full: bool, conditional: bool
) -> str:
    lines = [title]
    if conditional:
        lines.append(f"note: {CONDITIONAL_FLAG_KEY} = true")
    for j, layer in enumerate(layers):
        parts = [
            _fmt_label(lab) if m == 1 else f"{m}*{_fmt_label(lab)}"
            for lab, m in sorted(layer.items(), key=_label_key)
        ]
        total = sum(layer.values())
        body = "  ".join(_truncate(parts, full))
        lines.append(f"  rad_{j} ({total}): {body}")
    return "\n".join(lines)


def _factors_json(layer: dict[IrreducibleLabel, int]) -> list[dict]:
    return [
        {"i": lab.i, "nu": list(lab.nu.coords), "mult": m}
        for lab, m in sorted(layer.items(), key=_label_key)
    ]


def _emit(args: argparse.Namespace, ctx: BlockContext, obj: str, text: str, payload: dict) -> None:
    """Print the text, or the payload in JSON with its n, p and object."""
    if args.format == "json":
        envelope = {"n": ctx.n, "p": ctx.p, "object": obj, **payload}
        print(json.dumps(envelope, sort_keys=True, indent=2))
    else:
        print(text)


def _object_str(kind: str, i: int, nu: Weight) -> str:
    return f"{kind}(i={i}, nu={_fmt_weight(nu)})"


# ---------------------------------------------------------------- commands


def cmd_block(ctx: BlockContext, args: argparse.Namespace) -> int:
    rows = []
    lines = [f"singular block for SL({ctx.n + 1}), p = {ctx.p}: {ctx.n + 1} restricted weights"]
    for i in range(ctx.n + 1):
        lam, mu, nu = ctx.lambdas[i], mu_weight(ctx, i), nu_weight(ctx, i)
        rows.append(
            {"i": i, "lambda": list(lam.coords), "mu": list(mu.coords), "rho_shifted": list(nu.coords)}
        )
        lines.append(
            f"  i={i}: lambda={_fmt_weight(lam)}  mu={_fmt_weight(mu)}  lambda+rho={_fmt_weight(nu)}"
        )
    _emit(args, ctx, "block", "\n".join(lines), {"weights": rows})
    return 0


# The layer subcommands: (name, help, object kind, layer function, whether
# the result is conditional on the Loewy length conjecture).  The lambdas
# look the library function up in this module's namespace at call time, so
# a wrapper patched in there (as `bench/spans.py` does) still sees the call.
_LAYER_COMMANDS = (
    ("verma", "radical layers of a baby Verma module", "Zhat",
     lambda ctx, i, nu: rad_layers_z_g1t(ctx, i, nu), False),
    ("verma-dual", "radical layers of the dual baby Verma", "Zhat_dual",
     lambda ctx, i, nu: rad_layers_zprime_g1t(ctx, i, nu), False),
    ("proj", "radical layers of a projective cover (conditional)", "Qhat",
     lambda ctx, i, nu: rad_layers_qhat(ctx, i, nu), True),
)


def cmd_layers(ctx: BlockContext, args: argparse.Namespace) -> int:
    nu = _twist(args, ctx.n)
    layers = args.layers_of(ctx, args.i, nu)
    obj = _object_str(args.kind, args.i, nu)
    text = _layers_text(
        f"{obj} radical layers, n={ctx.n}, p={ctx.p}", layers, args.full, args.conditional
    )
    payload = {
        "layers": [{"j": j, "factors": _factors_json(layer)} for j, layer in enumerate(layers)],
        CONDITIONAL_FLAG_KEY: args.conditional,
    }
    _emit(args, ctx, obj, text, payload)
    return 0


def cmd_ext(ctx: BlockContext, args: argparse.Namespace) -> int:
    n = ctx.n
    if args.i is None:
        if args.nu is not None or args.eps is not None:
            raise ValueError("--nu and --eps need --i: the Ext^1 kind table takes no twist")
        table = [[ext1_g1(ctx, i, j).kind.value for j in range(n + 1)] for i in range(n + 1)]
        lines = [f"Ext^1 kinds between block simples, n={n}, p={ctx.p} (rows i, columns j)"]
        for i, row in enumerate(table):
            lines.append(f"  i={i}: " + "  ".join(f"{v:8s}" for v in row))
        _emit(args, ctx, "ext-table", "\n".join(lines), {"kinds": table})
        return 0
    nu = _twist(args, ctx.n)
    layer = rad1_qhat(ctx, args.i, nu)
    kinds = [ext1_g1(ctx, args.i, j).kind.value for j in range(n + 1)]
    obj = _object_str("ext", args.i, nu)
    parts = [_fmt_label(lab) for lab, _ in sorted(layer.items(), key=_label_key)]
    lines = [
        f"{obj}, n={n}, p={ctx.p}",
        "  Ext^1 kind toward each j: " + "  ".join(f"j={j}:{v}" for j, v in enumerate(kinds)),
        f"  Ext^1-neighbour labels (= rad_1 of the projective cover, {len(parts)} labels):",
        "    " + "  ".join(_truncate(parts, args.full)),
    ]
    payload = {"kinds": kinds, "rad1_cover": _factors_json(layer)}
    _emit(args, ctx, obj, "\n".join(lines), payload)
    return 0


def cmd_dim(ctx: BlockContext, args: argparse.Namespace) -> int:
    table = dimension_table(ctx)
    lines = [
        f"dimensions in the block, n={ctx.n}, p={ctx.p} "
        f"(baby Verma dimension {table['verma_dimension']})"
    ]
    for row in table["rows"]:
        d_i, d_j = row["dim_cover_I"], row["dim_cover_J"]
        cover_i = "M_I=-" if d_i is None else f"M_I={d_i} ({'ok' if row['identity_I'] else 'FAIL'})"
        cover_j = "M_J=-" if d_j is None else f"M_J={d_j} ({'ok' if row['identity_J'] else 'FAIL'})"
        lines.append(f"  i={row['i']}: dim L={row['dim_simple']}  {cover_i}  {cover_j}")
    conservation = table["conservation_ok"]
    lines.append(f"  per-Verma dimension conservation: {'ok' if conservation else 'FAIL'}")
    _emit(args, ctx, "dim", "\n".join(lines), table)
    return 0 if conservation else 1


def cmd_jantzen(ctx: BlockContext, args: argparse.Namespace) -> int:
    report = check_block_simplicity(ctx)
    if args.i is not None:
        # The listings follow --i; the counts and status describe the sweep.
        for key in ("certificates", "failures", "replay_failures"):
            report[key] = [entry for entry in report[key] if entry["i"] == args.i]
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
    lines.extend(_truncate(cert_lines, args.full))
    for f in report["failures"] + report["replay_failures"]:
        lines.append(f"  FAIL i={f['i']} root={f['root']}: {f['reason']}")
    _emit(args, ctx, "jantzen", "\n".join(lines), {"report": report})
    return 0 if report["ok"] else 1


def cmd_verify(ctx: BlockContext, args: argparse.Namespace) -> int:
    checks = verify_checks(ctx)
    ok = all(c["ok"] for c in checks)
    lines = []
    for c in checks:
        tag = "PASS" if c["ok"] else "FAIL"
        cond = " [conditional]" if c["conditional"] else ""
        detail = f": {c['detail']}" if c["detail"] else ""
        lines.append(f"{tag} {c['name']}{cond}{detail}")
    lines.append(
        f"{'all checks passed' if ok else 'CHECKS FAILED'} at n={ctx.n}, p={ctx.p} "
        f"({len(checks)} checks)"
    )
    _emit(args, ctx, "verify", "\n".join(lines), {"checks": checks, "ok": ok})
    return 0 if ok else 1
