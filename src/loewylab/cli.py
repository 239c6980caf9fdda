"""Command line front end.

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
from itertools import product
from math import comb

from .block import (
    BlockContext,
    IrreducibleLabel,
    block_weight,
    check_index,
    classify,
    label_weight,
    make_context,
    mu_weight,
    nu_weight,
)
from .chardim import (
    check_block_simplicity,
    dim_parabolic_verma,
    positive_roots,
    verify_dim_identity,
    weyl_dim,
)
from .ext import ext1_g1, ext1_g1t_dim, rad1_qhat
from .lattice import (
    Weight,
    eps_basis,
    eps_coords,
    from_eps,
    fundamental,
    in_root_lattice,
    leq,
    pair,
    rho,
    zero,
)
from .loewy import (
    composition_class_z_g1,
    layer_sizes,
    parabolic_m_structure,
    rad_layers_z_g1,
    rad_layers_z_g1t,
    rad_layers_zprime_g1t,
)
from .projective import (
    CONDITIONAL_FLAG_KEY,
    bgg_multiplicity,
    q_composition_mult_g1,
    rad_layers_qhat,
    verma_support,
)
from .weyl import act, longest, longest_fixing_last

__all__ = ["main"]

TRUNCATE_AT = 200


def main(argv: list[str] | None = None) -> None:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
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
    if getattr(args, "eps", None) is not None:
        return from_eps(_csv_ints(args.eps, n + 1, "eps"))
    if getattr(args, "nu", None) is not None:
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


def _layers_json(
    ctx: BlockContext,
    object_str: str,
    layers: list[dict[IrreducibleLabel, int]],
    conditional: bool,
) -> dict:
    return {
        "n": ctx.n,
        "p": ctx.p,
        "object": object_str,
        "layers": [{"j": j, "factors": _factors_json(layer)} for j, layer in enumerate(layers)],
        CONDITIONAL_FLAG_KEY: conditional,
    }


def _emit(args: argparse.Namespace, text: str, payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text)


def _object_str(kind: str, i: int, nu: Weight) -> str:
    return f"{kind}(i={i}, nu={_fmt_weight(nu)})"


# ---------------------------------------------------------------- commands


def cmd_block(args: argparse.Namespace) -> int:
    ctx = make_context(args.n, args.p)
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
    payload = {"n": ctx.n, "p": ctx.p, "object": "block", "weights": rows}
    _emit(args, "\n".join(lines), payload)
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


def cmd_layers(args: argparse.Namespace) -> int:
    ctx = make_context(args.n, args.p)
    check_index(ctx, args.i)
    nu = _twist(args, ctx.n)
    layers = args.layers_of(ctx, args.i, nu)
    obj = _object_str(args.kind, args.i, nu)
    text = _layers_text(
        f"{obj} radical layers, n={ctx.n}, p={ctx.p}", layers, args.full, args.conditional
    )
    _emit(args, text, _layers_json(ctx, obj, layers, args.conditional))
    return 0


def cmd_ext(args: argparse.Namespace) -> int:
    ctx = make_context(args.n, args.p)
    n = ctx.n
    if args.i is None:
        table = [[ext1_g1(ctx, i, j).kind.value for j in range(n + 1)] for i in range(n + 1)]
        lines = [f"Ext^1 kinds between block simples, n={n}, p={ctx.p} (rows i, columns j)"]
        for i, row in enumerate(table):
            lines.append(f"  i={i}: " + "  ".join(f"{v:8s}" for v in row))
        payload = {"n": n, "p": ctx.p, "object": "ext-table", "kinds": table}
        _emit(args, "\n".join(lines), payload)
        return 0
    check_index(ctx, args.i)
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
    payload = {
        "n": n,
        "p": ctx.p,
        "object": obj,
        "kinds": kinds,
        "rad1_cover": _factors_json(layer),
    }
    _emit(args, "\n".join(lines), payload)
    return 0


def cmd_dim(args: argparse.Namespace) -> int:
    ctx = make_context(args.n, args.p)
    n, p = ctx.n, ctx.p
    verma_dim = p ** (n * (n + 1) // 2)
    rows = []
    lines = [f"dimensions in the block, n={n}, p={p} (baby Verma dimension {verma_dim})"]
    conservation = True
    for i in range(n + 1):
        d = weyl_dim(ctx.lambdas[i])
        d_i = dim_parabolic_verma(ctx, i, "I") if i < n else None
        d_j = dim_parabolic_verma(ctx, i, "J") if i > 0 else None
        ok_i = verify_dim_identity(ctx, i, "I") if i < n else None
        ok_j = verify_dim_identity(ctx, i, "J") if i > 0 else None
        total = sum(
            mult * weyl_dim(ctx.lambdas[t]) for t, mult in composition_class_z_g1(ctx, i).items()
        )
        conservation = conservation and total == verma_dim
        rows.append(
            {
                "i": i,
                "dim_simple": d,
                "dim_cover_I": d_i,
                "dim_cover_J": d_j,
                "identity_I": ok_i,
                "identity_J": ok_j,
            }
        )
        cover_i = f"M_I={d_i} ({'ok' if ok_i else 'FAIL'})" if i < n else "M_I=-"
        cover_j = f"M_J={d_j} ({'ok' if ok_j else 'FAIL'})" if i > 0 else "M_J=-"
        lines.append(f"  i={i}: dim L={d}  {cover_i}  {cover_j}")
    lines.append(f"  per-Verma dimension conservation: {'ok' if conservation else 'FAIL'}")
    payload = {
        "n": n,
        "p": p,
        "object": "dim",
        "rows": rows,
        "verma_dimension": verma_dim,
        "conservation_ok": conservation,
    }
    _emit(args, "\n".join(lines), payload)
    return 0 if conservation else 1


def cmd_jantzen(args: argparse.Namespace) -> int:
    ctx = make_context(args.n, args.p)
    if args.i is not None:
        check_index(ctx, args.i)
    report = check_block_simplicity(ctx)
    certs = report["certificates"]
    failures = report["failures"] + report["replay_failures"]
    if args.i is not None:
        certs = [c for c in certs if c["i"] == args.i]
        failures = [f for f in failures if f["i"] == args.i]
    status = "OK" if report["ok"] else "FAILURES"
    lines = [
        f"simplicity certificates, n={ctx.n}, p={ctx.p}: checked {report['checked']} pairs, "
        f"replayed {report['replayed']} closed forms: {status}"
    ]
    cert_lines = []
    for c in certs:
        betas = " ".join(f"({k},{j})" for k, j in c["betas"]) or "-"
        cert_lines.append(
            f"  i={c['i']} root=({c['root'][0]},{c['root'][1]}): "
            f"m={c['m']} = {c['a']}*{ctx.p}^{c['s']} + {c['b']}*{ctx.p}^{c['s'] + 1}, "
            f"beta0=({c['beta0'][0]},{c['beta0'][1]}), betas: {betas}"
        )
    lines.extend(_truncate(cert_lines, args.full))
    for f in failures:
        lines.append(f"  FAIL i={f['i']} root={f['root']}: {f['reason']}")
    payload = {"n": ctx.n, "p": ctx.p, "object": "jantzen", "report": report}
    _emit(args, "\n".join(lines), payload)
    return 0 if report["ok"] else 1


def cmd_verify(args: argparse.Namespace) -> int:
    ctx = make_context(args.n, args.p)
    checks = _verify_checks(ctx)
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
    payload = {"n": ctx.n, "p": ctx.p, "object": "verify", "checks": checks, "ok": ok}
    _emit(args, "\n".join(lines), payload)
    return 0 if ok else 1


# ---------------------------------------------------------------- verify battery


def _verify_checks(ctx: BlockContext) -> list[dict]:
    n, p = ctx.n, ctx.p
    checks: list[dict] = []

    def add(name: str, ok: bool, detail: str = "", conditional: bool = False) -> None:
        checks.append(
            {"name": name, "ok": bool(ok), "detail": "" if ok else detail, "conditional": conditional}
        )

    twists = [zero(n), fundamental(n, 1), -fundamental(n, n)]

    # Weight arithmetic round trips and the rho pairing normalisation.
    samples = list(ctx.lambdas) + [rho(n), zero(n), fundamental(n, 1)]
    ok = all(from_eps(eps_coords(w)) == w for w in samples)
    ok = ok and all(pair(rho(n), k, j) == j - k for k, j in positive_roots(n))
    ok = ok and all(leq(w, w) for w in samples)
    add("lattice.round_trip", ok, "eps round trip or rho pairing broke")

    # Twisting by p preserves and reflects the dominance order.
    pairs = list(product(twists + [rho(n)], repeat=2))
    ok = all(leq(p * a, p * b) == leq(a, b) for a, b in pairs)
    add("lattice.twist_order", ok, "p-dilation did not preserve/reflect the order")

    # Minimality of the first fundamental weight in its dominant coset.
    bad = None
    for coords in product(range(3), repeat=n):
        w = Weight(coords)
        if in_root_lattice(w - fundamental(n, 1)) and not leq(fundamental(n, 1), w):
            bad = w
            break
    add("lattice.coset_minimality", bad is None, f"counterexample {bad and bad.coords}")

    # The weight table against its defining companions.
    ok = all(
        ctx.lambdas[i] == mu_weight(ctx, i) + p * rho(n) - p * fundamental(n, i + 1)
        for i in range(n)
    )
    ok = ok and ctx.lambdas[n] == mu_weight(ctx, n) + p * rho(n)
    ok = ok and all(
        all(0 <= c < p for c in block_weight(ctx, i, a).coords)
        for i in range(n + 1)
        for a in range(1, p)
    )
    ok = ok and all(
        classify(ctx, label_weight(ctx, IrreducibleLabel(i, t))) == IrreducibleLabel(i, t)
        for i in range(n + 1)
        for t in twists
    )
    add("block.weight_table", ok, "lambda/mu/classification identities broke")

    # The lowest-weight identity tying consecutive table entries together.
    w_i, w_0 = longest_fixing_last(n), longest(n)
    shift = -((p - 1) * (n + 1)) * fundamental(n, n)
    target = -p * fundamental(n, n)
    ok = all(
        shift + act(w_i, ctx.lambdas[i]) - act(w_0, ctx.lambdas[i + 1]) == target
        for i in range(n)
    )
    add("block.lowest_weight_identity", ok, "Weyl-twisted lowest weights misaligned")

    # Parabolic cover dimensions are sums of adjacent simple dimensions.
    ok = all(verify_dim_identity(ctx, i, "I") for i in range(n))
    ok = ok and all(verify_dim_identity(ctx, i, "J") for i in range(1, n + 1))
    add("chardim.dim_identities", ok, "a cover dimension identity failed")

    # Composition factors of each baby Verma account for its full dimension.
    verma_dim = p ** (n * (n + 1) // 2)
    ok = all(
        sum(m * weyl_dim(ctx.lambdas[t]) for t, m in composition_class_z_g1(ctx, i).items())
        == verma_dim
        for i in range(n + 1)
    )
    add("chardim.dimension_conservation", ok, "dimensions do not sum to p^(n(n+1)/2)")

    # Every pairing has a valid certificate, by search and by closed form.
    report = check_block_simplicity(ctx)
    add(
        "chardim.block_simplicity",
        report["ok"],
        f"{len(report['failures'])} search, {len(report['replay_failures'])} replay failures",
    )

    # Layer counts: binomial per layer, Loewy length n + 1, twist-sum match.
    ok = True
    for i in range(n + 1):
        g1 = rad_layers_z_g1(ctx, i)
        ok = ok and layer_sizes(g1) == [comb(n, j) for j in range(n + 1)]
        for t in twists:
            g1t = rad_layers_z_g1t(ctx, i, t)
            ok = ok and layer_sizes(g1t) == [comb(n, j) for j in range(n + 1)]
            collapsed = [
                {
                    u: sum(m for lab, m in layer.items() if lab.i == u)
                    for u in {lab.i for lab in layer}
                }
                for layer in g1t
            ]
            ok = ok and collapsed == g1
    add("loewy.layer_counts", ok, "layer sizes or twist-collapse mismatch")

    # First radical layer against the two parabolic covers' second layers.
    ok = True
    for i in range(n + 1):
        for t in twists:
            expected = {}
            for x in range(1, i + 1):
                expected[IrreducibleLabel(i - 1, t - eps_basis(n, x))] = 1
            for y in range(i + 2, n + 2):
                expected[IrreducibleLabel(i + 1, t + eps_basis(n, y))] = 1
            ok = ok and rad_layers_z_g1t(ctx, i, t)[1] == expected
            if i < n:
                sub = parabolic_m_structure(ctx, i, t, "I")[1]
                ok = ok and all(lab in expected for lab in sub)
            if i > 0:
                sub = parabolic_m_structure(ctx, i, t, "J")[1]
                ok = ok and all(lab in expected for lab in sub)
    add("loewy.rad1_parabolic_forms", ok, "rad_1 disagrees with the cover forms")

    # Rigidity: socle series and dual-Verma radicals are index reversals.
    ok = True
    for i in range(n + 1):
        for t in twists:
            rev = rad_layers_zprime_g1t(ctx, i, t)
            ok = ok and rev == list(reversed(rad_layers_z_g1t(ctx, i, t)))
            ok = ok and rev[-1] == {IrreducibleLabel(i, t): 1}
    add("loewy.rigidity", ok, "socle/dual series are not reversals")

    # Ext rules: symmetry, adjacency vanishing, and the cover's first layer.
    ok = True
    labels = [IrreducibleLabel(i, t) for i in range(n + 1) for t in twists]
    for a in labels:
        for b in labels:
            d_ab, d_ba = ext1_g1t_dim(ctx, a, b), ext1_g1t_dim(ctx, b, a)
            ok = ok and d_ab == d_ba
            if abs(a.i - b.i) != 1:
                ok = ok and d_ab == 0
    for i in range(n + 1):
        for t in twists:
            layer = rad1_qhat(ctx, i, t)
            want = (n + 1) * ((i > 0) + (i < n))
            ok = ok and sum(layer.values()) == want
            head = IrreducibleLabel(i, t)
            ok = ok and all(ext1_g1t_dim(ctx, head, b) == 1 for b in layer)
            ok = ok and all(m == 1 for m in layer.values())
            verma_rad1 = rad_layers_z_g1t(ctx, i, t)[1]
            ok = ok and all(lab in layer for lab in verma_rad1)
    add("ext.rules", ok, "symmetry/vanishing/first-layer rules broke")

    # Projective covers: shape, palindromy, first layer, and aggregates.
    ok = True
    for i in range(n + 1):
        layers = rad_layers_qhat(ctx, i, zero(n))
        ok = ok and len(layers) == 2 * n + 1
        ok = ok and layers[0] == {IrreducibleLabel(i, zero(n)): 1}
        ok = ok and layers[1] == rad1_qhat(ctx, i, zero(n))
        ok = ok and all(layers[j] == layers[2 * n - j] for j in range(2 * n + 1))
        totals: dict[int, int] = {}
        for layer in layers:
            for lab, m in layer.items():
                totals[lab.i] = totals.get(lab.i, 0) + m
        ok = ok and totals == {j: q_composition_mult_g1(ctx, i, j) for j in range(n + 1)}
        head = IrreducibleLabel(i, zero(n))
        ok = ok and bgg_multiplicity(ctx, head, head) == 1
        ok = ok and all(e.mult == 1 for e in verma_support(ctx, i, zero(n)))
    add(
        "projective.structure",
        ok,
        "cover layer shape or aggregates broke",
        conditional=True,
    )

    return checks
