"""Closed-form checks of loewylab's `--format json` output.

Written from the sizes PAPER.md states, without importing the library, so a
wrong library cannot pass its own check:

* a baby Verma (`verma`, `verma-dual`) has n + 1 radical layers, layer j
  holds C(n, j) distinct factors of multiplicity one, 2^n in all, with the
  head (i, nu) on top (on the bottom for the dual), and each factor of
  radical layer j is (i + j - 2k, nu - eps_X + eps_Y) with X a k-subset of
  [1, i] and Y a (j - k)-subset of [i + 2, n + 1] (the dual's layer j is
  the Verma's layer n - j);
* a projective cover (`proj`) has 2n + 1 palindromic layers with the head
  (i, nu) alone on top, and its multiplicities total (n + 1) C(n, i) 2^n;
* `jantzen` certifies all (n + 1) n (n + 1) / 2 (index, root) pairs;
* `verify` passes all 13 of its checks.
"""

from __future__ import annotations

import json
from math import comb

VERIFY_CHECKS = 13


def parse_argv(argv: list[str]) -> tuple[str, dict[str, str]]:
    """The subcommand and its `--flag value` or `--flag=value` options."""
    opts = {}
    words = iter(argv[1:])
    for word in words:
        flag, eq, value = word.removeprefix("--").partition("=")
        opts[flag] = value if eq else next(words)
    return argv[0], opts


def twist(opts: dict[str, str], n: int) -> list[int]:
    """The twist nu in fundamental coordinates, as the op's flags give it."""
    if "nu" in opts:
        return [int(c) for c in opts["nu"].split(",")]
    if "eps" in opts:
        e = [int(c) for c in opts["eps"].split(",")]
        return [e[t] - e[t + 1] for t in range(n)]
    return [0] * n


def check(argv: list[str], stdout: bytes) -> list[str]:
    """Problems found in one op's stdout; empty when the output is right."""
    cmd, opts = parse_argv(argv)
    try:
        doc = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"]
    n, p = int(opts["n"]), int(opts["p"])
    try:
        problems = [] if (doc["n"], doc["p"]) == (n, p) else [f"(n, p) is not ({n}, {p})"]
        if cmd in ("verma", "verma-dual"):
            problems += _check_verma(doc, n, int(opts["i"]), twist(opts, n), cmd == "verma-dual")
        elif cmd == "proj":
            problems += _check_cover(doc, n, int(opts["i"]), twist(opts, n))
        elif cmd == "jantzen":
            problems += _check_jantzen(doc["report"], n)
        elif cmd == "verify":
            problems += _check_verify(doc)
        else:
            problems.append(f"no closed-form check for {cmd!r}")
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        problems = [f"malformed output: {type(err).__name__}: {err}"]
    return problems


def _factors(layer: dict) -> list[tuple[int, tuple[int, ...], int]]:
    return [(f["i"], tuple(f["nu"]), f["mult"]) for f in layer["factors"]]


def _check_verma(doc: dict, n: int, i: int, nu: list[int], dual: bool) -> list[str]:
    layers = doc["layers"]
    problems = []
    if len(layers) != n + 1:
        return [f"{len(layers)} layers, want n + 1 = {n + 1}"]
    total = 0
    for j, layer in enumerate(layers):
        factors = _factors(layer)
        want = comb(n, j)
        if layer["j"] != j or len(factors) != want:
            problems.append(f"layer {j} has {len(factors)} factors, want C({n},{j}) = {want}")
        if len({(t, eta) for t, eta, _ in factors}) != len(factors):
            problems.append(f"layer {j} repeats a factor")
        if any(m != 1 for *_, m in factors):
            problems.append(f"layer {j} has a multiplicity other than 1")
        depth = n - j if dual else j
        if not all(_verma_label(n, i, nu, depth, t, eta) for t, eta, _ in factors):
            problems.append(f"layer {j} has a factor outside the layer formula")
        total += sum(m for *_, m in factors)
    if total != 2**n:
        problems.append(f"layers total {total}, want 2^n = {2**n}")
    head = layers[-1 if dual else 0]
    if _factors(head) != [(i, tuple(nu), 1)]:
        problems.append(f"head layer is not the single label ({i}, {nu})")
    if doc["conditional_on_loewy_length_conjecture"] is not False:
        problems.append("a Verma's layers are flagged conditional")
    return problems


def _verma_label(n: int, i: int, nu: list[int], j: int, t: int, eta: tuple[int, ...]) -> bool:
    """Whether (t, eta) is (i + j - 2k, nu - eps_X + eps_Y) as above."""
    if len(eta) != n:
        return False
    # eps coefficients of eta - nu, up to the shift that sums eps to zero;
    # slot i + 1 lies in neither X nor Y, so its coefficient is the shift.
    c = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        c[k] = c[k + 1] + eta[k] - nu[k]
    v = [x - c[i] for x in c]
    xs = [s for s, x in enumerate(v) if x == -1]
    ys = [s for s, x in enumerate(v) if x == 1]
    return (
        len(xs) + len(ys) == sum(x != 0 for x in v) == j
        and all(s < i for s in xs)
        and all(s > i for s in ys)
        and t == i + j - 2 * len(xs)
    )


def _check_cover(doc: dict, n: int, i: int, nu: list[int]) -> list[str]:
    layers = doc["layers"]
    if len(layers) != 2 * n + 1:
        return [f"{len(layers)} layers, want 2n + 1 = {2 * n + 1}"]
    problems = []
    factors = [sorted(_factors(layer)) for layer in layers]
    for j in range(n):
        if factors[j] != factors[2 * n - j]:
            problems.append(f"layers {j} and {2 * n - j} differ: not palindromic")
    total = sum(m for layer in factors for *_, m in layer)
    want = (n + 1) * comb(n, i) * 2**n
    if total != want:
        problems.append(f"multiplicities total {total}, want (n+1) C(n,i) 2^n = {want}")
    if factors[0] != [(i, tuple(nu), 1)]:
        problems.append(f"head layer is not the single label ({i}, {nu})")
    if doc["conditional_on_loewy_length_conjecture"] is not True:
        problems.append("cover layers are not flagged conditional")
    return problems


def _check_jantzen(report: dict, n: int) -> list[str]:
    want = (n + 1) * n * (n + 1) // 2
    problems = []
    if report["ok"] is not True:
        problems.append("report is not ok")
    if report["checked"] != want or report["replayed"] != want:
        problems.append(
            f"checked {report['checked']}, replayed {report['replayed']}, "
            f"want (n+1) n(n+1)/2 = {want}"
        )
    if report["failures"] or report["replay_failures"]:
        problems.append("report lists failures")
    if len(report["certificates"]) != want:
        problems.append(f"{len(report['certificates'])} certificates, want {want}")
    return problems


def _check_verify(doc: dict) -> list[str]:
    checks = doc["checks"]
    problems = []
    if doc["ok"] is not True:
        problems.append("verify is not ok")
    if len(checks) != VERIFY_CHECKS or len({c["name"] for c in checks}) != VERIFY_CHECKS:
        problems.append(f"{len(checks)} checks, want {VERIFY_CHECKS} distinct")
    failed = [c["name"] for c in checks if c["ok"] is not True]
    if failed:
        problems.append(f"checks failed: {', '.join(failed)}")
    return problems
