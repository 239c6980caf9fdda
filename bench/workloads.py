"""The benchmark's workloads: which loewylab commands one pass runs.

A pass is a list of ops; an op is the argv of one `loewylab` command.  Each
workload has fixed ops and seeded slots.  A slot draws its op from a pool
of POOL_SIZE ops built from a constant seed, so every op that any workload
seed can produce has a reference output hash in reference.json.  The seed
picks only twists and primes: an op's cost depends on its command and
(n, i), not on the twist or on p, so a pass costs the same for every seed.

The op sizes are chosen so that the pooled p50 of a pass falls inside a
group of equal-cost ops and p95 inside the costliest group, not on the
edge between two groups, where a little noise would move it a lot.
"""

from __future__ import annotations

import random

FORMAT = ["--format", "json"]
POOL_SIZE = 8
PRIMES = (3, 5, 7, 11, 13)

COVER_N = 6
COVER_TWISTED = (2, 2, 4, 4)
VERMA_NS = (11, 12, 13)
JANTZEN_GRID = ((12, 3), (15, 3), (15, 5), (15, 7), (18, 7))
VERIFY_GRID = ((4, 3), (5, 5), (5, 7), (5, 11), (6, 5))

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = ("cover-stack", "cert-sweep", "verma-wide", "verify-battery")


def _op(cmd: str, n: int, p: int, *rest: str) -> list[str]:
    return [cmd, "--n", str(n), "--p", str(p), *rest, *FORMAT]


def _primes(n: int) -> list[int]:
    return [q for q in PRIMES if (n + 1) % q]


def _twist(rng: random.Random, n: int, kind: str) -> list[str]:
    """A non-zero twist given by `--nu` (n coordinates) or `--eps` (n + 1),
    in `--flag=value` form so that a leading minus sign is not an option."""
    size = n if kind == "nu" else n + 1
    while True:
        coords = [rng.randint(-3, 3) for _ in range(size)]
        if len(set(coords)) > 1:
            return [f"--{kind}=" + ",".join(map(str, coords))]


def _slots(workload: str) -> dict[str, list[list[str]]]:
    """Seeded slots of a workload, each with its pool of ops."""
    slots = {}
    if workload == "cover-stack":
        for slot, i in enumerate(COVER_TWISTED):
            rng = random.Random(f"pool:{workload}:{slot}:{i}")
            slots[f"{slot}/i={i}"] = [
                _op("proj", COVER_N, rng.choice(_primes(COVER_N)), "--i", str(i),
                    *_twist(rng, COVER_N, rng.choice(("nu", "eps"))))
                for _ in range(POOL_SIZE)
            ]
    elif workload == "verma-wide":
        for cmd in ("verma", "verma-dual"):
            for n in VERMA_NS:
                for kind in ("nu", "eps"):
                    rng = random.Random(f"pool:{workload}:{cmd}:{n}:{kind}")
                    slots[f"{cmd}/{n}/{kind}"] = [
                        _op(cmd, n, rng.choice(_primes(n)), "--i", str(n // 2),
                            *_twist(rng, n, kind))
                        for _ in range(POOL_SIZE)
                    ]
    return slots


def _fixed(workload: str) -> list[list[str]]:
    if workload == "cover-stack":
        return [_op("proj", COVER_N, 5, "--i", str(i)) for i in range(COVER_N + 1)]
    if workload == "cert-sweep":
        return [_op("jantzen", n, p) for n, p in JANTZEN_GRID]
    if workload == "verify-battery":
        return [_op("verify", n, p) for n, p in VERIFY_GRID]
    return []


def ops(workload: str, seed: int) -> list[list[str]]:
    """One pass of `workload` for `seed`, in seeded order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    chosen = _fixed(workload) + [rng.choice(pool) for pool in _slots(workload).values()]
    rng.shuffle(chosen)
    return chosen


def all_ops() -> list[list[str]]:
    """Every op any seed can produce, across all workloads."""
    out = []
    for workload in WORKLOADS:
        out += _fixed(workload)
        for pool in _slots(workload).values():
            out += pool
    return out


def key(argv: list[str]) -> str:
    return " ".join(argv)
