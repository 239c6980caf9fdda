import random
from collections import Counter

import pytest

import loewylab.chardim
import loewylab.lattice
from loewylab.block import make_context, nu_weight
from loewylab.chardim import (
    _closed_forms,
    _witness_ok,
    check_block_simplicity,
    dim_parabolic_verma,
    jantzen_decompose,
    positive_roots,
    superfactorial,
    weyl_dim,
    witness_search,
)
from loewylab.checks import dimension_table, identities_hold
from loewylab.lattice import _pair_table, fundamental, pair, rho, zero
from loewylab.loewy import composition_class_z_g1
from oracles import certificate_ok, pairings, very_good_primes


def test_positive_roots_lex_order():
    assert positive_roots(2) == [(1, 2), (1, 3), (2, 3)]
    assert len(positive_roots(5)) == 15


def test_superfactorial():
    assert [superfactorial(m) for m in range(5)] == [1, 1, 2, 12, 288]


def test_rank_and_root_arguments_must_be_ints():
    # A bool or float compares equal to an int: unchecked, positive_roots(True)
    # would be [(1, 2)] and superfactorial(True) 1.
    assert positive_roots(0) == [] and superfactorial(0) == 1
    for bad in (True, 1.0, 2.5):
        with pytest.raises(TypeError, match=rf"^rank must be an int \(got {bad!r}\)$"):
            positive_roots(bad)
        with pytest.raises(TypeError, match=rf"^m must be an int \(got {bad!r}\)$"):
            superfactorial(bad)


def test_witness_search_checks_p_before_anything_else():
    # (-1, 2) pairs to -1 at (1, 2), which has no witness, so no split
    # would meet p there: p is checked once, first, for every nu.
    assert witness_search((-1, 2), 5) == {
        -1: None, 1: (1, 0, 1, 0, (1, 3), ()), 2: (2, 0, 2, 0, (2, 3), ())
    }
    for bad in (-7, 1):
        with pytest.raises(ValueError, match=rf"^p must be >= 2 \(got {bad}\)$"):
            witness_search((-1, 2), bad)
    for bad in (5.0, True):
        with pytest.raises(TypeError, match=rf"^p must be an int \(got {bad!r}\)$"):
            witness_search((-1, 2), bad)
        # Before nu: a bad p is named even when nu is no weight.
        with pytest.raises(TypeError, match=r"^p must be an int"):
            witness_search([-1, 2], bad)


def test_weyl_dim_small_cases():
    assert weyl_dim(zero(3)) == 1
    assert weyl_dim(fundamental(2, 1)) == 3
    assert weyl_dim(fundamental(3, 2)) == 6
    assert weyl_dim(rho(2)) == 8
    with pytest.raises(ValueError):
        weyl_dim((-1, 0))


def test_a_weyl_numerator_that_does_not_divide_is_an_error(monkeypatch):
    # The Weyl quotient is exact or an error: with 1! patched to 3, the rank-1
    # numerator 2 at nu = (2,) leaves remainder 2, which must not floor to 0.
    monkeypatch.setattr(loewylab.chardim, "superfactorial", lambda m: 3)
    message = r"^Weyl numerator must divide exactly \(remainder 2 at \(2,\)\)$"
    with pytest.raises(RuntimeError, match=message):
        weyl_dim((1,))


def test_block_simple_dimensions_frozen():
    ctx = make_context(2, 5)
    assert [weyl_dim(lam) for lam in ctx.lambdas] == [15, 10, 90]
    ctx = make_context(1, 5)
    assert [weyl_dim(lam) for lam in ctx.lambdas] == [1, 4]


def test_parabolic_cover_dimensions_frozen():
    ctx = make_context(2, 5)
    assert dim_parabolic_verma(ctx, 0, "I") == 25
    assert dim_parabolic_verma(ctx, 1, "I") == 100
    assert dim_parabolic_verma(ctx, 1, "J") == 25
    assert dim_parabolic_verma(ctx, 2, "J") == 100
    with pytest.raises(ValueError):
        dim_parabolic_verma(ctx, 0, "K")


def test_dimension_conservation_per_verma():
    for n in range(1, 5):
        for p in very_good_primes(n, 2):
            ctx = make_context(n, p)
            verma_dim = p ** (n * (n + 1) // 2)
            for i in range(n + 1):
                total = sum(
                    mult * weyl_dim(ctx.lambdas[t])
                    for t, mult in composition_class_z_g1(ctx, i).items()
                )
                assert total == verma_dim


def test_jantzen_decompose_frozen():
    assert jantzen_decompose(6, 5) == (0, 1, 1)
    assert jantzen_decompose(5, 5) == (1, 1, 0)
    assert jantzen_decompose(50, 5) == (2, 2, 0)
    with pytest.raises(ValueError):
        jantzen_decompose(0, 5)


def test_jantzen_decompose_reconstructs():
    for p in (3, 5, 7):
        for m in range(1, 400):
            s, a, b = jantzen_decompose(m, p)
            assert 0 < a < p and b >= 0 and s >= 0
            assert m == a * p**s + b * p ** (s + 1)
            assert m % p**s == 0 and m % p ** (s + 1) != 0
            assert (m // p**s) % p == a


def test_witness_search_frozen_examples():
    ctx = make_context(2, 5)
    # m -> (m, s, a, b, beta0, betas), one entry per distinct pairing.
    assert witness_search(nu_weight(ctx, 0), 5) == {
        1: (1, 0, 1, 0, (1, 2), ()),
        6: (6, 0, 1, 1, (1, 2), ((2, 3),)),
        5: (5, 1, 1, 0, (2, 3), ()),
    }
    assert witness_search(nu_weight(ctx, 2), 5)[9] == (9, 0, 4, 1, (2, 3), ((1, 2),))


def test_witness_search_nonpositive_pairing():
    assert witness_search((0, 0), 5) == {0: None}
    assert witness_search((-3, 1), 5) == {-3: None, -2: None, 1: (1, 0, 1, 0, (2, 3), ())}


def searched(nu, p):
    """Each positive root's searched certificate (root, m, s, a, b, beta0,
    betas) at nu, or None: its pairing's witness from one search."""
    found = witness_search(nu, p)
    certs = {}
    for root in positive_roots(len(nu)):
        witness = found[pair(nu, *root)]
        certs[root] = None if witness is None else (root, *witness)
    return certs


def closed_forms(p, i, lam):
    """Each positive root's closed-form certificate at lam = lam_i."""
    roots = positive_roots(len(lam))
    return {root: (root, *w) for root, w in zip(roots, _closed_forms(p, i, lam, roots))}


def sweep_check(nu, cert, p):
    """The sweep's own check of one certificate: its root's pairing in the
    lattice table (`lattice._pair_table`) is m, and `_witness_ok` holds."""
    pairing = _pair_table(nu)
    return pairing.get(cert[0]) == cert[1] and _witness_ok(pairing, cert[1:], p)


def test_verify_certificate_rejects_tampering():
    # Both the oracle and the sweep's own check refuse every tampered
    # certificate.
    ctx = make_context(2, 5)
    nu = nu_weight(ctx, 0)
    cert = searched(nu, 5)[1, 3]
    assert certificate_ok(pairings(nu), cert, 5) and sweep_check(nu, cert, 5)
    root, m, s, a, b, beta0, betas = cert
    for bad in [
        (root, m, s, a, b, (1, 3), betas),  # beta0 pairs to 6, not 1
        (root, m, s, a, b, beta0, ()),  # b = 1 betas are missing
        (root, m, s, a, b, beta0, (beta0,)),  # the beta repeats beta0
        (root, m, 0, 6, 0, beta0, betas),  # a = 6 is not below p = 5
        ((1, 4), m, s, a, b, beta0, betas),  # not a root at rank 2
        ((1, 2, 3), m, s, a, b, beta0, betas),  # not a root index at all
        ((1, 2), m, s, a, b, beta0, betas),  # pairs to 1, not m = 6
    ]:
        assert not certificate_ok(pairings(nu), bad, 5), bad
        assert not sweep_check(nu, bad, 5), bad
    # The oracle pairs a root given as a list.
    assert certificate_ok(pairings(nu), (list(root), m, s, a, b, beta0, betas), 5)


def closed_form_rule(i, cert):
    """Which rule of `_closed_forms` built the certificate: the 1 on
    alpha_{i+1} opens the interval or the p - 1 on alpha_i closes it
    (s = 0), or the fences are plain or shifted past both special slots
    (s = 1 or s >= 2)."""
    (k, j), _, s, *_ = cert
    if s == 0:
        return "opens" if k == i + 1 else "closes"
    return "merged" if k <= i < j - 1 else "plain", min(s, 2)


def test_closed_form_certificates_verify_everywhere():
    # One frozen certificate per rule, each with a tail (b = 1).
    frozen = {
        (3, 3, 0, (1, 3)): ((1, 3), 4, 0, 1, 1, (1, 2), ((2, 3),)),
        (6, 3, 2, (1, 3)): ((1, 3), 5, 0, 2, 1, (2, 3), ((1, 2),)),
        (7, 5, 0, (2, 8)): ((2, 8), 30, 1, 1, 1, (2, 3), ((3, 8),)),
        (6, 3, 1, (1, 6)): ((1, 6), 12, 1, 1, 1, (1, 3), ((3, 6),)),
        (13, 3, 0, (2, 14)): ((2, 14), 36, 2, 1, 1, (2, 5), ((5, 14),)),
        (13, 3, 1, (1, 14)): ((1, 14), 36, 2, 1, 1, (1, 5), ((5, 14),)),
    }
    for (n, p, i, root), cert in frozen.items():
        assert list(_closed_forms(p, i, make_context(n, p).lambdas[i], [root])) == [cert[1:]]
    # Each rule builds tails (b > 0) somewhere in this grid; at p = 3,
    # n = 13 is the first size with s >= 2 and b > 0.
    sizes = {3: (1, 3, 4, 6, 7, 13), 5: range(1, 8), 7: range(1, 10), 11: range(1, 7), 13: range(1, 7)}
    with_tails = set()
    for p, ns in sizes.items():
        for n in ns:
            if (n + 1) % p == 0:
                continue
            ctx = make_context(n, p)
            for i in range(n + 1):
                table = pairings(nu_weight(ctx, i))
                for root, cert in closed_forms(p, i, ctx.lambdas[i]).items():
                    assert certificate_ok(table, cert, p), (n, p, i, root)
                    if cert[4]:
                        with_tails.add(closed_form_rule(i, cert))
    assert with_tails == {"opens", "closes", ("plain", 1), ("merged", 1), ("plain", 2), ("merged", 2)}


def test_search_finds_certificates_everywhere():
    for n in range(1, 6):
        for p in (5, 7):
            if (n + 1) % p == 0:
                continue
            ctx = make_context(n, p)
            for i in range(n + 1):
                nu = nu_weight(ctx, i)
                table = pairings(nu)
                for root, cert in searched(nu, p).items():
                    assert cert is not None, (n, p, i, root)
                    assert certificate_ok(table, cert, p)


def test_check_block_simplicity_report():
    ctx = make_context(3, 7)
    report = check_block_simplicity(ctx)
    assert report["ok"]
    assert report["checked"] == 4 * 6
    assert report["failures"] == [] and report["replay_failures"] == []
    assert len(report["certificates"]) == report["checked"]


def greedy_by_pair(nu, root, p):
    """The search restated as a scan over every root with `lattice.pair`.

    Scans positive roots in lex order for beta0, then fills the p^{s+1}
    slots in lex order from the roots other than beta0.
    """
    m = pair(nu, *root)
    if m < 1:
        return None
    s, a, b = jantzen_decompose(m, p)
    roots = positive_roots(len(nu))
    tail_pool = [r for r in roots if pair(nu, *r) == p ** (s + 1)]
    for beta0 in roots:
        if pair(nu, *beta0) != a * p**s:
            continue
        tail = [r for r in tail_pool if r != beta0][:b]
        if len(tail) == b:
            return root, m, s, a, b, beta0, tuple(tail)
    return None


def test_witness_search_matches_the_scan_over_pair():
    for n in range(1, 9):
        for p in (3, 5, 7, 11):
            if (n + 1) % p == 0:
                continue
            ctx = make_context(n, p)
            for i in range(n + 1):
                nu = nu_weight(ctx, i)
                for root, cert in searched(nu, p).items():
                    assert cert == greedy_by_pair(nu, root, p), (n, p, i, root)
    # Random weights, zero and negative coordinates included, reach the
    # nonpositive and the unrealisable pairings as well as b = 0.
    rng = random.Random(8128)
    found = []
    for _ in range(300):
        rank = rng.randint(1, 7)
        nu = tuple(rng.choice((-4, -1, 0, 0, 1, 1, 2, 3, 5, 9)) for _ in range(rank))
        p = rng.choice((3, 5, 7))
        for root, cert in searched(nu, p).items():
            assert cert == greedy_by_pair(nu, root, p), (nu, root, p)
            found.append(cert)
    assert any(cert is None for cert in found)
    assert any(cert is not None and cert[4] == 0 for cert in found)
    assert any(cert is not None and cert[4] > 0 for cert in found)


def test_witness_search_rejects_invalid_roots():
    # The search takes no root: its entries are the pairings of the positive
    # roots only, and a certificate on a pair that is not a positive root
    # index fails both checks, whatever witness it carries.
    nu = rho(3)
    found = witness_search(nu, 5)
    assert sorted(found) == [1, 2, 3]
    for root in [(0, 1), (2, 2), (3, 5), (4, 3)]:
        for witness in found.values():
            assert not certificate_ok(pairings(nu), (root, *witness), 5), (root, witness)
            assert not sweep_check(nu, (root, *witness), 5), (root, witness)


def test_searched_certificates_are_verified_without_the_table(monkeypatch):
    # With the search's table shifted off by one, every searched certificate
    # must fail re-verification, which pairs through the lattice
    # (`lattice._pair_table`).
    table = loewylab.chardim._pairing_table

    def shifted(coords):
        by_root, _ = table(coords)
        by_m = {}
        for root, m in by_root.items():
            by_m.setdefault(m + 1, []).append(root)
        return {r: m + 1 for r, m in by_root.items()}, {m: tuple(rs) for m, rs in by_m.items()}

    monkeypatch.setattr(loewylab.chardim, "_pairing_table", shifted)
    report = check_block_simplicity(make_context(4, 7))
    assert report["ok"] is False
    assert len(report["failures"]) == report["checked"] == 5 * 10
    assert {f["reason"] for f in report["failures"]} == {"search failed"}
    assert report["certificates"] == [] and report["replay_failures"] == []


def count_pair_tables(monkeypatch):
    """Patch `chardim._pair_table` and `lattice.pair`, in `lattice` and as
    `chardim.pair`, to count their calls; returns [tables, pairs]."""
    calls = [0, 0]
    real_pair = loewylab.lattice.pair

    def counting_table(coords):
        calls[0] += 1
        return _pair_table(coords)

    def counting_pair(w, k, j):
        calls[1] += 1
        return real_pair(w, k, j)

    monkeypatch.setattr(loewylab.chardim, "_pair_table", counting_table)
    monkeypatch.setattr(loewylab.lattice, "pair", counting_pair)
    monkeypatch.setattr(loewylab.chardim, "pair", counting_pair, raising=False)
    return calls


def test_block_sweep_pair_calls_are_linear_in_roots(monkeypatch):
    # Re-verification reads one lattice pairing table per nu_i
    # (`lattice._pair_table`), and the closed forms pair lam_i through one
    # list of its prefix sums, never root by root through `lattice.pair`.
    # A search that scans every root with the lattice pairing (632,433
    # calls here) fails.
    calls = count_pair_tables(monkeypatch)
    n = 18
    report = check_block_simplicity(make_context(n, 7))
    assert report["ok"]
    assert calls == [n + 1, 0] and report["checked"] == (n + 1) * n * (n + 1) // 2


def test_dimension_table_reads_one_pair_table_per_weight(monkeypatch):
    # Each of the n + 1 Weyl dimensions and the 2n parabolic cover
    # dimensions reads its pairings from one table of its weight, never
    # root by root.
    calls = count_pair_tables(monkeypatch)
    n = 5
    table = dimension_table(make_context(n, 7))
    assert identities_hold(table) and table["conservation_ok"]
    assert calls == [(n + 1) + 2 * n, 0]


def unshared_sweep(ctx):
    """The sweep's failures with nothing shared: the oracle checks every
    searched and every closed-form certificate in full, against the table
    the sweep reads (`chardim._pair_table`, as patched)."""
    n, p = ctx.n, ctx.p
    failures, replay_failures = [], []
    for i in range(n + 1):
        nu = nu_weight(ctx, i)
        table = loewylab.chardim._pair_table(nu)
        built = closed_forms(p, i, ctx.lambdas[i])
        for root, found in searched(nu, p).items():
            if found is None or not certificate_ok(table, found, p):
                failures.append({"i": i, "root": list(root), "reason": "search failed"})
            if not certificate_ok(table, built[root], p):
                replay_failures.append(
                    {"i": i, "root": list(root), "reason": "closed-form certificate invalid"}
                )
    return failures, replay_failures


def lying_table(nu, root):
    """A lattice pairing table that is off by one at (nu, root) only."""

    def table(coords):
        pairing = _pair_table(coords)
        if coords == nu:
            pairing[root] += 1
        return pairing

    return table


def test_shared_witness_checks_fail_exactly_where_per_root_checks_fail(monkeypatch):
    # The sweep checks each distinct searched witness once per nu_i, and
    # every root's own pairing.  With the lattice pairing table
    # (`lattice._pair_table`) lying at one (nu_i, root), it must report
    # exactly the failures of checking every certificate in full.
    ctx = make_context(6, 5)
    rows = check_block_simplicity(ctx)["certificates"]
    buckets = {}
    for i, root, m, _, _, _, beta0, betas in rows:
        buckets.setdefault((i, m, beta0, betas), []).append(root)
    at_other_index = Counter((m, beta0, betas) for _, m, beta0, betas in buckets)
    # The beta0 of a witness that several roots share at nu_i and that
    # recurs at another index, a tail root of some witness, and a root that
    # is neither a beta0 nor a tail at its nu_i but shares its witness with
    # an earlier root.
    shared = next(
        key for key, roots in buckets.items() if len(roots) > 1 and at_other_index[key[1:]] > 1
    )
    tail = next(key for key in buckets if key[3])
    witness_roots = {(i, r) for i, _, beta0, betas in buckets for r in (beta0, *betas)}
    plain = next(
        (key[0], root)
        for key, roots in buckets.items()
        for root in roots[1:]
        if (key[0], root) not in witness_roots
    )
    # (index, root pair lies at, fewest searched failures it must cause)
    lies = [(shared[0], shared[2], len(buckets[shared])), (tail[0], tail[3][0], 1), (*plain, 1)]
    for i, root, fewest in lies:
        nu = nu_weight(ctx, i)

        monkeypatch.setattr(loewylab.chardim, "_pair_table", lying_table(nu, root))
        report = check_block_simplicity(ctx)
        failures, replay_failures = unshared_sweep(ctx)
        assert len(failures) >= fewest, (i, root)
        assert report["failures"] == failures, (i, root)
        assert report["replay_failures"] == replay_failures, (i, root)
        assert report["ok"] is False
        assert len(report["certificates"]) + len(failures) == report["checked"]


def test_jantzen_decompose_refuses_every_bad_call():
    for m, p in [(0, 5), (-3, 5), (6, 1), (6, 0)]:
        with pytest.raises(ValueError):
            jantzen_decompose(m, p)


def test_jantzen_decompose_refuses_floats_and_bools():
    # A float or bool equals an int and hashes like it, so a refused call
    # must leave no trace: the int split and the sweep are unchanged after.
    for m, p in [(6.0, 5), (True, 5), (6, 5.0), (6, True)]:
        what, bad = ("m", m) if type(m) is not int else ("p", p)
        with pytest.raises(TypeError, match=rf"^{what} must be an int \(got {bad!r}\)$"):
            jantzen_decompose(m, p)
    split = jantzen_decompose(6, 5)
    assert split == (0, 1, 1) and [type(x) for x in split] == [int, int, int]
    assert check_block_simplicity(make_context(2, 5))["ok"]


def test_block_sweep_searches_once_per_distinct_pairing():
    # A searched witness depends on its root only through the pairing m, so
    # the sweep's 665 distinct (i, m) serve all 3,249 roots, and every root
    # is still reported, in (i, root) order.
    n = 18
    report = check_block_simplicity(make_context(n, 7))
    assert report["ok"]
    rows = report["certificates"]
    assert len(rows) == report["checked"] == (n + 1) * n * (n + 1) // 2 == 3249
    assert len({(i, m) for i, _, m, *_ in rows}) == 665
    assert [row[:2] for row in rows] == [(i, root) for i in range(n + 1) for root in positive_roots(n)]


def test_block_sweep_checks_arguments_once_per_nu(monkeypatch):
    # The sweep checks its arguments once per nu_i, not once per root or
    # per pairing: one search per nu_i returns every distinct pairing's
    # witness, and neither the search's splits nor the closed forms pass
    # the exact-int check.
    checks, calls, entries = [0], [0], [0]
    check_int, search = loewylab.chardim._check_int, loewylab.chardim.witness_search

    def counting_check(what, value):
        checks[0] += 1
        return check_int(what, value)

    def counting_search(nu, p):
        found = search(nu, p)
        calls[0] += 1
        entries[0] += len(found)
        return found

    monkeypatch.setattr(loewylab.chardim, "_check_int", counting_check)
    monkeypatch.setattr(loewylab.chardim, "witness_search", counting_search)
    n = 18
    report = check_block_simplicity(make_context(n, 7))
    assert report["ok"] and report["checked"] == 3249
    assert checks[0] < report["checked"]
    assert calls[0] == n + 1 == 19
    assert entries[0] == len({(i, m) for i, _, m, *_ in report["certificates"]}) == 665


def test_closed_form_replay_fails_exactly_where_per_root_checks_fail(monkeypatch):
    # The replay checks every closed-form witness in full: with the lattice
    # pairing table lying at one tail beta of a closed-form certificate, the
    # sweep reports exactly the replay failures of the unshared sweep.
    ctx = make_context(6, 3)
    # Pairing 15 = 2 * 3 + 1 * 9 at nu_3: the tail beta (3, 7) straddles
    # both special slots.
    i, root = 3, (1, 7)
    assert list(_closed_forms(3, i, ctx.lambdas[i], [root])) == [(15, 1, 2, 1, (1, 3), ((3, 7),))]
    nu = nu_weight(ctx, i)
    monkeypatch.setattr(loewylab.chardim, "_pair_table", lying_table(nu, (3, 7)))
    report = check_block_simplicity(ctx)
    failures, replay_failures = unshared_sweep(ctx)
    assert {"i": i, "root": [1, 7], "reason": "closed-form certificate invalid"} in replay_failures
    assert report["replay_failures"] == replay_failures
    assert report["failures"] == failures
    assert report["ok"] is False
