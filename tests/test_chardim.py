import pytest

from loewylab.block import make_context, nu_weight
from loewylab.chardim import (
    JantzenDecomposition,
    WitnessCertificate,
    check_block_simplicity,
    closed_form_certificate,
    dim_parabolic_verma,
    jantzen_decompose,
    positive_roots,
    superfactorial,
    verify_certificate,
    verify_dim_identity,
    weyl_dim,
    witness_search,
)
from loewylab.lattice import Weight, fundamental, rho, zero
from loewylab.loewy import composition_class_z_g1


def very_good_primes(n, count):
    out, p = [], 3
    while len(out) < count:
        if all(p % d for d in range(2, p)) and (n + 1) % p:
            out.append(p)
        p += 2
    return out


def test_positive_roots_lex_order():
    assert positive_roots(2) == [(1, 2), (1, 3), (2, 3)]
    assert len(positive_roots(5)) == 15


def test_superfactorial():
    assert [superfactorial(m) for m in range(5)] == [1, 1, 2, 12, 288]


def test_weyl_dim_small_cases():
    assert weyl_dim(zero(3)) == 1
    assert weyl_dim(fundamental(2, 1)) == 3
    assert weyl_dim(fundamental(3, 2)) == 6
    assert weyl_dim(rho(2)) == 8
    with pytest.raises(ValueError):
        weyl_dim(Weight((-1, 0)))


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


def test_dimension_identity_fifteen_plus_ten():
    ctx = make_context(2, 5)
    assert weyl_dim(ctx.lambdas[0]) + weyl_dim(ctx.lambdas[1]) == 25
    assert verify_dim_identity(ctx, 0, "I")


def test_dimension_identities_sweep():
    for n in range(1, 6):
        for p in very_good_primes(n, 2):
            ctx = make_context(n, p)
            for i in range(n):
                assert verify_dim_identity(ctx, i, "I")
            for i in range(1, n + 1):
                assert verify_dim_identity(ctx, i, "J")
    ctx = make_context(2, 5)
    with pytest.raises(ValueError):
        verify_dim_identity(ctx, 2, "I")
    with pytest.raises(ValueError):
        verify_dim_identity(ctx, 0, "J")


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
    assert jantzen_decompose(6, 5) == JantzenDecomposition(6, 0, 1, 1)
    assert jantzen_decompose(5, 5) == JantzenDecomposition(5, 1, 1, 0)
    assert jantzen_decompose(50, 5) == JantzenDecomposition(50, 2, 2, 0)
    with pytest.raises(ValueError):
        jantzen_decompose(0, 5)


def test_jantzen_decompose_reconstructs():
    for p in (3, 5, 7):
        for m in range(1, 400):
            d = jantzen_decompose(m, p)
            assert d.m == m
            assert 0 < d.a < p and d.b >= 0 and d.s >= 0
            assert m == d.a * p**d.s + d.b * p ** (d.s + 1)
            assert m % p**d.s == 0 and m % p ** (d.s + 1) != 0
            assert (m // p**d.s) % p == d.a


def test_witness_search_frozen_examples():
    ctx = make_context(2, 5)
    cert = witness_search(nu_weight(ctx, 0), (1, 3), 5)
    assert cert is not None
    assert cert.decomposition == JantzenDecomposition(6, 0, 1, 1)
    assert cert.beta0 == (1, 2)
    assert cert.betas == ((2, 3),)
    cert = witness_search(nu_weight(ctx, 2), (1, 3), 5)
    assert cert is not None
    assert cert.decomposition == JantzenDecomposition(9, 0, 4, 1)
    assert cert.beta0 == (2, 3)
    assert cert.betas == ((1, 2),)


def test_witness_search_nonpositive_pairing():
    assert witness_search(Weight((0, 0)), (1, 2), 5) is None
    assert witness_search(Weight((-3, 1)), (1, 2), 5) is None


def test_verify_certificate_rejects_tampering():
    ctx = make_context(2, 5)
    nu = nu_weight(ctx, 0)
    cert = witness_search(nu, (1, 3), 5)
    assert verify_certificate(nu, cert, 5)
    bad = WitnessCertificate(cert.root, cert.decomposition, (1, 3), cert.betas)
    assert not verify_certificate(nu, bad, 5)
    bad = WitnessCertificate(cert.root, cert.decomposition, cert.beta0, ())
    assert not verify_certificate(nu, bad, 5)
    bad = WitnessCertificate(
        cert.root, cert.decomposition, cert.beta0, (cert.beta0,)
    )
    assert not verify_certificate(nu, bad, 5)
    bad = WitnessCertificate(
        cert.root, JantzenDecomposition(6, 0, 6, 0), cert.beta0, cert.betas
    )
    assert not verify_certificate(nu, bad, 5)
    bad = WitnessCertificate((1, 4), cert.decomposition, cert.beta0, cert.betas)
    assert not verify_certificate(nu, bad, 5)


def test_closed_form_certificates_verify_everywhere():
    for n in range(1, 7):
        for p in (5, 7, 11, 13):
            if (n + 1) % p == 0:
                continue
            ctx = make_context(n, p)
            for i in range(n + 1):
                nu = nu_weight(ctx, i)
                for root in positive_roots(n):
                    cert = closed_form_certificate(ctx, i, root)
                    assert verify_certificate(nu, cert, p), (n, p, i, root)


def test_closed_form_certificate_validation():
    ctx = make_context(3, 5)
    for i in (-1, 4):
        with pytest.raises(ValueError, match=r"block index i must be in \[0, 3\]"):
            closed_form_certificate(ctx, i, (1, 2))
    for root in [(2, 2), (0, 1), (3, 5)]:
        with pytest.raises(ValueError, match=r"root \(k, j\) must satisfy"):
            closed_form_certificate(ctx, 1, root)


def test_search_finds_certificates_everywhere():
    for n in range(1, 6):
        for p in (5, 7):
            if (n + 1) % p == 0:
                continue
            ctx = make_context(n, p)
            for i in range(n + 1):
                nu = nu_weight(ctx, i)
                for root in positive_roots(n):
                    cert = witness_search(nu, root, p)
                    assert cert is not None, (n, p, i, root)
                    assert verify_certificate(nu, cert, p)


def test_check_block_simplicity_report():
    ctx = make_context(3, 7)
    report = check_block_simplicity(ctx)
    assert report["ok"]
    assert report["checked"] == 4 * 6
    assert report["failures"] == [] and report["replay_failures"] == []
    assert len(report["certificates"]) == report["checked"]
