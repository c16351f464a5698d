"""Permutation tables, the brute-force oracle, cycle structure, and the
diagram verifier."""

import random

import pytest

from ppinv import (PermTable, agw_diagram, agw_verify, as_permutation,
                   brute_inverse, certify, cycle_structure, parse_poly_expr)
from ppinv.errors import CertificationFailed, NotBijective, SizeMismatch

from helpers import (compose_tables, diagram_instances, field_of,
                     identity_table, is_identity, rel_trace)


class TestAsPermutation:
    def test_identity(self):
        ctx = field_of(7)
        t = as_permutation(ctx, parse_poly_expr("x", ctx))
        assert t.images == tuple(range(7))

    def test_squaring_rejected_odd_char(self):
        ctx = field_of(7)
        with pytest.raises(NotBijective) as err:
            as_permutation(ctx, parse_poly_expr("x^2", ctx))
        # first collision in index order: 3^2 = 4^2 = 2
        assert err.value.witness == (3, 4)

    def test_frobenius_accepted(self):
        ctx = field_of(4)
        t = as_permutation(ctx, parse_poly_expr("x^2", ctx))
        assert sorted(t.images) == list(range(4))

    def test_accepts_callable_and_sequence(self):
        ctx = field_of(5)
        t1 = as_permutation(ctx, lambda x: (x + 1) % 5)
        t2 = as_permutation(ctx, [(x + 1) % 5 for x in range(5)])
        assert t1.images == t2.images


class TestBruteInverse:
    def test_identity(self):
        ctx = field_of(5)
        assert brute_inverse(identity_table(ctx)).images == tuple(range(5))

    def test_scaling_f7(self):
        ctx = field_of(7)
        t = as_permutation(ctx, [(3 * x) % 7 for x in range(7)])
        want = tuple((5 * x) % 7 for x in range(7))  # 3*5 = 1 mod 7
        assert brute_inverse(t).images == want

    @pytest.mark.parametrize("q", [5, 8, 9, 16, 27])
    def test_operator_is_an_involution(self, q):
        ctx = field_of(q)
        rng = random.Random(q)
        for _ in range(10):
            images = list(range(q))
            rng.shuffle(images)
            t = as_permutation(ctx, images)
            assert brute_inverse(brute_inverse(t)).images == t.images
            assert is_identity(compose_tables(t, brute_inverse(t)))
            assert is_identity(compose_tables(brute_inverse(t), t))


class TestOracleOnUnsupportedClasses:
    def test_bilinear_trace_class_inverts_by_oracle(self):
        # f = x (c Tr(x) + a Tr(x) + a x) over GF(64)/GF(4): no closed form
        # here, but every bijective instance inverts through the oracle
        ctx = field_of(64)
        sub = [x for x in ctx.elements() if ctx.frob(x, 2) == x]
        tr = [rel_trace(ctx, 2, x) for x in ctx.elements()]
        inverted = 0
        for c in sub[1:]:
            for a in sub[1:]:
                f = [ctx.mul(x, ctx.add(ctx.add(ctx.mul(c, tr[x]),
                                                ctx.mul(a, tr[x])),
                                        ctx.mul(a, x)))
                     for x in ctx.elements()]
                try:
                    t = as_permutation(ctx, f)
                except NotBijective:
                    continue
                inv = brute_inverse(t)
                assert is_identity(compose_tables(t, inv))
                inverted += 1
        assert inverted == 9


class TestCycleStructure:
    def test_identity_f5(self):
        ct = cycle_structure(identity_table(field_of(5)))
        assert ct.fixed_points == 5 and ct.is_involution

    def test_doubling_f5(self):
        ctx = field_of(5)
        t = as_permutation(ctx, [(2 * x) % 5 for x in range(5)])
        ct = cycle_structure(t)  # 0 fixed; 1 -> 2 -> 4 -> 3 -> 1
        assert ct.as_dict() == {1: 1, 4: 1}
        assert ct.fixed_points == 1 and not ct.is_involution

    def test_frobenius_f4(self):
        ctx = field_of(4)
        ct = cycle_structure(as_permutation(ctx, parse_poly_expr("x^2", ctx)))
        assert ct.as_dict() == {1: 2, 2: 1} and ct.is_involution

    @pytest.mark.parametrize("q", [5, 8, 9, 16, 27, 64])
    def test_lengths_sum_and_involution_equivalence(self, q):
        ctx = field_of(q)
        rng = random.Random(q * 3)
        for _ in range(8):
            images = list(range(q))
            rng.shuffle(images)
            t = as_permutation(ctx, images)
            ct = cycle_structure(t)
            assert sum(l * m for l, m in ct.cycles) == q
            assert ct.is_involution == is_identity(compose_tables(t, t))

    def test_json(self):
        ct = cycle_structure(identity_table(field_of(4)))
        assert ct.to_json() == {"cycles": {"1": 4}, "fixed_points": 4,
                                "is_involution": True}


class TestAgwVerify:
    def test_doubling_through_squares_f7(self):
        ctx = field_of(7)
        lam = [(x * x) % 7 for x in range(7)]
        S = sorted(set(lam))
        d = agw_diagram(ctx, [(2 * x) % 7 for x in range(7)], lam, lam,
                        {s: (4 * s) % 7 for s in S}, S, S)
        report = agw_verify(d)
        assert report.lambda_surjective and report.lambda_bar_surjective
        assert report.commutes and report.g_bijective
        assert report.fiber_injective and report.f_bijective
        assert report.lemma_consistent

    def test_squaring_with_identity_lambda(self):
        ctx = field_of(7)
        ident = list(range(7))
        sq = [(x * x) % 7 for x in range(7)]
        d = agw_diagram(ctx, sq, ident, ident, {s: sq[s] for s in range(7)},
                        ident, ident)
        report = agw_verify(d)
        assert report.commutes and not report.f_bijective
        assert not report.g_bijective
        assert report.lemma_consistent

    def test_degenerate_full_lambda(self):
        ctx = field_of(5)
        ident = list(range(5))
        f = [(x + 2) % 5 for x in range(5)]
        d = agw_diagram(ctx, f, ident, ident, {s: f[s] for s in range(5)},
                        ident, ident)
        report = agw_verify(d)
        assert report.f_bijective == report.g_bijective

    def test_size_mismatch(self):
        ctx = field_of(4)
        lam = [rel_trace(ctx, 1, x) for x in ctx.elements()]
        S = sorted(set(lam))
        with pytest.raises(SizeMismatch):
            agw_verify(agw_diagram(ctx, list(range(4)), lam, lam,
                                   {s: s for s in S}, S, S + [3]))

    @pytest.mark.parametrize("q", [4, 9, 16])
    def test_fiber_injective_matches_per_fiber_check(self, q):
        # random f and lambda, premises or not: fiber_injective is whether f
        # takes distinct values on the members of each lambda-fibre
        ctx = field_of(q)
        rng = random.Random(q * 11)
        S = list(range(3))
        seen = set()
        for _ in range(40):
            lam = [rng.choice(S) for _ in range(q)]
            f = list(range(q))
            rng.shuffle(f)
            if rng.random() < 0.5:
                f[rng.randrange(q)] = rng.randrange(q)
            fibres = {}
            for x in range(q):
                fibres.setdefault(lam[x], []).append(f[x])
            expect = all(len(set(v)) == len(v) for v in fibres.values())
            d = agw_diagram(ctx, f, lam, lam, {s: s for s in S}, S, S)
            assert agw_verify(d).fiber_injective == expect
            seen.add(expect)
        assert seen == {True, False}

    @pytest.mark.parametrize("q", [4, 8, 9, 16, 27])
    def test_equivalence_on_generated_diagrams(self, q):
        ctx = field_of(q)
        rng = random.Random(q * 7)
        for d in diagram_instances(ctx, rng, 6, bijective=True):
            r = agw_verify(d)
            assert r.premises_hold and r.f_bijective and r.lemma_consistent
        for d in diagram_instances(ctx, rng, 6, bijective=False):
            r = agw_verify(d)
            assert r.premises_hold and not r.f_bijective and r.lemma_consistent


class TestCertify:
    # f(x) = 3x over F_7; its inverse is 5x
    F = (0, 3, 6, 2, 5, 1, 4)
    INV = (0, 5, 3, 1, 6, 4, 2)

    def test_returns_the_inverse(self):
        inv = PermTable(field_of(7), self.INV)
        assert certify(self.F, inv) is inv

    def test_first_failing_x_is_witness(self):
        # swapping the images of f(2) = 6 and f(4) = 5 breaks x = 2 and 4
        wrong = list(self.INV)
        wrong[6], wrong[5] = wrong[5], wrong[6]
        with pytest.raises(CertificationFailed) as err:
            certify(self.F, PermTable(field_of(7), tuple(wrong)))
        assert err.value.witness == 2

    def test_length_mismatch(self):
        with pytest.raises(CertificationFailed):
            certify(self.F[:6], PermTable(field_of(7), self.INV))
