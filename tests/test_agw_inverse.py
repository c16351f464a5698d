"""Family constructors, closed-form inverses, the generic pipeline, and the
difference-plus-scaling class; every inverse is checked against the
brute-force oracle."""

import dataclasses
import math
import random
import subprocess
import sys

import pytest

from ppinv import (GenericDiagram, PermTable, PhiMap, add_family,
                   agw_diagram, as_permutation, brute_inverse, build_field,
                   build_phi_add, build_phi_mul, closed_form_mul, eval_poly,
                   family_from_descriptor, generic_inverse, hybrid_family,
                   invert, invert_additive, invert_hybrid_scale,
                   invert_multiplicative, invert_niu, invert_translator,
                   invert_translator_linear, linearized, linearized_inverse,
                   linearized_tabulate, make_kuozhan, make_poly,
                   make_trace_gadget, make_zero_translator, mul_family,
                   niu_forward, p_power_degree, parse_poly_expr,
                   subfield_elements, translator_family)
from ppinv.errors import (BPlusOneZero, CertificationFailed, ConditionFail,
                          GammaZero, HVanishes, HVanishesOnImage, LambdaZero,
                          NotCoprime,
                          NotDivisor, NotInjectivePhi, NotInSubfield,
                          NotPermutation, NotTranslator, SquareDoesNotCommute)

from ppinv.agw_inverse import _span_basis

from helpers import (ACCEPTANCE_FIELDS, add_instances, divisors, field_of,
                     hybrid_instances, identity_table, is_inverse_pair,
                     linearized_table, mul_instances, niu_instances,
                     prime_powers, random_poly,
                     reference_additive, reference_translator, rel_trace,
                     translator_instances, trace_kernel, trace_table)


class TestMulFamily:
    def test_constant_h_f7(self):
        ctx = field_of(7)
        fam = mul_family(ctx, 1, 3, parse_poly_expr("3", ctx))
        assert fam.f_table == tuple((3 * x) % 7 for x in range(7))
        assert invert_multiplicative(fam).images == \
            tuple((5 * x) % 7 for x in range(7))

    def test_trivial_identity(self):
        ctx = field_of(7)
        fam = mul_family(ctx, 1, 1, parse_poly_expr("1", ctx))
        assert invert_multiplicative(fam).images == tuple(range(7))

    def test_zero_fixed(self):
        ctx = field_of(16)
        fam = mul_family(ctx, 2, 5, parse_poly_expr("1", ctx))
        assert invert_multiplicative(fam)[0] == 0

    def test_bezout_normalized(self):
        ctx = field_of(7)
        fam = mul_family(ctx, 5, 3, parse_poly_expr("1", ctx))
        assert fam.a * fam.s + fam.b * fam.r == 1
        assert 0 <= fam.a < fam.r

    def test_rejections(self):
        ctx = field_of(7)
        with pytest.raises(NotDivisor):
            mul_family(ctx, 1, 4, parse_poly_expr("1", ctx))
        with pytest.raises(NotCoprime):
            mul_family(ctx, 3, 3, parse_poly_expr("1", ctx))
        # h = x + 6 vanishes at 1, a cube root of unity
        with pytest.raises(HVanishes):
            mul_family(ctx, 1, 2, parse_poly_expr("x + 6", ctx))
        # r = 2, s = 3: g is constant on the square roots of unity
        with pytest.raises(NotPermutation):
            mul_family(ctx, 2, 3, parse_poly_expr("3", ctx))

    @pytest.mark.parametrize("q", [5, 8, 9, 16, 27])
    def test_generated_instances_invert(self, q):
        ctx = field_of(q)
        rng = random.Random(q * 11)
        for fam in mul_instances(ctx, rng, 8):
            inv = invert_multiplicative(fam)
            assert is_inverse_pair(ctx, fam.f_table, inv)
            oracle = brute_inverse(as_permutation(ctx, list(fam.f_table)))
            assert inv.images == oracle.images


class TestClosedFormMul:
    def test_f7_instance_distinguishes_bezout_reading(self):
        ctx = field_of(7)
        fam = mul_family(ctx, 1, 3, parse_poly_expr("x^2", ctx))
        cf = closed_form_mul(fam, 6, 1)
        reference = invert_multiplicative(fam)
        assert cf.table.images == reference.images == tuple(range(7))
        # the transposed Bezout reading a*r + b*s = 1 gives x^3, a different map
        alt = tuple(ctx.mul(ctx.pow(x, 1 * 3 * 1 + 0),
                            ctx.pow(fam.h_on_mu[ctx.pow(x, 3)], 0)) if x else 0
                    for x in range(7))
        assert alt != reference.images

    def test_monomial_case(self):
        ctx = field_of(16)
        fam = mul_family(ctx, 2, 5, parse_poly_expr("1", ctx))
        t = pow(fam.r, -1, fam.ell)
        cf = closed_form_mul(fam, 0, t)
        oracle = brute_inverse(as_permutation(ctx, list(fam.f_table)))
        assert cf.table.images == oracle.images

    def test_hypothesis_violation(self):
        ctx = field_of(7)
        fam = mul_family(ctx, 1, 3, parse_poly_expr("3", ctx))
        # h(z)^s = 6 on mu_2, never a fixed power z^n for both roots
        with pytest.raises(ConditionFail):
            closed_form_mul(fam, 0, 1)

    def test_bad_t(self):
        ctx = field_of(7)
        fam = mul_family(ctx, 1, 3, parse_poly_expr("x^2", ctx))
        with pytest.raises(ConditionFail):
            closed_form_mul(fam, 6, 2)  # 7*2 != 1 mod 2

    @pytest.mark.parametrize("q", [7, 9, 16, 25, 27])
    def test_generated_monomial_instances(self, q):
        ctx = field_of(q)
        rng = random.Random(q * 13)
        import math
        made = 0
        while made < 6:
            divs = [s for s in range(1, q) if (q - 1) % s == 0]
            s = rng.choice(divs)
            ell = (q - 1) // s
            r = rng.randrange(1, q)
            if math.gcd(r, s) != 1:
                continue
            from ppinv import mu_subgroup
            c = rng.choice(mu_subgroup(ctx, s))
            j = rng.randrange(0, ell + 1)
            n_exp = (j * s) % ell
            if math.gcd(r + n_exp, ell) != 1:
                continue
            t = pow(r + n_exp, -1, ell) if ell > 1 else 1
            fam = mul_family(ctx, r, s, make_poly(ctx, [0] * j + [c]))
            cf = closed_form_mul(fam, n_exp, t)
            assert cf.table.images == invert_multiplicative(fam).images
            made += 1


class TestAddFamily:
    def test_trivial_identity(self):
        ctx = field_of(9)
        lam = trace_table(ctx, 1)
        fam = add_family(ctx, list(range(9)), {s: 0 for s in set(lam)},
                         lam, lam)
        assert invert_additive(fam).images == tuple(range(9))

    def test_f16_frobenius_plus_trace(self):
        ctx = field_of(16)
        lam = trace_table(ctx, 1)
        c = next(k for k in trace_kernel(ctx, 1) if k)
        g = [ctx.mul(x, x) for x in ctx.elements()]
        fam = add_family(ctx, g, {s: ctx.mul(c, s) for s in set(lam)},
                         lam, lam)
        inv = invert_additive(fam)
        expected = [ctx.pow(ctx.add(x, ctx.mul(c, lam[x])), 8)
                    for x in ctx.elements()]
        assert list(inv.images) == expected
        assert is_inverse_pair(ctx, fam.f_table, inv)

    def test_linearized_g_via_matrix_inverse(self):
        # g a linearized permutation: its inverse from the matrix method
        # feeds the same formula and the composite is the identity
        ctx = field_of(9)
        lam = trace_table(ctx, 1)
        L = linearized(ctx, 3, [0, 2])  # 2x^3, a bijection
        g = linearized_tabulate(L)
        assert len(set(g)) == 9
        kernel = trace_kernel(ctx, 1)
        g0 = {s: kernel[s % len(kernel)] for s in set(lam)}
        fam = add_family(ctx, g, g0, lam, lam)
        inv = invert_additive(fam)
        g_inv_tab = linearized_tabulate(linearized_inverse(L))
        # with g0 = 0 the inverse is exactly the matrix-method inverse
        fam0 = add_family(ctx, g, {s: 0 for s in set(lam)}, lam, lam)
        assert list(invert_additive(fam0).images) == g_inv_tab
        assert is_inverse_pair(ctx, fam.f_table, inv)

    def test_rejections(self):
        ctx = field_of(9)
        lam = trace_table(ctx, 1)
        ident = list(range(9))
        sq = [ctx.mul(x, x) for x in ctx.elements()]
        with pytest.raises(ConditionFail):  # x^2 is not additive in char 3
            add_family(ctx, ident, {s: 0 for s in set(sq)}, sq, sq)
        with pytest.raises(ConditionFail):  # Tr(g0(...)) != 0
            add_family(ctx, ident, {s: 1 for s in set(lam)}, lam, lam)
        shifted = [ctx.add(x, 1) for x in ctx.elements()]
        with pytest.raises(ConditionFail):  # square does not commute
            add_family(ctx, shifted, {s: 0 for s in set(lam)}, lam, lam)

    def test_not_permutation_on_invert(self):
        # g collides off S but satisfies every structural invariant:
        # Tr(g(x)) = g(Tr(x)) and g({0,1}) = {0,1}
        ctx = field_of(4)
        lam = trace_table(ctx, 1)
        fam = add_family(ctx, [0, 1, 2, 2], {s: 0 for s in set(lam)},
                         lam, lam)
        with pytest.raises(NotPermutation):
            invert_additive(fam)

    @pytest.mark.parametrize("q", [4, 8, 9, 16, 27])
    def test_generated_instances_invert(self, q):
        ctx = field_of(q)
        rng = random.Random(q * 17)
        for fam in add_instances(ctx, rng, 6):
            inv = invert_additive(fam)
            assert is_inverse_pair(ctx, fam.f_table, inv)


class TestHybridFamily:
    def test_trivial_h_one(self):
        ctx = field_of(9)
        lam = [rel_trace(ctx, 1, ctx.mul(x, x)) for x in ctx.elements()]
        fam = hybrid_family(ctx, parse_poly_expr("1", ctx),
                            parse_poly_expr("x^2", ctx), lam, [0, 1, 2])
        assert invert_hybrid_scale(fam).images == tuple(range(9))

    def test_involution_instance_f9(self):
        ctx = field_of(9)
        lam = [ctx.pow(x, 4) for x in ctx.elements()]
        fam = hybrid_family(ctx, parse_poly_expr("x^2 + 1", ctx),
                            parse_poly_expr("x^2", ctx), lam, [0, 1, 2])
        two_x = tuple(ctx.mul(2, x) for x in ctx.elements())
        assert fam.f_table == two_x
        assert invert_hybrid_scale(fam).images == two_x

    def test_first_valid_h_over_f25(self):
        # smallest h in lexicographic coefficient order with h(0) != 0 and
        # y*h(y)^2 a permutation of F_5; oracle-checked inverse
        ctx = field_of(25)
        lam = [rel_trace(ctx, 1, ctx.mul(x, x)) for x in ctx.elements()]
        k = parse_poly_expr("x^2", ctx)
        import itertools
        fam = None
        for coeffs in itertools.product(range(5), repeat=3):
            if coeffs[0] == 0:
                continue
            g_small = [(y * pow(sum(c * y ** i for i, c in enumerate(coeffs)), 2, 5)) % 5
                       for y in range(5)]
            if len(set(g_small)) != 5:
                continue
            fam = hybrid_family(ctx, make_poly(ctx, coeffs), k, lam,
                                list(range(5)))
            break
        assert fam is not None
        inv = invert_hybrid_scale(fam)
        oracle = brute_inverse(as_permutation(ctx, list(fam.f_table)))
        assert inv.images == oracle.images

    def test_rejections(self):
        ctx = field_of(9)
        lam = trace_table(ctx, 1)
        k = parse_poly_expr("x", ctx)
        with pytest.raises(ConditionFail):  # h(0) = 0
            hybrid_family(ctx, parse_poly_expr("x", ctx), k, lam, [0, 1, 2])
        with pytest.raises(ConditionFail):  # k(0) != 0
            hybrid_family(ctx, parse_poly_expr("1", ctx),
                          parse_poly_expr("1", ctx), lam, [0, 1, 2])
        with pytest.raises(HVanishesOnImage):  # h(1) = 0 on the image
            hybrid_family(ctx, parse_poly_expr("x + 2", ctx), k, lam,
                          [0, 1, 2])
        with pytest.raises(ConditionFail):  # scaling law fails for k = x^2
            hybrid_family(ctx, parse_poly_expr("1", ctx),
                          parse_poly_expr("x^2", ctx), lam, [0, 1, 2])

    def test_not_permutation_on_invert(self):
        # k = x, h = y^2+y+2 over F_9: g(1) = g(2) = 1 on the trace image
        ctx = field_of(9)
        lam = trace_table(ctx, 1)
        fam = hybrid_family(ctx, parse_poly_expr("x^2 + x + 2", ctx),
                            parse_poly_expr("x", ctx), lam, [0, 1, 2])
        with pytest.raises(NotPermutation) as info:
            invert_hybrid_scale(fam)
        a, b = info.value.witness
        assert a != b and fam.g_map[a] == fam.g_map[b]

    @pytest.mark.parametrize("q", [5, 8, 9, 25, 27])
    def test_generated_instances_invert(self, q):
        ctx = field_of(q)
        rng = random.Random(q * 19)
        for fam in hybrid_instances(ctx, rng, 6):
            inv = invert_hybrid_scale(fam)
            assert is_inverse_pair(ctx, fam.f_table, inv)


class TestTranslatorFamily:
    def test_zero_g(self):
        ctx = field_of(9)
        lam = trace_table(ctx, 1)
        fam = translator_family(ctx, lam, 2, rel_trace(ctx, 1, 2),
                                parse_poly_expr("0", ctx))
        assert fam.f_table == tuple(range(9))
        assert invert_translator(fam).images == tuple(range(9))

    def test_f9_involution(self):
        ctx = field_of(9)
        lam = trace_table(ctx, 1)
        b = lam[2]
        assert b == 1
        fam = translator_family(ctx, lam, 2, b, parse_poly_expr("x", ctx))
        inv = invert_translator(fam)
        expected = tuple(ctx.add(x, ctx.mul(2, lam[x]))
                         for x in ctx.elements())
        assert inv.images == expected == fam.f_table
        assert invert_translator_linear(fam).images == expected

    def test_linear_with_collapsed_lambda(self):
        # lambda identically 0: S = {0}, f = x, inverse is the identity
        ctx = field_of(9)
        fam = translator_family(ctx, [0] * 9, 5, 0,
                                parse_poly_expr("x", ctx))
        assert invert_translator_linear(fam).images == tuple(range(9))

    def test_char2_b_one_is_degenerate(self):
        # b = 1 = -1 in characteristic 2: g(y) = y + y collapses, so the
        # family is not invertible and the linear shortcut divides by zero
        ctx = field_of(8)
        lam = trace_table(ctx, 1)
        gamma = next(x for x in ctx.units() if lam[x] == 1)
        fam = translator_family(ctx, lam, gamma, 1, parse_poly_expr("x", ctx))
        assert fam.f_table[0] == fam.f_table[gamma] == 0  # not a PP
        with pytest.raises(NotPermutation) as info:
            invert_translator(fam)
        a, b = info.value.witness
        assert a != b and fam.g_map[a] == fam.g_map[b]
        with pytest.raises(BPlusOneZero):
            invert_translator_linear(fam)

    def test_rejections(self):
        ctx = field_of(9)
        lam = trace_table(ctx, 1)
        with pytest.raises(GammaZero):
            translator_family(ctx, lam, 0, 0, parse_poly_expr("x", ctx))
        with pytest.raises(NotTranslator):  # wrong b for this gamma
            translator_family(ctx, lam, 2, 2, parse_poly_expr("x", ctx))
        ctx16 = field_of(16)
        lam16 = trace_table(ctx16, 1)
        g_out = next(x for x in ctx16.elements() if rel_trace(ctx16, 1, x) and x > 1)
        with pytest.raises(ConditionFail):  # G leaves S
            translator_family(ctx16, lam16, 1, lam16[1],
                              make_poly(ctx16, [g_out]))

    @pytest.mark.parametrize("q", [5, 8, 9, 16, 27])
    def test_generated_instances_invert(self, q):
        ctx = field_of(q)
        rng = random.Random(q * 23)
        for fam in translator_instances(ctx, rng, 6):
            inv = invert_translator(fam)
            assert is_inverse_pair(ctx, fam.f_table, inv)
            if all(fam.G_on_S[y] == y for y in fam.S):
                try:
                    assert invert_translator_linear(fam).images == inv.images
                except BPlusOneZero:
                    pass


def _tamper(table, rng):
    """Move one entry of the table to a different element."""
    q = len(table)
    x = rng.randrange(q)
    table[x] = (table[x] + rng.randrange(1, q)) % q


def _span(ctx, elems):
    """span(elems) over F_p, by closing {0} under adding multiples."""
    span = {0}
    for u in elems:
        multiples = [0]
        for _ in range(ctx.p - 1):
            multiples.append(ctx.add(multiples[-1], u))
        span = {ctx.add(v, w) for v in span for w in multiples}
    return span


class TestPremiseChecksAgainstFullChecks:
    """add_family checks additivity on the pairs (x, p^j) and
    translator_family the translator law on a basis of span(S); both must
    reach the verdict of the full pairwise check, and reject with a witness
    at which the law fails."""

    @pytest.mark.parametrize("q", prime_powers(64))
    def test_additivity(self, q):
        ctx = field_of(q)
        rng = random.Random(q)
        basis = [ctx.p ** j for j in range(ctx.n)]
        verdicts = set()
        for k in range(12):
            table = linearized_table(
                ctx, [rng.randrange(q) for _ in range(ctx.n)])
            if k % 2:
                _tamper(table, rng)
            ref = reference_additive(ctx, table)
            # g = identity, g0 = 0: every other premise holds once
            # lambda_bar = lambda is additive
            try:
                add_family(ctx, list(ctx.elements()),
                           {s: 0 for s in table}, table, table)
            except ConditionFail as err:
                assert ref is not None and "not additive" in str(err)
                x, e = err.witness
                assert e in basis
                assert table[ctx.add(x, e)] != ctx.add(table[x], table[e])
            else:
                assert ref is None
            verdicts.add(ref is None)
        assert verdicts == {True, False} or q == 2

    @pytest.mark.parametrize("q", prime_powers(64))
    def test_translator_law(self, q):
        ctx = field_of(q)
        rng = random.Random(q)
        G = parse_poly_expr("x", ctx)  # maps every S into itself
        verdicts = set()
        for k in range(16):
            if k < 8:  # b = Tr(gamma) makes gamma a b-linear translator
                lam = list(trace_table(ctx, rng.choice(divisors(ctx.n))))
            else:
                lam = linearized_table(
                    ctx, [rng.randrange(q) for _ in range(ctx.n)])
            gamma = rng.randrange(1, q)
            b = lam[gamma] if k % 4 < 2 else rng.randrange(q)
            if k % 2:
                _tamper(lam, rng)
            S = set(lam)
            ref = reference_translator(ctx, lam, gamma, b, S)
            try:
                translator_family(ctx, lam, gamma, b, G)
            except NotTranslator as err:
                assert ref is not None
                x, u = err.witness
                assert u in S
                assert (lam[ctx.add(x, ctx.mul(u, gamma))]
                        != ctx.add(lam[x], ctx.mul(u, b)))
            else:
                assert ref is None
            verdicts.add(ref is None)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("q", prime_powers(64))
    def test_span_basis(self, q):
        ctx = field_of(q)
        rng = random.Random(q)
        sets = [[], [0], list(ctx.elements()), list(trace_table(ctx, 1))]
        sets += [rng.sample(range(q), rng.randrange(1, min(q, 6) + 1))
                 for _ in range(8)]
        for elems in sets:
            elems = sorted(set(elems))
            basis = _span_basis(ctx, elems)
            assert set(basis) <= set(elems)
            assert len(_span(ctx, basis)) == ctx.p ** len(basis)
            assert _span(ctx, basis) == _span(ctx, elems)
            # greedy: whatever precedes a basis member is spanned already
            for k, u in enumerate(basis):
                earlier = elems[:elems.index(u)]
                assert set(earlier) <= _span(ctx, basis[:k])


class TestAdditivityWitness:
    """add_family rejects a lambda_bar that breaks
    lambda_bar(x) = lambda_bar(x - e) + lambda_bar(e), e the place value of
    x's top base-p digit, at the least such x, with witness (x - e, e)."""

    @staticmethod
    def _witness(ctx, table):
        with pytest.raises(ConditionFail) as err:
            add_family(ctx, list(ctx.elements()), {s: 0 for s in table},
                       table, table)
        x, e = err.value.witness
        assert str(err.value) == f"lambda_bar is not additive at ({x}, {e})"
        return x, e

    @staticmethod
    def _linear(ctx):
        rng = random.Random(ctx.q)
        return linearized_table(ctx, [rng.randrange(ctx.q)
                                      for _ in range(ctx.n)])

    @pytest.mark.parametrize("q", [9, 16])
    def test_nonzero_at_zero(self, q):
        ctx = field_of(q)
        table = self._linear(ctx)
        table[0] = 1
        assert self._witness(ctx, table) == (0, 1)

    # the least changed x gives (x - e, e): in GF(9) 5 and 7 have e = 3,
    # in GF(16) 11 and 13 have e = 8 and 6 has e = 4
    @pytest.mark.parametrize("q,points,witness", [
        (9, [5], (2, 3)), (9, [7, 5], (2, 3)), (9, [8, 7], (4, 3)),
        (16, [11], (3, 8)), (16, [11, 6], (2, 4)), (16, [15, 13], (5, 8))])
    def test_changed_points(self, q, points, witness):
        ctx = field_of(q)
        table = self._linear(ctx)
        assert add_family(ctx, list(ctx.elements()), {s: 0 for s in table},
                          table, table).lam_bar == tuple(table)
        for x in points:
            table[x] = ctx.add(table[x], 1)
        assert self._witness(ctx, table) == witness


def _premise_failures():
    """One failing input for each constructor that runs a shared premise
    scan: (call, error class, witness, message)."""
    f4, f5, f9, f16 = field_of(4), field_of(5), field_of(9), field_of(16)

    def poly(ctx, text):
        return parse_poly_expr(text, ctx)

    # 2*(x^2 + x) is 0 on GF(2) and 2 at the first element of GF(4)
    # outside GF(2), and 2 lies outside GF(4) in GF(16)
    return {
        "hybrid_family maps-into": (
            lambda: hybrid_family(f5, poly(f5, "x + 1"), poly(f5, "x"),
                                  list(range(5)), [0, 1, 2]),
            ConditionFail, 2, "h(lambda image) leaves S at y = 2"),
        "translator_family maps-into": (
            lambda: translator_family(f9, trace_table(f9, 1), 1, 0,
                                      poly(f9, "3*x")),
            ConditionFail, 1, "G does not map S into S at 1"),
        "make_trace_gadget maps-into": (
            lambda: make_trace_gadget(f16, 4, poly(f16, "2*x^2 + 2*x")),
            ConditionFail, 10, "g0 does not map GF(4) into itself at 10"),
        "make_zero_translator maps-into": (
            lambda: make_zero_translator(f16, 4, [1],
                                         poly(f16, "2*x^2 + 2*x"), 1),
            ConditionFail, 10, "G does not map GF(4) into itself at 10"),
        "translator_family translator law": (
            lambda: translator_family(f4, trace_table(f4, 1), 1, 1,
                                      poly(f4, "x")),
            NotTranslator, (0, 1),
            "lambda(x + u*gamma) != lambda(x) + u*b at (x, u) = (0, 1)"),
        "make_zero_translator translator law": (
            lambda: make_zero_translator(f16, 2, [1, 0, 0], poly(f16, "x"),
                                         2),
            NotTranslator, (0, 1),
            "lambda(x + u*gamma) != lambda(x) + u*b at (x, u) = (0, 1)"),
    }


class TestSharedPremiseScans:
    """The family constructors and the involution constructors run the same
    maps-into and translator-law scans; each call site rejects its failing
    input with the same class, witness and message."""

    @pytest.mark.parametrize("site", sorted(_premise_failures()))
    def test_rejection(self, site):
        call, error, witness, message = _premise_failures()[site]
        with pytest.raises(error) as err:
            call()
        assert err.value.witness == witness
        assert str(err.value) == message


class TestPhiBuilders:
    def test_phi_add_trace_shape(self):
        ctx = field_of(4)
        lam = trace_table(ctx, 1)
        pm = build_phi_add(identity_table(ctx), lam)
        assert pm.first == lam
        assert all(pm.inverse(pm.first[x], pm.second[x]) == x
                   for x in ctx.elements())

    def test_phi_add_zero_lambda(self):
        ctx = field_of(4)
        pm = build_phi_add(identity_table(ctx), [0] * 4)
        assert pm.first == (0, 0, 0, 0) and pm.second == (0, 1, 2, 3)

    def test_phi_add_frobenius(self):
        ctx = field_of(4)
        P = as_permutation(ctx, parse_poly_expr("x^2", ctx))
        pm = build_phi_add(P, trace_table(ctx, 1))
        assert all(pm.inverse(pm.first[x], pm.second[x]) == x
                   for x in ctx.elements())

    def test_phi_mul_constant_lambda(self):
        ctx = field_of(7)
        pm = build_phi_mul(identity_table(ctx), [1] * 7)
        assert pm.first == (1,) * 7 and pm.second == tuple(range(7))
        assert all(pm.inverse(pm.first[x], pm.second[x]) == x
                   for x in ctx.elements())

    def test_phi_mul_power_lambda(self):
        ctx = field_of(7)
        lam = [ctx.pow(x, 6) for x in ctx.elements()]
        lam[0] = 1
        pm = build_phi_mul(identity_table(ctx), lam)
        assert all(pm.inverse(pm.first[x], pm.second[x]) == x
                   for x in ctx.elements())

    def test_phi_mul_self_inverse_p(self):
        ctx = field_of(7)
        P = as_permutation(ctx, parse_poly_expr("x^5", ctx))  # x^(q-2)
        pm = build_phi_mul(P, [1] * 7)
        assert all(pm.inverse(pm.first[x], pm.second[x]) == x
                   for x in ctx.elements())

    def test_phi_mul_lambda_zero(self):
        ctx = field_of(7)
        with pytest.raises(LambdaZero):
            build_phi_mul(identity_table(ctx), [ctx.pow(x, 6) for x in range(7)])


def _mul_wiring(fam):
    ctx = fam.ctx
    phi = PhiMap(first=tuple(ctx.pow(x, fam.s) for x in ctx.elements()),
                 second=tuple(ctx.pow(x, fam.r) for x in ctx.elements()),
                 inverse=lambda y, z: ctx.mul(ctx.pow(y, fam.a),
                                              ctx.pow(z, fam.b)))
    pair_to_x = {(phi.first[x], phi.second[x]): x for x in ctx.elements()}
    g_inv = {v: z for z, v in fam.g_map.items()}
    g_inv[0] = 0

    def M(alpha, beta):
        if alpha == 0:
            return 0
        x = pair_to_x[(alpha, beta)]
        return ctx.div(x, fam.h_on_mu[g_inv[alpha]])

    return GenericDiagram(phi=phi, phi_bar=phi, g_inv=g_inv, M=M)


class TestGenericInverse:
    def test_identity(self):
        ctx = field_of(5)
        ident = identity_table(ctx)
        phi = PhiMap(first=tuple(range(5)), second=tuple(range(5)),
                     inverse=lambda y, z: y)
        d = GenericDiagram(phi=phi, phi_bar=phi,
                           g_inv={s: s for s in range(5)},
                           M=lambda a, b: b)
        assert generic_inverse(d, ident).images == tuple(range(5))

    @pytest.mark.parametrize("q", [7, 9, 16])
    def test_reproduces_multiplicative(self, q):
        ctx = field_of(q)
        rng = random.Random(q * 29)
        for fam in mul_instances(ctx, rng, 4):
            d = _mul_wiring(fam)
            f = as_permutation(ctx, list(fam.f_table))
            assert generic_inverse(d, f).images == \
                invert_multiplicative(fam).images

    def test_reproduces_niu(self):
        # phi = (-x^(q^i), x^(q^i) - x + delta) with psi_inv from the
        # difference-plus-scaling solution
        ctx = field_of(9)
        g_poly = parse_poly_expr("2*x", ctx)
        q0, i, c, delta = 3, 1, 2, 4
        from ppinv.poly_expr import eval_poly
        fwd = niu_forward(ctx, q0, g_poly, i, c, delta)
        f = as_permutation(ctx, list(fwd))
        h_tab = [ctx.add(ctx.add(ctx.sub(ctx.frob(eval_poly(g_poly, x), i),
                                         eval_poly(g_poly, x)),
                                 ctx.mul(c, x)),
                         ctx.mul(ctx.sub(1, c), delta))
                 for x in ctx.elements()]
        H = brute_inverse(as_permutation(ctx, h_tab))
        first = tuple(ctx.neg(ctx.frob(x, i)) for x in ctx.elements())
        second = tuple(ctx.add(ctx.sub(ctx.frob(x, i), x), delta)
                       for x in ctx.elements())
        phi = PhiMap(first=first, second=second,
                     inverse=lambda y, z: ctx.add(ctx.neg(ctx.add(y, z)),
                                                  delta))
        c_q = ctx.frob(c, i)
        g_inv_map = {}
        M_map = {}
        for x in ctx.elements():
            fx = f[x]
            alpha, beta = first[fx], second[fx]
            g_inv_map[alpha] = first[x]
            M_map[(alpha, beta)] = second[x]
        # psi(y, z) = (c^(q^i) y - g(z)^(q^i), h(z)), so the z-component of
        # psi_inv is exactly H(beta)
        for (alpha, beta), zval in M_map.items():
            assert zval == H[beta]
        d = GenericDiagram(phi=phi, phi_bar=phi, g_inv=g_inv_map,
                           M=lambda a, b: M_map[(a, b)])
        assert generic_inverse(d, f).images == \
            invert_niu(ctx, q0, g_poly, i, c, delta).images

    def test_reproduces_additive(self):
        # phi = (lam, x - lam) via the identity permutation; psi_inv solved
        # from psi(y, z) = (g(y), g(y + z) + g0(y) - g(y))
        ctx = field_of(16)
        rng = random.Random(61)
        for fam in add_instances(ctx, rng, 4):
            g_full_inv = {v: x for x, v in enumerate(fam.g)}
            if len(g_full_inv) != ctx.q:
                continue
            phi = build_phi_add(identity_table(ctx), fam.lam)
            g_on_S_inv = {fam.g[s]: s for s in fam.S}

            def M(alpha, beta, _gi=g_on_S_inv, _gf=g_full_inv, _f=fam):
                y = _gi[alpha]
                w = ctx.sub(ctx.add(alpha, beta), _f.g0[y])
                return ctx.sub(_gf[w], y)

            d = GenericDiagram(phi=phi, phi_bar=phi, g_inv=g_on_S_inv, M=M)
            f = as_permutation(ctx, list(fam.f_table))
            assert generic_inverse(d, f).images == \
                invert_additive(fam).images

    def test_reproduces_hybrid(self):
        # psi(y, z) = (y k(h(y)), (y + z) h(y) - k(h(y)) y)
        ctx = field_of(9)
        rng = random.Random(67)
        for fam in hybrid_instances(ctx, rng, 4):
            phi = build_phi_add(identity_table(ctx), fam.lam)
            g_inv = {v: y for y, v in fam.g_map.items()}

            def M(alpha, beta, _f=fam, _gi=g_inv):
                y = _gi[alpha]
                num = ctx.add(beta, ctx.mul(_f.theta[y], y))
                return ctx.sub(ctx.div(num, _f.h_on_L[y]), y)

            d = GenericDiagram(phi=phi, phi_bar=phi, g_inv=g_inv, M=M)
            f = as_permutation(ctx, list(fam.f_table))
            assert generic_inverse(d, f).images == \
                invert_hybrid_scale(fam).images

    def test_reproduces_translator(self):
        # psi(y, z) = (y + b G(y), z + (gamma - b) G(y))
        ctx = field_of(27)
        rng = random.Random(71)
        for fam in translator_instances(ctx, rng, 4):
            phi = build_phi_add(identity_table(ctx), fam.lam)
            coeff = ctx.sub(fam.b, fam.gamma)
            g_inv = {v: y for y, v in fam.g_map.items()}

            def M(alpha, beta, _f=fam, _c=coeff, _gi=g_inv):
                return ctx.add(beta, ctx.mul(_c, _f.G_on_S[_gi[alpha]]))

            d = GenericDiagram(phi=phi, phi_bar=phi, g_inv=g_inv, M=M)
            f = as_permutation(ctx, list(fam.f_table))
            assert generic_inverse(d, f).images == \
                invert_translator(fam).images

    def test_not_injective(self):
        ctx = field_of(5)
        phi = PhiMap(first=(0,) * 5, second=(0, 1, 2, 2, 4),
                     inverse=lambda y, z: z)
        d = GenericDiagram(phi=phi, phi_bar=phi, g_inv={0: 0},
                           M=lambda a, b: b)
        with pytest.raises(NotInjectivePhi):
            generic_inverse(d, identity_table(ctx))

    def test_square_does_not_commute(self):
        ctx = field_of(5)
        phi = PhiMap(first=tuple(range(5)), second=tuple(range(5)),
                     inverse=lambda y, z: y)
        d = GenericDiagram(phi=phi, phi_bar=phi,
                           g_inv={s: (s + 1) % 5 for s in range(5)},
                           M=lambda a, b: b)
        with pytest.raises(SquareDoesNotCommute):
            generic_inverse(d, identity_table(ctx))


class TestSmallSetInverseOnce:
    def test_constructors_invert_nothing(self, monkeypatch):
        import ppinv.agw_inverse as agw
        real, labels = agw._small_inverse, []

        def counting(pairs, label, *rest):
            labels.append(label)
            return real(pairs, label, *rest)

        monkeypatch.setattr(agw, "_small_inverse", counting)
        ctx = field_of(9)
        hybrid = hybrid_family(ctx, parse_poly_expr("x^2 + 1", ctx),
                               parse_poly_expr("x^2", ctx),
                               parse_poly_expr("x^4", ctx), [0, 1, 2])
        translator = translator_family(ctx, trace_table(ctx, 1), 2, 1,
                                       parse_poly_expr("x", ctx))
        assert labels == []
        invert_hybrid_scale(hybrid)
        assert len(labels) == 1
        invert_translator(translator)
        assert len(labels) == 2


class TestOneInvert:
    """One invert for the records of all five families: the brute-force
    inverse when f permutes F, otherwise NotPermutation at a collision of
    the small-set map."""

    GENERATORS = {
        "mul": mul_instances, "add": add_instances, "niu": niu_instances,
        "hybrid": lambda ctx, rng, want: hybrid_instances(
            ctx, rng, want, require_invertible=False),
        "translator": lambda ctx, rng, want: translator_instances(
            ctx, rng, want, require_invertible=False)}

    @pytest.mark.parametrize("kind", sorted(GENERATORS))
    def test_inverse_or_small_set_collision(self, kind):
        rng = random.Random(f"one-invert-{kind}")
        outcomes = set()
        for q in ACCEPTANCE_FIELDS:
            for fam in self.GENERATORS[kind](field_of(q), rng, 6):
                assert isinstance(fam.g_label, str)
                if sorted(fam.f_table) == list(range(q)):
                    oracle = brute_inverse(PermTable(fam.ctx, fam.f_table))
                    assert invert(fam).images == oracle.images
                    outcomes.add("inverse")
                    continue
                with pytest.raises(NotPermutation) as info:
                    invert(fam)
                a, b = info.value.witness
                assert a != b and fam.g_map[a] == fam.g_map[b]
                assert fam.g_label in str(info.value)
                outcomes.add("collision")
        assert "inverse" in outcomes
        if kind in ("hybrid", "translator", "niu"):
            assert "collision" in outcomes

    @pytest.mark.parametrize("alias", [invert_multiplicative, invert_additive,
                                       invert_hybrid_scale,
                                       invert_translator])
    def test_family_names_are_aliases(self, alias):
        assert alias is invert


class TestNiu:
    def test_trivial(self):
        ctx = field_of(4)
        inv = invert_niu(ctx, 2, parse_poly_expr("0", ctx), 1, 1, 0)
        assert inv.images == tuple(range(4))

    def test_f4_squaring_shift(self):
        ctx = field_of(4)
        for delta in ctx.elements():
            inv = invert_niu(ctx, 2, parse_poly_expr("x", ctx), 1, 1, delta)
            fwd = niu_forward(ctx, 2, parse_poly_expr("x", ctx), 1, 1, delta)
            assert fwd == tuple(ctx.add(ctx.mul(x, x), delta)
                                for x in ctx.elements())
            assert inv.images == tuple(ctx.add(ctx.mul(x, x),
                                               ctx.mul(delta, delta))
                                       for x in ctx.elements())

    def test_f9_not_permutation(self):
        # g = x, c = 2: h = x^3 + x has kernel since -1 is a square in F_9
        ctx = field_of(9)
        with pytest.raises(NotPermutation):
            invert_niu(ctx, 3, parse_poly_expr("x", ctx), 1, 2, 0)

    def test_not_permutation_witness_is_first_collision(self):
        ctx = field_of(9)
        g = parse_poly_expr("x", ctx)
        # with g = x, c = 2 and delta = 0, h(x) = x^3 - x + 2x = x^3 + x
        h = [ctx.add(ctx.pow(x, 3), x) for x in ctx.elements()]
        first = next((h.index(v), x) for x, v in enumerate(h)
                     if h.index(v) < x)
        with pytest.raises(NotPermutation) as info:
            invert_niu(ctx, 3, g, 1, 2, 0)
        assert info.value.witness == first

    def test_f9_valid_instances(self):
        ctx = field_of(9)
        for c, g_text in ((1, "x"), (2, "2*x")):
            for delta in (0, 3, 7):
                g_poly = parse_poly_expr(g_text, ctx)
                inv = invert_niu(ctx, 3, g_poly, 1, c, delta)
                fwd = niu_forward(ctx, 3, g_poly, 1, c, delta)
                oracle = brute_inverse(as_permutation(ctx, list(fwd)))
                assert inv.images == oracle.images

    def test_f64_subfield_c(self):
        # q = 4, m = 3, i = 1: c must lie in GF(4)^*; scan for a c making
        # the auxiliary map bijective and oracle-check that instance
        ctx = field_of(64)
        sub4 = [x for x in ctx.elements() if ctx.frob(x, 2) == x]
        g_poly = parse_poly_expr("x^2", ctx)
        done = 0
        for c in sub4:
            if c == 0:
                continue
            try:
                inv = invert_niu(ctx, 4, g_poly, 1, c, 5)
            except NotPermutation:
                continue
            fwd = niu_forward(ctx, 4, g_poly, 1, c, 5)
            assert brute_inverse(as_permutation(ctx, list(fwd))).images == \
                inv.images
            done += 1
        assert done > 0
        outside = next(x for x in ctx.units() if x not in sub4)
        with pytest.raises(NotInSubfield):
            invert_niu(ctx, 4, g_poly, 1, outside, 5)

    def test_agrees_with_brute_force_bijectivity(self):
        # every field with q <= 81 and a proper subfield base q0 = p^e, and
        # every i in [1, m): f permutes F exactly when h permutes S = lam(F)
        both_ways = [0, 0]
        permutes_S_not_F = 0
        for q in prime_powers(81):
            ctx = field_of(q)
            for e in divisors(ctx.n)[:-1]:
                q0, m = ctx.p ** e, ctx.n // e
                for i in range(1, m):
                    units = [c for c in subfield_elements(
                        ctx, e * math.gcd(i, m)) if c]
                    rng = random.Random(q * 1000 + e * 100 + i)
                    for _ in range(30):
                        g = random_poly(ctx, rng, 3)
                        c, delta = rng.choice(units), rng.randrange(q)
                        fwd = niu_forward(ctx, q0, g, i, c, delta)
                        lam = [ctx.add(ctx.sub(ctx.frob(x, e * i), x), delta)
                               for x in ctx.elements()]

                        def h(y):
                            gy = eval_poly(g, y)
                            return ctx.add(ctx.add(
                                ctx.sub(ctx.frob(gy, e * i), gy),
                                ctx.mul(c, y)),
                                ctx.mul(ctx.sub(1, c), delta))

                        if len(set(fwd)) == q:
                            both_ways[0] += 1
                            oracle = brute_inverse(PermTable(ctx, fwd))
                            assert invert_niu(ctx, q0, g, i, c,
                                              delta).images == oracle.images
                            if len({h(y) for y in ctx.elements()}) < q:
                                permutes_S_not_F += 1
                            continue
                        both_ways[1] += 1
                        with pytest.raises(NotPermutation) as info:
                            invert_niu(ctx, q0, g, i, c, delta)
                        a, b = info.value.witness
                        assert a != b and a in lam and b in lam
                        assert h(a) == h(b)
        assert min(both_ways) > 0 and permutes_S_not_F > 0


class TestDescriptors:
    def test_mul_descriptor(self):
        kind, fam = family_from_descriptor(
            {"family": "mul", "field": {"p": 7, "n": 1},
             "r": 1, "s": 3, "h": "3"})
        assert kind == "mul"
        assert invert_multiplicative(fam).images == \
            tuple((5 * x) % 7 for x in range(7))

    def test_translator_descriptor_with_table_lambda(self):
        ctx = field_of(9)
        lam = list(trace_table(ctx, 1))
        kind, fam = family_from_descriptor(
            {"family": "translator", "field": {"p": 3, "n": 2},
             "lambda": lam, "gamma": 2, "b": 1, "G": "x"})
        assert kind == "translator"
        assert invert_translator(fam).images == fam.f_table

    def test_add_descriptor_with_poly_g0(self):
        kind, fam = family_from_descriptor(
            {"family": "add", "field": {"p": 2, "n": 2},
             "g": "x", "lambda": "Tr{1}(x)", "g0": "x"})
        assert kind == "add"
        inv = invert_additive(fam)
        assert is_inverse_pair(fam.ctx, fam.f_table, inv)

    def test_hybrid_descriptor(self):
        kind, fam = family_from_descriptor(
            {"family": "hybrid", "field": {"p": 3, "n": 2},
             "h": "x^2 + 1", "k": "x^2", "lambda": "x^4", "S": [0, 1, 2]})
        assert invert_hybrid_scale(fam).images == fam.f_table

    def test_niu_descriptor(self):
        kind, fam = family_from_descriptor(
            {"family": "niu", "field": {"p": 3, "n": 2},
             "q": 3, "g": "x", "i": 1, "c": 1, "delta": 0})
        assert kind == "niu"
        ctx = fam.ctx
        inv = invert_niu(ctx, fam.q, fam.g, fam.i, fam.c, fam.delta)
        assert inv.images == tuple(ctx.pow(x, 3) for x in ctx.elements())


class TestNeutralParameters:
    """Every family with neutral parameters inverts to the identity."""

    def test_all_families(self):
        ctx = field_of(16)
        one = parse_poly_expr("1", ctx)
        fam = mul_family(ctx, 1, 1, one)
        assert invert_multiplicative(fam).images == tuple(range(16))
        lam = trace_table(ctx, 1)
        fam_a = add_family(ctx, list(range(16)), {s: 0 for s in set(lam)},
                           lam, lam)
        assert invert_additive(fam_a).images == tuple(range(16))
        lam_h = [rel_trace(ctx, 1, x) for x in ctx.elements()]
        fam_h = hybrid_family(ctx, one, parse_poly_expr("x", ctx), lam_h,
                              [0, 1])
        assert invert_hybrid_scale(fam_h).images == tuple(range(16))
        fam_t = translator_family(ctx, lam, 1, lam[1],
                                  parse_poly_expr("0", ctx))
        assert invert_translator(fam_t).images == tuple(range(16))


class TestElementRanges:
    """Scalars that denote field elements must lie in [0, q); the field
    arithmetic does not check, so each constructor does (over GF(2^4),
    -1 would read the log table from the end and 16 past it)."""

    @pytest.mark.parametrize("gamma,b", [(-1, 16), (16, 1), (1, -1),
                                         (1, 16), (1.5, 1), (True, 1),
                                         ("3", 1), ([2], 1), (None, 1),
                                         (1, 1.0)])
    def test_translator(self, gamma, b):
        ctx = field_of(16)
        with pytest.raises(ValueError, match="out of range"):
            translator_family(ctx, trace_table(ctx, 1), gamma, b,
                              parse_poly_expr("x", ctx))

    @pytest.mark.parametrize("S", [[0, 1, -1], [0, 1, 16], [0, 1, 2.0],
                                   [0, True]])
    def test_hybrid(self, S):
        ctx = field_of(16)
        with pytest.raises(ValueError, match="S member"):
            hybrid_family(ctx, parse_poly_expr("1", ctx),
                          parse_poly_expr("x", ctx), trace_table(ctx, 1), S)

    @pytest.mark.parametrize("g0", [{0: -3, 1: 0}, {0: 0, 1: 16},
                                    {0: 0, 1: 0, -1: 0}, {0: 0, 1: 0, 16: 0},
                                    {0: 0, 1: 1.5}, {0: 0, 1.0: 0},
                                    {"0": 0, "1": 0}, [0, 1]])
    def test_add(self, g0):
        ctx = field_of(16)
        lam = trace_table(ctx, 1)
        with pytest.raises(ValueError, match="g0"):
            add_family(ctx, list(range(16)), g0, lam, lam)

    @pytest.mark.parametrize("c,delta", [(1, -1), (1, 16), (-1, 0), (16, 0),
                                         (1.9, 0), (None, 0), ("1", 0),
                                         (1, 0.0)])
    @pytest.mark.parametrize("build", [invert_niu, niu_forward])
    def test_niu(self, build, c, delta):
        ctx = field_of(16)
        with pytest.raises(ValueError, match="out of range"):
            build(ctx, 4, parse_poly_expr("x", ctx), 1, c, delta)

    @pytest.mark.parametrize("call", [
        lambda ctx: make_poly(ctx, [1.5]),
        lambda ctx: make_poly(ctx, [0, True]),
        lambda ctx: make_kuozhan(ctx, 4, 1, 17, 1),
        lambda ctx: make_kuozhan(ctx, 4, 1, 1, 1.0),
        lambda ctx: make_kuozhan(ctx, 4, 1.0, 1, 1),
        lambda ctx: make_zero_translator(
            ctx, 2, [1, 0, 0], parse_poly_expr("x", ctx), 17),
        lambda ctx: make_zero_translator(
            ctx, 2, [1, 0, 0.0], parse_poly_expr("x", ctx), 1),
        lambda ctx: mul_family(ctx, True, 1, parse_poly_expr("1", ctx)),
        lambda ctx: mul_family(ctx, 1, 3.0, parse_poly_expr("1", ctx)),
        lambda ctx: invert_niu(ctx, 4, parse_poly_expr("x", ctx), 1.0, 1, 0),
        lambda ctx: linearized(ctx, 4, [1.5]),
        lambda ctx: p_power_degree(ctx, 4.0),
        lambda ctx: translator_family(ctx, [0.0] * 16, 1, 0,
                                      parse_poly_expr("x", ctx)),
        lambda ctx: agw_diagram(ctx, list(range(16)), [0] * 16, [0] * 16,
                                {0: 0.0}, [0], [0]),
        lambda ctx: build_field(7.9),
        lambda ctx: build_field(True),
        lambda ctx: build_field(2, True),
        lambda ctx: build_field(2, 2, [1, 1, 1.0])])
    def test_library_scalars(self, call):
        # nothing is coerced: a float, a bool or a string is not an int
        with pytest.raises(ValueError, match="out of range"):
            call(field_of(16))


def _tampered(fam):
    """fam with f(0) and f(1) swapped: an inverse computed from the other
    parameters then fails at x = 0."""
    f = list(fam.f_table)
    f[0], f[1] = f[1], f[0]
    return dataclasses.replace(fam, f_table=tuple(f))


_CERT_DOCS = {
    "mul": {"family": "mul", "field": {"p": 7}, "r": 1, "s": 3, "h": "x^2"},
    "add": {"family": "add", "field": {"p": 2, "n": 2}, "g": "x",
            "lambda": "Tr{1}(x)", "g0": "x"},
    "hybrid": {"family": "hybrid", "field": {"p": 3, "n": 2},
               "h": "x^2 + 1", "k": "x^2", "lambda": "x^4", "S": [0, 1, 2]},
    "translator": {"family": "translator", "field": {"p": 3, "n": 2},
                   "lambda": "Tr{1}(x)", "gamma": 2, "b": 1, "G": "x"},
    "niu": {"family": "niu", "field": {"p": 3, "n": 2}, "q": 3, "g": "x",
            "i": 1, "c": 1, "delta": 0},
}


class TestCertification:
    """Every inverter certifies its answer against the forward table."""

    @pytest.mark.parametrize("kind,invert", [
        ("mul", invert_multiplicative),
        ("mul", lambda fam: closed_form_mul(fam, 6, 1).table),
        ("add", invert_additive),
        ("hybrid", invert_hybrid_scale),
        ("translator", invert_translator),
        ("translator", invert_translator_linear),
        ("niu", invert),
    ], ids=["mul-invert_multiplicative", "mul-<lambda>",
            "add-invert_additive", "hybrid-invert_hybrid_scale",
            "translator-invert_translator",
            "translator-invert_translator_linear", "niu-invert"])
    def test_tampered_forward_table_is_caught(self, kind, invert):
        _, fam = family_from_descriptor(_CERT_DOCS[kind])
        assert is_inverse_pair(fam.ctx, fam.f_table, invert(fam))
        with pytest.raises(CertificationFailed) as err:
            invert(_tampered(fam))
        assert err.value.witness == 0

    def test_tampered_niu_forward_is_caught(self, monkeypatch):
        import ppinv.agw_inverse as agw
        real = agw.niu_forward

        def swapped(*args):
            f = list(real(*args))
            f[0], f[1] = f[1], f[0]
            return tuple(f)

        monkeypatch.setattr(agw, "niu_forward", swapped)
        ctx = field_of(9)
        with pytest.raises(CertificationFailed) as err:
            invert_niu(ctx, 3, parse_poly_expr("x", ctx), 1, 1, 0)
        assert err.value.witness == 0

    def test_check_survives_optimized_mode(self):
        # python -O strips assert statements; certification must remain
        script = "\n".join([
            "import dataclasses",
            "from ppinv import build_field, invert_multiplicative, "
            "mul_family, parse_poly_expr",
            "from ppinv.errors import CertificationFailed",
            "F = build_field(7)",
            "fam = mul_family(F, 1, 3, parse_poly_expr('3', F))",
            "f = list(fam.f_table)",
            "f[0], f[1] = f[1], f[0]",
            "try:",
            "    invert_multiplicative("
            "dataclasses.replace(fam, f_table=tuple(f)))",
            "except CertificationFailed as exc:",
            "    print('caught', exc.witness)",
        ])
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "caught 0\n"
