"""Involution criteria for all four families and the explicit involution
constructors, each cross-checked against the f o f = identity oracle."""

import random

import pytest

from ppinv import (build_field, check_add_involution,
                   check_hybrid_involution, check_mul_involution,
                   check_translator_involution, hybrid_family,
                   invert_multiplicative, make_kuozhan, make_trace_gadget,
                   make_zero_translator, mul_family, parse_poly_expr,
                   subfield_elements, translator_family,
                   add_family)
from ppinv.errors import (BadK, ConditionFail, NotInSubfield, NotTranslator,
                          OddChar, OddN, TraceNonzero)

from helpers import (field_of, reference_translator, rel_trace, trace_kernel,
                     trace_table)


def _involution_table(f_table):
    return all(f_table[f_table[x]] == x for x in range(len(f_table)))


class TestMulCriterion:
    def test_identity(self):
        ctx = field_of(7)
        rep = check_mul_involution(mul_family(ctx, 1, 1,
                                              parse_poly_expr("1", ctx)))
        assert rep.g_involutory and rep.aux_condition
        assert rep.is_involution and rep.oracle_agrees

    def test_scaling_not_involution(self):
        # f = 3x: g is involutory on the square roots of unity but the
        # pointwise condition fails since 3*3 = 2 != 1
        ctx = field_of(7)
        rep = check_mul_involution(mul_family(ctx, 1, 3,
                                              parse_poly_expr("3", ctx)))
        assert rep.g_involutory
        assert not rep.aux_condition and rep.witness is not None
        assert not rep.is_involution and rep.oracle_agrees

    def test_kuozhan_f16(self):
        fam = make_kuozhan(field_of(16), 4, 1, 1, 1)
        rep = check_mul_involution(fam)
        assert rep.is_involution and rep.oracle_agrees
        assert invert_multiplicative(fam).images == fam.f_table

    def test_json_schema(self):
        ctx = field_of(7)
        rep = check_mul_involution(mul_family(ctx, 1, 3,
                                              parse_poly_expr("3", ctx)))
        doc = rep.to_json()
        assert set(doc) == {"g_involutory", "aux_condition", "witness",
                            "is_involution", "oracle_agrees"}


class TestAddCriterion:
    def test_trivial(self):
        ctx = field_of(4)
        lam = trace_table(ctx, 1)
        fam = add_family(ctx, list(range(4)), {s: 0 for s in set(lam)},
                         lam, lam)
        rep = check_add_involution(fam)
        assert rep.is_involution and rep.oracle_agrees

    def test_char2_trace_shift(self):
        # F_4: f = x + Tr(x) = x^2 is an involution
        ctx = field_of(4)
        lam = trace_table(ctx, 1)
        fam = add_family(ctx, list(range(4)), {s: s for s in set(lam)},
                         lam, lam)
        assert fam.f_table == tuple(ctx.mul(x, x) for x in ctx.elements())
        rep = check_add_involution(fam)
        assert rep.is_involution and rep.oracle_agrees

    def test_requires_matching_sides(self):
        # g = w*x with lam_bar the conjugated trace w*Tr(w^2 y) gives a
        # valid family with lam != lam_bar, which the criterion refuses
        ctx = field_of(4)
        lam = trace_table(ctx, 1)
        w, w2 = 2, 3
        g = [ctx.mul(w, x) for x in ctx.elements()]
        lam_bar = [ctx.mul(w, lam[ctx.mul(w2, y)]) for y in ctx.elements()]
        fam = add_family(ctx, g, {s: 0 for s in set(lam)}, lam, lam_bar)
        with pytest.raises(ConditionFail):
            check_add_involution(fam)

    def test_char3_identity_g0_rejected(self):
        # over F_9, g0 = identity breaks lambda(g0(lambda(x))) = 0 since
        # Tr(s) = 2s on the subfield, so the family itself is rejected
        ctx = field_of(9)
        lam = trace_table(ctx, 1)
        with pytest.raises(ConditionFail):
            add_family(ctx, list(range(9)), {s: s for s in set(lam)},
                       lam, lam)

    def test_char3_not_involution(self):
        # valid char-3 instance: g0 scales into the trace kernel, so the
        # family exists, but -2 g0(lam(x)) no longer cancels
        ctx = field_of(9)
        lam = trace_table(ctx, 1)
        kappa = next(k for k in trace_kernel(ctx, 1) if k)
        g0 = {s: ctx.mul(kappa, s) for s in set(lam)}
        fam = add_family(ctx, list(range(9)), g0, lam, lam)
        rep = check_add_involution(fam)
        assert not rep.is_involution and rep.oracle_agrees
        assert rep.witness is not None


class TestHybridCriterion:
    def test_f9_scaled_square(self):
        ctx = field_of(9)
        lam = [ctx.pow(x, 4) for x in ctx.elements()]
        fam = hybrid_family(ctx, parse_poly_expr("x^2 + 1", ctx),
                            parse_poly_expr("x^2", ctx), lam, [0, 1, 2])
        rep = check_hybrid_involution(fam)
        assert rep.is_involution and rep.oracle_agrees

    def test_trivial_h_one(self):
        ctx = field_of(9)
        lam = [rel_trace(ctx, 1, ctx.mul(x, x)) for x in ctx.elements()]
        fam = hybrid_family(ctx, parse_poly_expr("1", ctx),
                            parse_poly_expr("x^2", ctx), lam, [0, 1, 2])
        rep = check_hybrid_involution(fam)
        assert rep.is_involution and rep.oracle_agrees

    def test_f27_lambda2(self):
        ctx = field_of(27)
        lam = [ctx.add(ctx.add(ctx.pow(x, 4), ctx.pow(x, 10)),
                       ctx.pow(x, 12)) for x in ctx.elements()]
        fam = hybrid_family(ctx, parse_poly_expr("x^2 + 1", ctx),
                            parse_poly_expr("x^2", ctx), lam, [0, 1, 2])
        rep = check_hybrid_involution(fam)
        assert rep.is_involution and rep.oracle_agrees
        assert _involution_table(fam.f_table)

    def test_non_involution(self):
        # f = 2x over F_5 via h = 2, lam = Tr(x) = x: 2*2 = 4 != 1
        ctx = field_of(5)
        lam = list(range(5))
        fam = hybrid_family(ctx, parse_poly_expr("2", ctx),
                            parse_poly_expr("x", ctx), lam, list(range(5)))
        rep = check_hybrid_involution(fam)
        assert not rep.is_involution and rep.oracle_agrees


class TestTranslatorCriterion:
    def test_f9_b_one(self):
        ctx = field_of(9)
        lam = trace_table(ctx, 1)
        fam = translator_family(ctx, lam, 2, 1, parse_poly_expr("x", ctx))
        rep = check_translator_involution(fam)
        assert rep.is_involution and rep.oracle_agrees

    def test_even_zero_translator(self):
        # q even with b = 0: always an involution, any G into S
        ctx = field_of(16)
        lam = trace_table(ctx, 1)
        gamma = next(k for k in trace_kernel(ctx, 1) if k)
        fam = translator_family(ctx, lam, gamma, 0,
                                parse_poly_expr("x", ctx))
        rep = check_translator_involution(fam)
        assert rep.is_involution and rep.oracle_agrees

    def test_odd_zero_translator_nonzero_G(self):
        # q = 9, b = 0, G = 1: f = x + gamma, not an involution in char 3
        ctx = field_of(9)
        lam = trace_table(ctx, 1)
        gamma = next(k for k in trace_kernel(ctx, 1) if k)
        fam = translator_family(ctx, lam, gamma, 0,
                                parse_poly_expr("1", ctx))
        rep = check_translator_involution(fam)
        assert rep.g_involutory  # b = 0 makes condition (1) vacuous
        assert not rep.aux_condition and rep.witness is not None
        assert not rep.is_involution and rep.oracle_agrees


class TestMakeKuozhan:
    def test_q4_instance(self):
        fam = make_kuozhan(field_of(16), 4, 1, 1, 1)
        assert _involution_table(fam.f_table)
        assert fam.f_table != tuple(range(16))  # a nontrivial involution

    def test_q8_instance(self):
        ctx = field_of(64)
        sub = [x for x in ctx.elements() if ctx.frob(x, 3) == x]
        beta = next(b for b in sub
                    if b and _tr_down(ctx, b, 3) == 0)
        fam = make_kuozhan(ctx, 8, 2, 1, beta)
        assert _involution_table(fam.f_table)

    def test_trace_nonzero_rejected(self):
        ctx = field_of(16)
        sub = [x for x in ctx.elements() if ctx.frob(x, 2) == x]
        bad = next(b for b in sub if b and _tr_down(ctx, b, 2) != 0)
        with pytest.raises(TraceNonzero):
            make_kuozhan(ctx, 4, 1, 1, bad)

    def test_bad_k(self):
        with pytest.raises(BadK):
            make_kuozhan(field_of(16), 4, 5, 1, 1)  # gcd(5, 5) = 5

    def test_not_in_subfield(self):
        ctx = field_of(16)
        outside = next(x for x in ctx.units() if ctx.frob(x, 2) != x)
        with pytest.raises(NotInSubfield):
            make_kuozhan(ctx, 4, 1, outside, 1)

    def test_odd_char(self):
        with pytest.raises(OddChar):
            make_kuozhan(field_of(9), 3, 1, 1, 1)


def _tr_down(ctx, x, e):
    acc = 0
    cur = x
    for _ in range(e):
        acc = ctx.add(acc, cur)
        cur = ctx.frob(cur, 1)
    return acc


class TestMakeTraceGadget:
    def test_f4_identity_plus_trace(self):
        ctx = field_of(4)
        fam = make_trace_gadget(ctx, 2, parse_poly_expr("x", ctx))
        assert fam.f_table == tuple(ctx.mul(x, x) for x in ctx.elements())

    def test_zero_g0(self):
        ctx = field_of(4)
        fam = make_trace_gadget(ctx, 2, parse_poly_expr("0", ctx))
        assert fam.f_table == tuple(range(4))

    def test_f16_over_f4(self):
        ctx = field_of(16)
        fam = make_trace_gadget(ctx, 4, parse_poly_expr("x^2 + 1", ctx))
        assert _involution_table(fam.f_table)

    def test_f256_over_f16(self):
        ctx = field_of(256)
        fam = make_trace_gadget(ctx, 16, parse_poly_expr("x^2 + 1", ctx))
        assert _involution_table(fam.f_table)
        assert fam.f_table != tuple(range(256))

    @pytest.mark.parametrize("q, base", [(4, 2), (16, 4), (256, 16)])
    def test_lambda_is_the_relative_trace(self, q, base):
        ctx = field_of(q)
        fam = make_trace_gadget(ctx, base, parse_poly_expr("x^2 + 1", ctx))
        e = base.bit_length() - 1
        assert fam.lam == tuple(rel_trace(ctx, e, x) for x in ctx.elements())

    def test_odd_n(self):
        with pytest.raises(OddN):
            make_trace_gadget(field_of(8), 2, parse_poly_expr("x", field_of(8)))

    def test_odd_char(self):
        with pytest.raises(OddChar):
            make_trace_gadget(field_of(9), 3, parse_poly_expr("x", field_of(9)))


class TestMakeZeroTranslator:
    def test_f8_degenerate_lambda(self):
        # beta = (1, 1) collapses lambda to 0, so f = x
        ctx = field_of(8)
        fam = make_zero_translator(ctx, 2, [1, 1],
                                   parse_poly_expr("x", ctx), 1)
        assert fam.f_table == tuple(range(8))

    def test_zero_G(self):
        ctx = field_of(8)
        fam = make_zero_translator(ctx, 2, [1, 1],
                                   parse_poly_expr("0", ctx), 1)
        assert fam.f_table == tuple(range(8))

    def test_f16_trace_shape(self):
        # beta = (1, 0, 0) makes lambda the absolute trace on F_16
        ctx = field_of(16)
        fam = make_zero_translator(ctx, 2, [1, 0, 0],
                                   parse_poly_expr("x", ctx), 1)
        lam = trace_table(ctx, 1)
        assert fam.f_table == tuple(ctx.add(x, lam[x])
                                    for x in ctx.elements())
        assert _involution_table(fam.f_table)

    def test_not_translator_witness(self):
        ctx = field_of(16)
        lam = trace_table(ctx, 1)
        bad_gamma = next(x for x in ctx.units() if lam[x] != 0)
        with pytest.raises(NotTranslator) as err:
            make_zero_translator(ctx, 2, [1, 0, 0],
                                 parse_poly_expr("x", ctx), bad_gamma)
        assert err.value.witness is not None

    def test_family_check_covers_span_of_lambda_image(self):
        # gamma = 1 passes the 0-linear translator law over GF(2), but
        # lambda(F) spans more than GF(2), and the family's own check over
        # an F_p-basis of that span rejects it
        ctx = build_field(2, 3)
        with pytest.raises(NotTranslator) as err:
            make_zero_translator(ctx, 2, [4, 0], parse_poly_expr("x", ctx), 1)
        assert str(err.value).startswith("lambda(x + u*gamma) != ")
        assert err.value.witness == (0, 2)

    def test_f64_over_f4_degenerate_grid(self):
        # q = 4, n = 3: lambda = (b1 + b2)(x + x^16), whose image leaves
        # GF(4) whenever b1 != b2, so only the collapsed instances satisfy
        # the translator law; every accepted one is an involution
        ctx = field_of(64)
        sub = [x for x in ctx.elements() if ctx.frob(x, 2) == x]
        gamma = next(x for x in sub if x > 1)
        accepted = 0
        for b1 in sub:
            for b2 in sub:
                try:
                    fam = make_zero_translator(ctx, 4, [b1, b2],
                                               parse_poly_expr("x", ctx),
                                               gamma)
                except NotTranslator:
                    assert b1 != b2
                    continue
                assert b1 == b2
                assert _involution_table(fam.f_table)
                accepted += 1
        assert accepted == len(sub)

    def test_f256_over_f4_trace_instance(self):
        # q = 4, n = 4, beta = (1, 0, 0): the pair sums collapse to the
        # relative trace, giving a nontrivial involution on GF(256)
        ctx = field_of(256)
        sub = [x for x in ctx.elements() if ctx.frob(x, 2) == x]
        gamma = next(x for x in sub if x > 1)
        fam = make_zero_translator(ctx, 4, [1, 0, 0],
                                   parse_poly_expr("x", ctx), gamma)
        assert fam.lam == trace_table(ctx, 2)
        assert _involution_table(fam.f_table)
        assert fam.f_table != tuple(range(256))

    @pytest.mark.parametrize("q,q0", [(q, q0) for q in (4, 8, 16, 32, 64)
                                      for q0 in (2, 4, 8)
                                      if q0 * q0 <= q
                                      and (q.bit_length() - 1)
                                      % (q0.bit_length() - 1) == 0])
    def test_translator_law_against_full_check(self, q, q0):
        # the law is checked on a basis of GF(q0), then by translator_family
        # on a basis of span(lambda(F)); the verdict must be the full
        # check's over both sets, with lambda taken from its defining double
        # sum.  Equal betas s in GF(q0) make lambda s*Tr (n even) or 0 (n
        # odd), which a gamma in its kernel translates.
        ctx = field_of(q)
        e = q0.bit_length() - 1
        n = ctx.n // e
        sub = subfield_elements(ctx, e)
        rng = random.Random(q * q0)
        verdicts = set()
        for k in range(12):
            if k % 3 == 0:
                beta = [rng.choice(sub)] * (n - 1)
            else:
                beta = [rng.randrange(q) for _ in range(n - 1)]
            lam = [0] * q
            for x in ctx.elements():
                for i in range(1, n):
                    for j in range(i + 1, n + 1):
                        pair = ctx.add(ctx.frob(x, e * i), ctx.frob(x, e * j))
                        lam[x] = ctx.add(lam[x], ctx.mul(beta[i - 1], pair))
            kernel = [x for x in ctx.units() if lam[x] == 0]
            gamma = (rng.choice(kernel) if k % 2 and kernel
                     else rng.randrange(1, q))
            ref_sub = reference_translator(ctx, lam, gamma, 0, sub)
            ref = ref_sub or reference_translator(ctx, lam, gamma, 0, set(lam))
            try:
                fam = make_zero_translator(ctx, q0, beta,
                                           parse_poly_expr("x", ctx), gamma)
            except NotTranslator as err:
                assert ref is not None
                x, u = err.witness
                assert u in (sub if ref_sub else lam)
                assert lam[ctx.add(x, ctx.mul(u, gamma))] != lam[x]
            else:
                assert ref is None and list(fam.lam) == lam
            verdicts.add(ref is None)
        assert verdicts == {True, False}
