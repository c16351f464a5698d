"""Expression parsing, evaluation, composition, interpolation and
linearized-polynomial inversion."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppinv import (PermTable, brute_inverse, eval_poly, interpolate,
                   linearized, linearized_eval, linearized_inverse, make_poly,
                   p_power_degree, parse_poly_expr, print_poly,
                   reduce_mod_field, tabulate)
from ppinv.errors import (BadTraceDegree, ConstantOutOfRange, CtxMismatch,
                          LengthMismatch, PolySyntaxError, Singular)
from ppinv.poly_expr import linearized_tabulate, monomial, poly_frob

from helpers import (compose, expressions, field_of, frobenius_chain_eval,
                     horner_eval, prime_powers)

# every field with q <= 64 under every base q0 = p^e with e | n, and two
# larger extensions
LINEARIZED_CASES = [(q, ctx.p ** e) for q in prime_powers(64)
                    for ctx in [field_of(q)]
                    for e in range(1, ctx.n + 1) if ctx.n % e == 0]
LINEARIZED_CASES += [(256, 4), (243, 3)]


class TestParse:
    def test_literal_transcription(self):
        ctx = field_of(5)
        assert parse_poly_expr("x^3 + 2*x", ctx).coeffs == (0, 2, 0, 1)

    def test_inverse_sugar(self):
        # x * x^2 = x^3 = 1 on F_4^*, and q - 2 = 2
        ctx = field_of(4)
        assert parse_poly_expr("x^-1", ctx).coeffs == (0, 0, 1)

    def test_trace_expansion(self):
        ctx = field_of(4)
        assert parse_poly_expr("Tr{1}(x)", ctx).coeffs == (0, 1, 1)

    def test_whitespace_insignificant(self):
        ctx = field_of(5)
        assert parse_poly_expr(" x ^ 3+2 * x ", ctx).coeffs == (0, 2, 0, 1)

    def test_subtraction_and_parens(self):
        ctx = field_of(7)
        p = parse_poly_expr("(x + 3) * (x - 3)", ctx)
        # (x+3)(x-3) = x^2 - 9 = x^2 + 5 over F_7
        assert p.coeffs == (5, 0, 1)

    def test_negative_constant_is_additive_inverse(self):
        ctx = field_of(7)
        assert parse_poly_expr("-3", ctx).coeffs == (4,)

    def test_general_base_negative_exponent(self):
        # pointwise: value^(q-1-k) with zeros preserved
        ctx = field_of(8)
        p = parse_poly_expr("(x + 1)^-1", ctx)
        for x in ctx.elements():
            v = ctx.add(x, 1)
            expected = 0 if v == 0 else ctx.inv(v)
            assert eval_poly(p, x) == expected

    def test_negative_exponent_multiple_of_q_minus_1_keeps_zero(self):
        # x^-k with (q-1) | k is x^(q-1), not the constant 1: 0^-k = 0
        assert tabulate(parse_poly_expr("x^-1", field_of(2))) == [0, 1]
        assert tabulate(parse_poly_expr("x^-6", field_of(7))) == [0] + [1] * 6
        assert tabulate(parse_poly_expr("(x+1)^-1", field_of(2))) == [1, 0]

    def test_huge_exponent_folds(self):
        ctx = field_of(16)
        assert parse_poly_expr("x^16", ctx).coeffs == (0, 1)

    def test_syntax_error_position(self):
        with pytest.raises(PolySyntaxError) as err:
            parse_poly_expr("x + ", field_of(5))
        assert err.value.position == 4

    def test_syntax_error_bad_char(self):
        with pytest.raises(PolySyntaxError):
            parse_poly_expr("y + 1", field_of(5))

    def test_unbalanced_paren(self):
        with pytest.raises(PolySyntaxError):
            parse_poly_expr("(x + 1", field_of(5))

    def test_constant_out_of_range(self):
        with pytest.raises(ConstantOutOfRange):
            parse_poly_expr("7", field_of(5))

    def test_bad_trace_degree(self):
        with pytest.raises(BadTraceDegree):
            parse_poly_expr("Tr{3}(x)", field_of(4))

    def test_trace_nested(self):
        ctx = field_of(16)
        p = parse_poly_expr("Tr{2}(x^2 + x)", ctx)
        for x in ctx.elements():
            v = ctx.add(ctx.mul(x, x), x)
            expected = ctx.add(v, ctx.pow(v, 4))
            assert eval_poly(p, x) == expected


class TestGrammarProperty:
    @given(st.data())
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    def test_parse_matches_pointwise_evaluation(self, data):
        ctx = field_of(data.draw(st.sampled_from(
            (2, 3, 4, 5, 7, 8, 9, 16, 25, 27))))
        text, _, value = data.draw(expressions(ctx))
        assert tabulate(parse_poly_expr(text, ctx)) == \
            [value(x) for x in ctx.elements()], text


class TestEval:
    def test_constant(self):
        ctx = field_of(5)
        p = make_poly(ctx, [3])
        assert all(eval_poly(p, x) == 3 for x in ctx.elements())

    def test_horner_example(self):
        ctx = field_of(5)
        assert eval_poly(parse_poly_expr("x^3 + 2*x", ctx), 1) == 3

    def test_at_zero_gives_constant_term(self):
        ctx = field_of(9)
        p = make_poly(ctx, [4, 1, 7, 2])
        assert eval_poly(p, 0) == 4

    def test_sparse_path_matches_horner(self):
        ctx = field_of(64)
        p = make_poly(ctx, [0] * 60 + [5])  # sparse: one term
        for x in ctx.elements():
            assert eval_poly(p, x) == ctx.mul(5, ctx.pow(x, 60))


class TestEvalMatchesHorner:
    """eval_poly and tabulate sum the nonzero terms in log coordinates;
    Horner's rule over the dense coefficients is the reference."""

    @pytest.mark.parametrize("q", prime_powers(256))
    def test_every_shape(self, q):
        ctx = field_of(q)
        rng = random.Random(q)
        sparse = [0] * q
        for e in rng.sample(range(q), min(q, 3)):
            sparse[e] = rng.randrange(1, q)
        polys = [[], [1], [rng.randrange(1, q)], [0, 1], sparse,
                 [rng.randrange(q) for _ in range(q // 2)],  # dense
                 [rng.randrange(q) for _ in range(q - 1)] + [1],  # degree q-1
                 [0] * (q - 1) + [rng.randrange(1, q)],  # x^(q-1) alone
                 [0] + [rng.randrange(1, q) for _ in range(q - 1)]]
        for coeffs in polys:
            p = make_poly(ctx, coeffs)
            expect = [horner_eval(p, x) for x in ctx.elements()]
            assert tabulate(p) == expect
            assert [eval_poly(p, x) for x in ctx.elements()] == expect
            assert eval_poly(p, 0) == (p.coeffs[0] if p.coeffs else 0)


class TestLinearizedEvalMatchesFrobeniusChain:
    @pytest.mark.parametrize("q,base", [
        (q, ctx.p ** e) for q in prime_powers(729) for ctx in [field_of(q)]
        for e in range(1, ctx.n + 1) if ctx.n % e == 0])
    def test_every_base(self, q, base):
        ctx = field_of(q)
        m = ctx.n // p_power_degree(ctx, base)
        rng = random.Random(q * 31 + base)
        for coeffs in ([0] * m, [1] + [0] * (m - 1),
                       [rng.randrange(q) for _ in range(m)],
                       [rng.randrange(1, q) for _ in range(m)]):
            L = linearized(ctx, base, coeffs)
            assert linearized_tabulate(L) == \
                [frobenius_chain_eval(L, x) for x in ctx.elements()]


class TestLinearizedTabulateFromBasis:
    """linearized_tabulate evaluates L at the basis p^j alone and fills the
    rest by L(x) = L(x - e) + L(e)."""

    @pytest.mark.parametrize("q,base", [(16, 4), (27, 3), (25, 5), (64, 8)])
    def test_evaluates_only_the_basis(self, q, base, monkeypatch):
        import ppinv.poly_expr as poly_expr
        ctx = field_of(q)
        points = []

        def recording_eval(L, x):
            points.append(x)
            return linearized_eval(L, x)

        monkeypatch.setattr(poly_expr, "linearized_eval", recording_eval)
        L = linearized(ctx, base, [3, 1])
        table = linearized_tabulate(L)
        assert points == [ctx.p ** j for j in range(ctx.n)]
        assert table == [frobenius_chain_eval(L, x) for x in ctx.elements()]

    # above the exhaustive cases: a seeded sample against both evaluators
    @pytest.mark.parametrize("q", [1 << 17, 5 ** 7, 7 ** 6])
    def test_seeded_points_large(self, q):
        ctx = field_of(q)
        rng = random.Random(q)
        L = linearized(ctx, ctx.p, [rng.randrange(q) for _ in range(ctx.n)])
        table = linearized_tabulate(L)
        assert len(table) == q
        for x in [0, 1, q - 1] + [rng.randrange(q) for _ in range(300)]:
            assert table[x] == linearized_eval(L, x) == \
                frobenius_chain_eval(L, x)


class TestReduce:
    @pytest.mark.parametrize("q", [4, 5, 8, 9])
    def test_pointwise_preserving(self, q):
        ctx = field_of(q)
        rng = random.Random(q)
        for _ in range(20):
            coeffs = [rng.randrange(q) for _ in range(rng.randrange(1, 3 * q))]
            p = make_poly(ctx, coeffs)
            r = reduce_mod_field(p)
            assert len(r.coeffs) <= q
            for x in ctx.elements():
                assert eval_poly(r, x) == eval_poly(p, x)


class TestFrobenius:
    @pytest.mark.parametrize("q", prime_powers(64))
    def test_pointwise(self, q):
        # degrees up to 2q, so that folded exponents also collide
        ctx = field_of(q)
        rng = random.Random(q + 4)
        for _ in range(4):
            P = make_poly(ctx, [rng.randrange(q)
                                for _ in range(rng.randrange(1, 2 * q))])
            values = tabulate(P)
            for k in range(ctx.n + 1):
                assert tabulate(poly_frob(P, k)) == \
                    [ctx.frob(v, k) for v in values], (P, k)


class TestCompose:
    def test_frobenius_order_two(self):
        ctx = field_of(9)
        x3 = parse_poly_expr("x^3", ctx)
        assert compose(x3, x3).coeffs == (0, 1)

    def test_identity_inner(self):
        ctx = field_of(7)
        p = parse_poly_expr("x^3 + 2*x + 1", ctx)
        assert compose(p, parse_poly_expr("x", ctx)).coeffs == p.coeffs

    def test_binomial(self):
        ctx = field_of(3)
        got = compose(parse_poly_expr("x^2", ctx), parse_poly_expr("x+1", ctx))
        assert got.coeffs == (1, 2, 1)

    def test_ctx_mismatch(self):
        with pytest.raises(CtxMismatch):
            compose(parse_poly_expr("x", field_of(4)),
                    parse_poly_expr("x", field_of(9)))

    @pytest.mark.parametrize("q", [5, 8, 9, 16, 27, 64])
    def test_pointwise_agreement_exhaustive(self, q):
        ctx = field_of(q)
        rng = random.Random(q + 1)
        for _ in range(5):
            outer = make_poly(ctx, [rng.randrange(q) for _ in range(rng.randrange(1, q))])
            inner = make_poly(ctx, [rng.randrange(q) for _ in range(rng.randrange(1, q))])
            c = compose(outer, inner)
            for x in ctx.elements():
                assert eval_poly(c, x) == eval_poly(outer, eval_poly(inner, x))


class TestInterpolate:
    def test_identity(self):
        ctx = field_of(3)
        assert interpolate(ctx, [0, 1, 2]).coeffs == (0, 1)

    def test_constant(self):
        ctx = field_of(5)
        assert interpolate(ctx, [4] * 5).coeffs == (4,)

    def test_scaling(self):
        ctx = field_of(9)
        table = [ctx.mul(2, x) for x in ctx.elements()]
        assert interpolate(ctx, table).coeffs == (0, 2)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            interpolate(field_of(5), [0, 1, 2])

    @pytest.mark.parametrize("q", [4, 5, 8, 9, 16, 27])
    def test_round_trips(self, q):
        ctx = field_of(q)
        rng = random.Random(q + 2)
        # tabulate then interpolate recovers any table
        for _ in range(4):
            table = [rng.randrange(q) for _ in range(q)]
            assert tabulate(interpolate(ctx, table)) == table
        # interpolate of a tabulation is the reduction
        for _ in range(4):
            p = make_poly(ctx, [rng.randrange(q) for _ in range(rng.randrange(1, 2 * q))])
            assert interpolate(ctx, tabulate(p)).coeffs == \
                reduce_mod_field(p).coeffs
        # monomial sweep
        for e in range(q):
            p = monomial(ctx, e)
            assert interpolate(ctx, tabulate(p)).coeffs == \
                reduce_mod_field(p).coeffs


class TestPrinter:
    def test_examples(self):
        ctx = field_of(7)
        assert print_poly(make_poly(ctx, [0, 5])) == "5*x"
        assert print_poly(make_poly(ctx, [])) == "0"
        assert print_poly(make_poly(ctx, [1, 1, 0, 3])) == "1 + x + 3*x^3"

    @pytest.mark.parametrize("q", [4, 5, 9, 16, 27])
    def test_round_trip_exact(self, q):
        ctx = field_of(q)
        rng = random.Random(q + 3)
        for _ in range(25):
            p = make_poly(ctx, [rng.randrange(q) for _ in range(rng.randrange(1, q + 1))])
            assert parse_poly_expr(print_poly(p), ctx).coeffs == p.coeffs


class TestLinearized:
    def test_frobenius_cycle(self):
        # inverse of x^q0 is x^(q0^(m-1))
        ctx = field_of(16)
        L = linearized(ctx, 2, [0, 1])
        inv = linearized_inverse(L)
        assert inv.coeffs == (0, 0, 0, 1)

    def test_scalar(self):
        ctx = field_of(9)
        L = linearized(ctx, 9, [5])  # c*x with whole field as base
        assert linearized_inverse(L).coeffs == (ctx.inv(5),)

    def test_f9_selfinverse(self):
        ctx = field_of(9)
        L = linearized(ctx, 3, [0, 2])  # 2x^3; L(L(x)) = 2*2^3 x^9 = x
        assert linearized_inverse(L).coeffs == (0, 2)

    def test_singular(self):
        ctx = field_of(4)
        with pytest.raises(Singular):
            linearized_inverse(linearized(ctx, 2, [1, 1]))  # x + x^2, kernel F_2

    @pytest.mark.parametrize("q,base", [(16, 2), (16, 4), (27, 3), (64, 4)])
    def test_additive(self, q, base):
        ctx = field_of(q)
        rng = random.Random(q + base)
        for _ in range(5):
            L = linearized(ctx, base,
                           [rng.randrange(q)
                            for _ in range(ctx.n // p_power_degree(ctx, base))])
            for _ in range(30):
                x, y = rng.randrange(q), rng.randrange(q)
                assert linearized_eval(L, ctx.add(x, y)) == \
                    ctx.add(linearized_eval(L, x), linearized_eval(L, y))

    def test_inverse_composes_to_identity(self):
        ctx = field_of(64)
        rng = random.Random(11)
        found = 0
        while found < 6:
            L = linearized(ctx, 4, [rng.randrange(64) for _ in range(3)])
            try:
                inv = linearized_inverse(L)
            except Singular:
                continue
            found += 1
            t, ti = linearized_tabulate(L), linearized_tabulate(inv)
            assert all(ti[t[x]] == x for x in ctx.elements())
            assert all(t[ti[x]] == x for x in ctx.elements())

    @pytest.mark.parametrize("q,base", LINEARIZED_CASES)
    def test_matches_brute_force(self, q, base):
        # Singular exactly when L's table is not a bijection; otherwise the
        # inverse's table is the brute-force inverse of L's table
        ctx = field_of(q)
        m = ctx.n // p_power_degree(ctx, base)
        rng = random.Random(q * 67 + base)
        for _ in range(8):
            coeffs = [rng.randrange(q) if rng.random() < 0.6 else 0
                      for _ in range(m)]
            L = linearized(ctx, base, coeffs)
            table = linearized_tabulate(L)
            if len(set(table)) < q:
                with pytest.raises(Singular):
                    linearized_inverse(L)
                continue
            inv = linearized_inverse(L)
            assert len(inv.coeffs) <= m
            assert linearized_tabulate(inv) == \
                list(brute_inverse(PermTable(ctx, tuple(table))).images)
