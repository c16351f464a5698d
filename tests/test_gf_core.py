"""Field arithmetic: construction, inverse/power conventions, traces,
root-of-unity subgroups and the Bezout helper."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppinv import (LinearizedPoly, build_field, ext_gcd, field_from_json, field_to_json, invert_niu, linearized,
                   linearized_eval, linearized_tabulate, make_kuozhan,
                   mu_subgroup, p_power_degree, parse_poly_expr,
                   subfield_elements)
from ppinv.errors import (NotCoprime, NotDivisor, NotPrime, Reducible,
                          TooLarge)

from helpers import (f_inv, field_of, prime_powers, reference_add,
                     reference_log_tables, reference_mul, reference_neg,
                     reference_pow, rel_trace)

# odd prime powers that are not prime: the fields that add by Zech logarithms
ODD_EXTENSIONS = [q for q in prime_powers(1024)
                  if q % 2 and any(q % d == 0 for d in range(3, q, 2))]


def trace(ctx, d):
    """The library's table of the relative trace onto the degree-d
    subfield: the linearized polynomial sum of x^(p^(d*i)) for i < n/d."""
    L = linearized(ctx, ctx.p ** d, [1] * (ctx.n // d))
    return linearized_tabulate(L)


class TestBuildField:
    def test_q_is_p_to_the_n(self):
        assert build_field(2, 4).q == 16

    def test_explicit_modulus_f9(self):
        # t^2 + 1 has no root in F_3 (1, 2, 2), hence irreducible
        ctx = build_field(3, 2, [1, 0, 1])
        assert ctx.q == 9 and ctx.modulus == (1, 0, 1)

    def test_prime_field_modulus_is_x(self):
        assert build_field(5, 1).modulus == (0, 1)

    def test_default_modulus_is_lex_least(self):
        # over F_2 the degree-4 candidates in low-to-high lex order are
        # 1+x^4 (reducible) then 1+x^3+x^4 (irreducible)
        assert build_field(2, 4).modulus == (1, 0, 0, 1, 1)

    def test_default_modulus_reproducible(self):
        assert build_field(3, 3).modulus == build_field(3, 3).modulus

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            build_field(6, 1)

    def test_reducible_modulus(self):
        with pytest.raises(Reducible):
            build_field(2, 2, [1, 0, 1])  # (x+1)^2

    def test_too_large(self):
        with pytest.raises(TooLarge):
            build_field(2, 21)

    @pytest.mark.parametrize("p,n", [(2 ** 61 - 1, 1), (2 ** 61 + 1, 1),
                                     (3, 10 ** 8), (2, 10 ** 8),
                                     ((1 << 20) + 7, 1)])
    def test_bound_tested_before_primality_and_power(self, p, n):
        # no trial division of a huge p and no p ** n for a huge n: a huge
        # composite p is TooLarge, not NotPrime
        with pytest.raises(TooLarge):
            build_field(p, n)

    @pytest.mark.parametrize("p,n", [(1, 10 ** 8), (0, 3), (-3, 20),
                                     (-7, 10 ** 8)])
    def test_no_prime_below_two(self, p, n):
        with pytest.raises(NotPrime):
            build_field(p, n)

    def test_json_round_trip(self):
        ctx = build_field(2, 3)
        assert field_from_json(field_to_json(ctx)) == ctx


class TestInverseAndPow:
    def test_zero_maps_to_zero(self):
        assert f_inv(field_of(9), 0) == 0

    def test_one(self):
        assert f_inv(field_of(9), 1) == 1

    def test_f5_inverse_of_two(self):
        ctx = field_of(5)
        expected = next(y for y in range(1, 5) if (2 * y) % 5 == 1)
        assert f_inv(ctx, 2) == expected == 3

    @pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 16, 25, 27])
    def test_inverse_law(self, q):
        ctx = field_of(q)
        for x in ctx.units():
            assert ctx.mul(x, f_inv(ctx, x)) == 1

    def test_pow_zero_exponent(self):
        ctx = field_of(9)
        for x in ctx.units():
            assert ctx.pow(x, 0) == 1

    def test_pow_negative(self):
        ctx = field_of(7)
        assert ctx.pow(3, -1) == 5  # 3*5 = 15 = 1 mod 7

    def test_pow_zero_base(self):
        ctx = field_of(7)
        assert ctx.pow(0, 5) == 0
        assert ctx.pow(0, -3) == 0
        assert ctx.pow(0, 0) == 1  # by design decision

    @given(st.integers(-200, 200), st.integers(-200, 200))
    @settings(max_examples=60, deadline=None)
    def test_pow_is_homomorphic_on_units(self, e1, e2):
        ctx = field_of(9)
        for x in (1, 2, 5, 8):
            assert ctx.mul(ctx.pow(x, e1), ctx.pow(x, e2)) == \
                ctx.pow(x, e1 + e2)


class TestFieldAxioms:
    @pytest.mark.parametrize("q", [4, 5, 8, 9, 25, 27])
    def test_axioms_exhaustive(self, q):
        ctx = field_of(q)
        elems = range(ctx.q)
        for x, y in itertools.product(elems, repeat=2):
            assert ctx.add(x, y) == ctx.add(y, x)
            assert ctx.mul(x, y) == ctx.mul(y, x)
        for x, y, z in itertools.product(elems, repeat=3):
            assert ctx.add(ctx.add(x, y), z) == ctx.add(x, ctx.add(y, z))
            assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
            assert ctx.mul(x, ctx.add(y, z)) == \
                ctx.add(ctx.mul(x, y), ctx.mul(x, z))

    @pytest.mark.parametrize("q", [16, 32, 64])
    def test_axioms_randomized(self, q):
        ctx = field_of(q)
        rng = random.Random(q)
        for _ in range(4000):
            x, y, z = (rng.randrange(q) for _ in range(3))
            assert ctx.add(ctx.add(x, y), z) == ctx.add(x, ctx.add(y, z))
            assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
            assert ctx.mul(x, ctx.add(y, z)) == \
                ctx.add(ctx.mul(x, y), ctx.mul(x, z))

    @pytest.mark.parametrize("q", [4, 9, 25, 27, 64])
    def test_frobenius_additive(self, q):
        ctx = field_of(q)
        p = ctx.p
        for x, y in itertools.product(range(q), repeat=2):
            assert ctx.pow(ctx.add(x, y), p) == \
                ctx.add(ctx.pow(x, p), ctx.pow(y, p))

    def test_identities(self):
        ctx = field_of(27)
        for x in ctx.elements():
            assert ctx.add(x, 0) == x
            assert ctx.mul(x, 1) == x
            assert ctx.add(x, ctx.neg(x)) == 0


class TestLargeFieldRawPath:
    def test_arithmetic_without_tables(self):
        # above 2^16 elements the table arithmetic must satisfy the same
        # identities as below
        ctx = build_field(2, 17)
        for x in (1, 2, 12345, 99999, 131071):
            assert ctx.mul(x, f_inv(ctx, x)) == 1
            assert ctx.add(x, ctx.neg(x)) == 0
            assert ctx.pow(x, ctx.q - 1) == 1
        assert trace(ctx, 1)[54321] == rel_trace(ctx, 1, 54321) in (0, 1)


class TestOneTablePath:
    """Every field up to the enumeration bound has exp/log tables; they and
    the arithmetic read from them agree with the digit-vector reference."""

    # GF(127^2) and GF(131^2) lie on either side of the byte bound of the
    # walk in FieldCtx._build_log_tables
    @pytest.mark.parametrize("q", prime_powers(1024) + [1 << 12, 1 << 16,
                                                        127 ** 2, 131 ** 2])
    def test_tables_match_reference(self, q):
        ctx = field_of(q)
        assert (ctx._exp, ctx._log) == reference_log_tables(ctx)

    @pytest.mark.parametrize("n", [4, 16, 17, 20])
    def test_char2_raw_mul_matches_reference(self, n):
        ctx = field_of(1 << n)
        rng = random.Random(n)
        for _ in range(300):
            a, b = rng.randrange(ctx.q), rng.randrange(ctx.q)
            assert ctx._raw_mul(a, b) == reference_mul(ctx, a, b)

    @pytest.mark.parametrize("q", [1 << 17, 1 << 20, 5 ** 7, 7 ** 6])
    def test_above_old_table_limit(self, q):
        ctx = field_of(q)
        exp, log = ctx._exp, ctx._log
        assert len(exp) == q - 1
        assert all(log[exp[i]] == i for i in range(q - 1))
        rng = random.Random(q)
        for _ in range(200):
            a, b = rng.randrange(q), rng.randrange(1, q)
            e = rng.randrange(-2 * q, 2 * q)
            assert ctx.mul(a, b) == reference_mul(ctx, a, b)
            assert reference_mul(ctx, b, ctx.inv(b)) == 1
            assert ctx.pow(b, e) == reference_pow(ctx, b, e % (q - 1))


class TestZech:
    """Odd extension fields add, subtract and negate by Zech logarithms;
    each agrees with the digit-wise reference it replaced."""

    @staticmethod
    def _check(ctx, a, b):
        assert ctx.add(a, b) == reference_add(ctx, a, b), (a, b)
        assert ctx.sub(a, b) == reference_add(ctx, a, reference_neg(ctx, b))

    @pytest.mark.parametrize("q", [q for q in ODD_EXTENSIONS if q <= 243])
    def test_exhaustive(self, q):
        ctx = field_of(q)
        assert ctx._zech == [ctx._log[reference_add(ctx, 1, x)]
                             for x in ctx._exp]
        for a in range(q):
            assert ctx.neg(a) == reference_neg(ctx, a)
            for b in range(q):
                self._check(ctx, a, b)

    @pytest.mark.parametrize("q", [3, 5, 7, 31, 257])
    def test_prime_fields(self, q):
        # no Zech table here: sub is arithmetic mod p
        ctx = field_of(q)
        for a in range(q):
            for b in range(q):
                self._check(ctx, a, b)

    @pytest.mark.parametrize("q", ODD_EXTENSIONS)
    def test_every_element(self, q):
        # b = -a is the slot where 1 + b/a = 0 and the Zech entry is -1
        ctx = field_of(q)
        rng = random.Random(q)
        for a in range(q):
            minus_a = reference_neg(ctx, a)
            assert ctx.neg(a) == minus_a
            for b in [0, a, minus_a] + [rng.randrange(q) for _ in range(4)]:
                self._check(ctx, a, b)

    @pytest.mark.parametrize("q", [5 ** 7, 7 ** 6])
    def test_seeded_pairs_large(self, q):
        ctx = field_of(q)
        rng = random.Random(q)
        for _ in range(2000):
            a, b = rng.randrange(q), rng.randrange(q)
            self._check(ctx, a, b)
            assert ctx.neg(a) == reference_neg(ctx, a)

    @pytest.mark.parametrize("q", [31, 64])
    def test_other_branches_unchanged(self, q):
        # prime fields add mod p and 2^k fields by XOR, with no Zech table
        ctx = field_of(q)
        assert ctx._zech is None
        for a in range(q):
            assert ctx.neg(a) == reference_neg(ctx, a)
            for b in range(q):
                self._check(ctx, a, b)


class TestRelTrace:
    """The library trace, :func:`trace`, against the Frobenius-chain
    reference :func:`helpers.rel_trace` and the defining power sum."""

    def test_f4_trace_of_one(self):
        ctx = field_of(4)
        assert trace(ctx, 1)[1] == ctx.add(1, ctx.mul(1, 1)) == 0

    def test_f9_trace_of_two(self):
        ctx = field_of(9)
        # 2 + 2^3 computed independently
        assert trace(ctx, 1)[2] == ctx.add(2, ctx.pow(2, 3)) == 1

    def test_trace_of_zero(self):
        for q in (4, 9, 16, 27):
            assert trace(field_of(q), 1)[0] == 0

    @pytest.mark.parametrize("q,d", [(16, 1), (16, 2), (64, 2), (64, 3),
                                     (27, 1), (25, 1)])
    def test_trace_matches_power_sum(self, q, d):
        ctx = field_of(q)
        tr = trace(ctx, d)
        for x in ctx.elements():
            acc = 0
            for i in range(ctx.n // d):
                acc = ctx.add(acc, ctx.pow(x, ctx.p ** (d * i)))
            assert tr[x] == rel_trace(ctx, d, x) == acc

    @pytest.mark.parametrize("q,d", [(16, 2), (64, 3), (27, 1)])
    def test_trace_linear_and_frobenius_invariant(self, q, d):
        ctx = field_of(q)
        sub = subfield_elements(ctx, d)
        tr = trace(ctx, d)
        for x in ctx.elements():
            assert tr[ctx.frob(x, d)] == tr[x]
            for c in sub:
                assert tr[ctx.mul(c, x)] == ctx.mul(c, tr[x])

    @pytest.mark.parametrize("q,d", [(16, 1), (16, 2), (64, 2), (9, 1)])
    def test_trace_surjective_onto_subfield(self, q, d):
        ctx = field_of(q)
        assert set(trace(ctx, d)) == set(subfield_elements(ctx, d))


class TestMuSubgroup:
    def test_trivial(self):
        assert mu_subgroup(field_of(7), 1) == (1,)

    def test_f7_order_two(self):
        ctx = field_of(7)
        expected = tuple(x for x in range(1, 7) if (x * x) % 7 == 1)
        assert mu_subgroup(ctx, 2) == expected == (1, 6)

    def test_f7_order_three(self):
        ctx = field_of(7)
        expected = tuple(x for x in range(1, 7) if (x ** 3) % 7 == 1)
        assert mu_subgroup(ctx, 3) == expected == (1, 2, 4)

    def test_not_divisor(self):
        with pytest.raises(NotDivisor):
            mu_subgroup(field_of(7), 4)

    @pytest.mark.parametrize("q", [9, 16, 25, 64])
    def test_kernel_and_closure(self, q):
        ctx = field_of(q)
        for ell in range(1, q):
            if (q - 1) % ell:
                continue
            mu = mu_subgroup(ctx, ell)
            assert len(mu) == ell
            members = set(mu)
            assert members == {x for x in ctx.units() if ctx.pow(x, ell) == 1}
            for a in members:
                for b in members:
                    assert ctx.mul(a, b) in members


class TestExtGcd:
    def test_example(self):
        assert ext_gcd(2, 3) == (2, -1)  # 2*2 - 3 = 1

    def test_r_one(self):
        assert ext_gcd(3, 1) == (0, 1)
        assert ext_gcd(1, 1) == (0, 1)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            ext_gcd(4, 6)

    @given(st.integers(1, 10 ** 9), st.integers(1, 10 ** 9))
    @settings(max_examples=300, deadline=None)
    def test_bezout_identity(self, s, r):
        if math.gcd(s, r) != 1:
            with pytest.raises(NotCoprime):
                ext_gcd(s, r)
            return
        a, b = ext_gcd(s, r)
        assert a * s + b * r == 1
        assert 0 <= a < r


class TestPPowerDegree:
    def test_degrees(self):
        assert p_power_degree(field_of(16), 4) == 2
        assert p_power_degree(field_of(9), 9) == 2
        assert p_power_degree(field_of(7), 7) == 1

    @pytest.mark.parametrize("q,base", [(9, 6), (9, 1), (16, 1), (16, 8)])
    def test_rejected_everywhere(self, q, base):
        # 6 is not a power of 3, 1 = p^0 names no subfield, 3 does not divide 4
        ctx = field_of(q)
        g = parse_poly_expr("x", ctx)
        calls = [lambda: p_power_degree(ctx, base),
                 lambda: linearized(ctx, base, [1]),
                 lambda: linearized_eval(LinearizedPoly(ctx, base, (1,)), 1),
                 lambda: invert_niu(ctx, base, g, 1, 1, 0)]
        if ctx.p == 2:
            calls.append(lambda: make_kuozhan(ctx, base, 1, 1, 1))
        for call in calls:
            with pytest.raises(ValueError, match="is not a power of p"):
                call()
