"""Shared field cache and seeded instance generators for the test suite.

Generators produce family instances whose hypotheses hold by construction
(trace maps, subfield-coefficient polynomials), then let the constructors
re-validate everything; invalid draws are simply discarded, so every suite
run over a fixed seed sees the same instances.

:func:`lagrange_interpolate` is the O(q^2) Lagrange interpolation that
``ppinv.interpolate`` used before it read the coefficients off a Fourier
transform; the differential tests compare the two.  :func:`reference_mul`
is the schoolbook product on base-p digit vectors that ``FieldCtx`` once
used for every operation above 2^16 elements, and
:func:`reference_log_tables` the exp/log tables built from it;
:func:`reference_add` and :func:`reference_neg` are the digit-wise sum and
negation that odd extension fields used before Zech logarithms.  The field
tests compare the table arithmetic with them.

:func:`reference_additive` and :func:`reference_translator` are the
full pairwise premise checks, O(q^2) and O(|S| q), that ``add_family``,
``translator_family`` and ``make_zero_translator`` made before they checked
only a basis; the differential tests compare the verdicts.

:func:`horner_eval` and :func:`frobenius_chain_eval` are the pointwise
evaluations that ``eval_poly`` and ``linearized_eval`` made before both
summed the nonzero terms in log coordinates.  :func:`rel_trace` is the
Frobenius-chain trace the library kept beside ``linearized`` until it took
every trace through it; the tests use it as the reference trace.

:func:`identity_table`, :func:`compose_tables`, :func:`is_identity`,
:func:`f_inv` and :func:`compose` are small map and polynomial helpers that
only the tests use.  :func:`expressions` draws random expression trees
together with a pointwise evaluator that shares no code with the parser.
"""

import math
import random
from functools import lru_cache

from hypothesis import strategies as st

from ppinv import (PermTable, add_family, agw_diagram, build_field,
                   hybrid_family, make_poly, mul_family, niu_family,
                   p_power_degree, subfield_elements, translator_family)
from ppinv.errors import CtxMismatch, LengthMismatch, PPInvError
from ppinv.poly_expr import (constant, poly_add, poly_mul, reduce_mod_field,
                             zero)

ACCEPTANCE_FIELDS = (4, 5, 7, 8, 9, 16, 25, 27, 32, 64)


@lru_cache(maxsize=None)
def field_of(q):
    p = 2
    while q % p:
        p += 1
    n, m = 0, q
    while m % p == 0:
        m //= p
        n += 1
    assert m == 1, f"{q} is not a prime power"
    return build_field(p, n)


def prime_powers(bound):
    """Every prime power q with 2 <= q <= bound, ascending."""
    out = []
    for q in range(2, bound + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        m = q
        while m % p == 0:
            m //= p
        if m == 1:
            out.append(q)
    return out


def lagrange_interpolate(ctx, table):
    """The unique polynomial of degree < q through a full value table
    (Lagrange with on-the-fly denominators; O(q^2))."""
    q = ctx.q
    if len(table) != q:
        raise LengthMismatch(f"table has length {len(table)}, expected q = {q}")
    for v in table:
        if not 0 <= v < q:
            raise ValueError(f"table value {v} out of range")
    # master polynomial M = x^q - x; basis numerators by synthetic division
    m = [0] * (q + 1)
    m[q] = 1
    m[1] = ctx.neg(1)
    acc = [0] * q
    for a, target in enumerate(table):
        if target == 0:
            continue
        quot = [0] * q
        quot[q - 1] = m[q]
        for k in range(q - 1, 0, -1):
            quot[k - 1] = ctx.add(m[k], ctx.mul(a, quot[k]))
        den = 0
        for c in reversed(quot):
            den = ctx.add(ctx.mul(den, a), c)
        scale = ctx.div(target, den)
        for j in range(q):
            if quot[j]:
                acc[j] = ctx.add(acc[j], ctx.mul(scale, quot[j]))
    return make_poly(ctx, acc)


def reference_add(ctx, a, b):
    """a + b by adding the base-p digit vectors coefficient-wise."""
    if ctx.p == 2:
        return a ^ b
    if ctx.n == 1:
        return (a + b) % ctx.p
    da, db = ctx.digits(a), ctx.digits(b)
    p = ctx.p
    return ctx.pack([(u + v) % p for u, v in zip(da, db)])


def reference_neg(ctx, a):
    """-a by negating each base-p digit."""
    if ctx.p == 2:
        return a
    if ctx.n == 1:
        return (-a) % ctx.p
    p = ctx.p
    return ctx.pack([(-u) % p for u in ctx.digits(a)])


def reference_mul(ctx, a, b):
    """a*b by multiplying the base-p digit vectors and reducing by the
    modulus, one coefficient at a time."""
    if a == 0 or b == 0:
        return 0
    p, n = ctx.p, ctx.n
    if n == 1:
        return (a * b) % p
    da, db = ctx.digits(a), ctx.digits(b)
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(da):
        if ai:
            for j, bj in enumerate(db):
                if bj:
                    prod[i + j] = (prod[i + j] + ai * bj) % p
    mod = ctx.modulus
    for i in range(2 * n - 2, n - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(n):
                prod[i - n + j] = (prod[i - n + j] - c * mod[j]) % p
    return ctx.pack(prod[:n])


def reference_pow(ctx, x, e):
    """x^e for e >= 0 by square-and-multiply over :func:`reference_mul`."""
    acc = 1
    while e:
        if e & 1:
            acc = reference_mul(ctx, acc, x)
        x = reference_mul(ctx, x, x)
        e >>= 1
    return acc


def reference_log_tables(ctx):
    """exp/log tables for the least primitive element >= 2, walked with
    :func:`reference_mul` (log[0] = -1)."""
    q = ctx.q
    if q == 2:
        return [1], [-1, 0]
    m, d, fac = q - 1, 2, set()
    while m > 1:
        if m % d:
            d += 1
        else:
            fac.add(d)
            m //= d
    gen = next(g for g in range(2, q)
               if all(reference_pow(ctx, g, (q - 1) // f) != 1 for f in fac))
    exp, log = [1] * (q - 1), [-1] * q
    cur = 1
    for i in range(q - 1):
        exp[i] = cur
        log[cur] = i
        cur = reference_mul(ctx, cur, gen)
    return exp, log


def reference_additive(ctx, table):
    """The first (x, y), x-major, with table[x + y] != table[x] + table[y],
    or None when the table is additive on every pair."""
    for x in ctx.elements():
        for y in ctx.elements():
            if table[ctx.add(x, y)] != ctx.add(table[x], table[y]):
                return x, y
    return None


def reference_translator(ctx, lam, gamma, b, S):
    """The first (x, u), u ascending in S, with
    lam[x + u*gamma] != lam[x] + u*b, or None when gamma is a b-linear
    translator of lam for every u in S."""
    for u in sorted(S):
        for x in ctx.elements():
            if (lam[ctx.add(x, ctx.mul(u, gamma))]
                    != ctx.add(lam[x], ctx.mul(u, b))):
                return x, u
    return None


def horner_eval(p, x):
    """p(x) by Horner's rule over the dense coefficients."""
    ctx = p.ctx
    acc = 0
    for c in reversed(p.coeffs):
        acc = ctx.add(ctx.mul(acc, x), c)
    return acc


def frobenius_chain_eval(L, x):
    """L(x) = sum of c_i * x^(q0^i), each x^(q0^i) the Frobenius x -> x^q0
    applied to the one before."""
    ctx = L.ctx
    d = p_power_degree(ctx, L.base)
    acc, cur = 0, x
    for c in L.coeffs:
        acc = ctx.add(acc, ctx.mul(c, cur))
        cur = ctx.frob(cur, d)
    return acc


def rel_trace(ctx, d, x):
    """The relative trace of x onto the degree-d subfield: the sum of
    x^(p^(d*i)) for i < n/d, each term the Frobenius of the one before."""
    acc, cur = 0, x
    for _ in range(ctx.n // d):
        acc = ctx.add(acc, cur)
        cur = ctx.frob(cur, d)
    return acc


def identity_table(ctx):
    return PermTable(ctx, tuple(ctx.elements()))


def compose_tables(outer, inner):
    """(outer o inner)(x) = outer[inner[x]]."""
    if outer.ctx != inner.ctx:
        raise CtxMismatch("tables belong to different fields")
    return PermTable(outer.ctx, tuple(outer.images[y] for y in inner.images))


def is_identity(t):
    return all(y == x for x, y in enumerate(t.images))


def f_inv(ctx, x):
    """x^(q-2): the multiplicative inverse for x != 0, with 0 mapped to 0."""
    return 0 if x == 0 else ctx.inv(x)


def compose(outer, inner):
    """outer(inner(x)) reduced mod x^q - x, by Horner's rule."""
    if outer.ctx != inner.ctx:
        raise CtxMismatch("polynomials belong to different fields")
    ctx = outer.ctx
    acc = zero(ctx)
    inner = reduce_mod_field(inner)
    for c in reversed(outer.coeffs):
        acc = reduce_mod_field(poly_add(poly_mul(acc, inner),
                                        constant(ctx, c)))
    return acc


def expressions(ctx):
    """Hypothesis strategy of random expression trees over ctx.

    Each tree is drawn as (text, level, value): its text in the grammar,
    the precedence level of its outermost rule (0 a sum or difference,
    1 a product, 2 a power, 3 an atom), and its value at an element x,
    computed pointwise with ``ctx.neg/add/sub/mul/pow`` and ``rel_trace``.
    Parentheses appear where precedence needs them and, at random, where
    it does not; spaces appear at random around operators.
    """
    q, n = ctx.q, ctx.n
    space = st.sampled_from(["", " "])
    # multiples of q - 1 are where 0^-k = 0 and the folding x^q = x show
    exponents = st.one_of(st.integers(-2 * q, 3 * q),
                          st.integers(-3, 3).map(lambda k: k * (q - 1)))

    def paren(tree, level):
        text, lvl, _ = tree
        return text if lvl >= level else f"({text})"

    def const(v):
        return str(v), 3, lambda x: v if v >= 0 else ctx.neg(-v)

    def sum_(args):
        op, a, b, w = args
        fn = ctx.add if op == "+" else ctx.sub
        return (f"{paren(a, 0)}{w}{op}{w}{paren(b, 1)}", 0,
                lambda x: fn(a[2](x), b[2](x)))

    def product(args):
        a, b, w = args
        return (f"{paren(a, 1)}{w}*{w}{paren(b, 2)}", 1,
                lambda x: ctx.mul(a[2](x), b[2](x)))

    def power(args):
        # ctx.pow has 0^0 = 1 and 0^-k = 0, the grammar's conventions
        a, e, w = args
        return (f"{paren(a, 3)}{w}^{w}{e}", 2,
                lambda x: ctx.pow(a[2](x), e))

    def trace(args):
        d, a = args
        return f"Tr{{{d}}}({a[0]})", 3, lambda x: rel_trace(ctx, d, a[2](x))

    def extend(trees):
        return st.one_of(
            st.tuples(st.sampled_from("+-"), trees, trees, space).map(sum_),
            st.tuples(trees, trees, space).map(product),
            st.tuples(trees, exponents, space).map(power),
            st.tuples(st.sampled_from(divisors(n)), trees).map(trace),
            trees.map(lambda t: (f"({t[0]})", 3, t[2])))

    leaves = st.one_of(st.just(("x", 3, lambda x: x)),
                       st.integers(1 - q, q - 1).map(const))
    return st.recursive(leaves, extend, max_leaves=10)


def divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


@lru_cache(maxsize=None)
def trace_table(ctx, d):
    return tuple(rel_trace(ctx, d, x) for x in ctx.elements())


@lru_cache(maxsize=None)
def trace_kernel(ctx, d):
    t = trace_table(ctx, d)
    return tuple(x for x in ctx.elements() if t[x] == 0)


def is_inverse_pair(ctx, f_table, inv):
    return (all(inv[f_table[x]] == x for x in ctx.elements())
            and all(f_table[inv[x]] == x for x in ctx.elements()))


def random_poly(ctx, rng, max_deg, nonzero=False, coeff_bound=None):
    bound = coeff_bound or ctx.q
    while True:
        coeffs = [rng.randrange(bound) for _ in range(rng.randrange(max_deg + 1) + 1)]
        if nonzero and not any(coeffs):
            continue
        return make_poly(ctx, coeffs)


def mul_instances(ctx, rng, want):
    q = ctx.q
    divs = [s for s in range(1, q) if (q - 1) % s == 0]
    out = []
    attempts = 0
    while len(out) < want and attempts < want * 80:
        attempts += 1
        s = rng.choice(divs)
        r = rng.randrange(1, q)
        if math.gcd(r, s) != 1:
            continue
        h = random_poly(ctx, rng, 3, nonzero=True)
        try:
            out.append(mul_family(ctx, r, s, h))
        except PPInvError:
            continue
    return out


def linearized_table(ctx, coeffs):
    """Table of sum c_j x^(p^j); coefficients indexed by Frobenius power."""
    out = []
    for x in ctx.elements():
        acc = 0
        cur = x
        for c in coeffs:
            if c:
                acc = ctx.add(acc, ctx.mul(c, cur))
            cur = ctx.frob(cur, 1)
        out.append(acc)
    return out


def add_instances(ctx, rng, want):
    out = []
    degs = divisors(ctx.n)
    attempts = 0
    while len(out) < want and attempts < want * 80:
        attempts += 1
        d = rng.choice(degs)
        lam = trace_table(ctx, d)
        sub = subfield_elements(ctx, d)
        kernel = trace_kernel(ctx, d)
        # g with subfield coefficients commutes with the trace
        coeffs = [rng.choice(sub) for _ in range(ctx.n)]
        g = linearized_table(ctx, coeffs)
        if len(set(g)) != ctx.q:
            continue
        g0 = {s: rng.choice(kernel) for s in set(lam)}
        out.append(add_family(ctx, g, g0, lam, lam))
    return out


def hybrid_instances(ctx, rng, want, require_invertible=True):
    out = []
    attempts = 0
    while len(out) < want and attempts < want * 120:
        attempts += 1
        m = rng.choice((1, 2, 3))
        lam = [rel_trace(ctx, 1, ctx.pow(x, m)) for x in ctx.elements()]
        k = make_poly(ctx, [0] * m + [1])
        h = random_poly(ctx, rng, 2, coeff_bound=ctx.p)
        if not h.coeffs or h.coeffs[0] == 0:
            continue
        try:
            fam = hybrid_family(ctx, h, k, lam, list(range(ctx.p)))
        except PPInvError:
            continue
        if require_invertible and len(set(fam.g_map.values())) < len(fam.g_map):
            continue
        out.append(fam)
    return out


def translator_instances(ctx, rng, want, require_invertible=True):
    out = []
    degs = divisors(ctx.n)
    attempts = 0
    while len(out) < want and attempts < want * 120:
        attempts += 1
        d = rng.choice(degs)
        lam = trace_table(ctx, d)
        sub = subfield_elements(ctx, d)
        gamma = rng.randrange(1, ctx.q)
        b = lam[gamma]
        G = make_poly(ctx, [rng.choice(sub) for _ in range(rng.randrange(3) + 1)])
        try:
            fam = translator_family(ctx, lam, gamma, b, G)
        except PPInvError:
            continue
        if require_invertible and len(set(fam.g_map.values())) < len(fam.g_map):
            continue
        out.append(fam)
    return out


def niu_instances(ctx, rng, want):
    """Records of f(x) = g(x^{q0^i} - x + delta) + c*x over every
    subfield base q0 = p^e with e < n, c drawn from GF(q0^gcd(i, m))^*;
    whether f permutes the field is left to the draw (none for n = 1)."""
    bases = [e for e in divisors(ctx.n) if e < ctx.n]
    out = []
    while bases and len(out) < want:
        e = rng.choice(bases)
        m = ctx.n // e
        i = rng.randrange(1, m)
        c = rng.choice(subfield_elements(ctx, e * math.gcd(i, m))[1:])
        g = random_poly(ctx, rng, 3)
        out.append(niu_family(ctx, ctx.p ** e, g, i, c, rng.randrange(ctx.q)))
    return out


def diagram_instances(ctx, rng, count, bijective):
    """Commutative diagrams over the trace to the prime subfield; the
    non-bijective half alternates between a collapsed g and an in-fiber
    collision of f."""
    lam = trace_table(ctx, 1)
    S = sorted(set(lam))
    fibers = {}
    for x in ctx.elements():
        fibers.setdefault(lam[x], []).append(x)
    out = []
    for index in range(count):
        S_perm = S[:]
        rng.shuffle(S_perm)
        g = dict(zip(S, S_perm))
        if bijective:
            f = [0] * ctx.q
            for s, xs in fibers.items():
                targets = fibers[g[s]][:]
                rng.shuffle(targets)
                for x, y in zip(xs, targets):
                    f[x] = y
        elif index % 2 == 0:
            values = [rng.choice(S) for _ in S]
            values[0] = values[-1]  # forced duplicate: g not bijective
            g = dict(zip(S, values))
            f = [rng.choice(fibers[g[lam[x]]]) for x in ctx.elements()]
        else:
            f = [0] * ctx.q
            for s, xs in fibers.items():
                targets = fibers[g[s]][:]
                rng.shuffle(targets)
                for x, y in zip(xs, targets):
                    f[x] = y
            xs = max(fibers.values(), key=len)
            f[xs[0]] = f[xs[1]]  # in-fiber collision: f not injective there
        out.append(agw_diagram(ctx, f, lam, lam, g, S, S))
    return out
