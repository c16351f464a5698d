"""Inverse construction for the five families of AGW permutation
polynomials, plus the generic commutative-square pipeline they specialize.

Each family constructor validates its hypotheses and freezes a record with
the same four parts: ``ctx``, the forward table ``f_table``, the induced
small-set map ``g_map`` (named ``g_label`` in rejections) and ``lift``,
which turns an inverse H of ``g_map`` into the whole inverse table.
Closure under addition checks the premises quantified over pairs:
lambda_bar is additive iff lambda_bar(x) = lambda_bar(x - e) +
lambda_bar(e) for x >= 1, e the place of x's top base-p digit, and gamma is
a b-linear translator for all u in S iff for an F_p-basis of span(S) drawn
from S.  The involution constructors share that scan,
:func:`_check_translator`, and the maps-into scan :func:`_values_in`.  One
:func:`invert` serves every record: it finds H = g^{-1} once, by brute
force over the small set, which is the whole point of the reduction, lifts
H to F and certifies the table against ``f_table`` by
:func:`ppinv.perm_core.certify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (BPlusOneZero, ConditionFail, GammaZero, HVanishes,
                     HVanishesOnImage, LambdaZero, NotCoprime, NotDivisor,
                     NotInjectivePhi, NotInSubfield, NotTranslator,
                     SquareDoesNotCommute)
from .gf_core import (FieldCtx, check_int, check_ints, check_object, ext_gcd,
                      field_from_json, mu_subgroup, p_power_degree)
from .perm_core import (MapLike, PermTable, _map_of_pairs, _materialize,
                        _small_inverse, brute_inverse, certify)
from .poly_expr import (PolyFq, eval_poly, interpolate, linearized,
                        linearized_tabulate, parse_poly_expr, tabulate)


def _span_basis(ctx: FieldCtx, elems: Iterable[int]) -> list:
    """The members of ``elems``, in order, outside the F_p-span of those
    before them: an F_p-basis of span(elems) drawn from ``elems``.

    Gaussian elimination on the base-p digits: each row is a reduced
    vector whose leading digit is 1, keyed by that digit's place value."""
    p, basis, rows = ctx.p, [], []
    for u in elems:
        v = u
        for place, row in rows:  # descending: a cleared digit stays cleared
            d = v // place % p
            if d:
                v = ctx.sub(v, ctx.mul(d, row))
        if v:
            place = 1
            while place * p <= v:
                place *= p
            rows.append((place, ctx.mul(ctx.inv(v // place), v)))
            rows.sort(reverse=True)
            basis.append(u)
            if len(basis) == ctx.n:
                break
    return basis


def _check_translator(ctx: FieldCtx, lam: Sequence[int], gamma: int, b: int,
                      elems: Iterable[int]):
    """Raise NotTranslator unless lam(x + u*gamma) = lam(x) + u*b for every
    x and every u in elems.  The u that satisfy the law for every x are
    closed under addition, so an F_p-basis of span(elems) checks them all."""
    for u in _span_basis(ctx, elems):
        ug = ctx.mul(u, gamma)
        ub = ctx.mul(u, b)
        for x in ctx.elements():
            if lam[ctx.add(x, ug)] != ctx.add(lam[x], ub):
                raise NotTranslator(
                    f"lambda(x + u*gamma) != lambda(x) + u*b at "
                    f"(x, u) = ({x}, {u})", witness=(x, u))


def _values_in(poly: PolyFq, domain: Iterable[int], target: Iterable[int],
               message: str) -> dict:
    """{y: poly(y)} over domain, once every value lies in target; otherwise
    ConditionFail with ``message.format(y)`` for the first y that leaves."""
    target = set(target)
    values = {}
    for y in domain:
        v = eval_poly(poly, y)
        if v not in target:
            raise ConditionFail(message.format(y), witness=y)
        values[y] = v
    return values


def invert(fam) -> PermTable:
    """f^{-1} of a family record: H = g^{-1} on the small set, lifted to F
    by ``fam.lift`` and certified against ``fam.f_table``.  A ``g_map``
    that is no bijection raises NotPermutation at its first collision."""
    H = _small_inverse(fam.g_map, fam.g_label)
    return certify(fam.f_table, PermTable(fam.ctx, tuple(fam.lift(H))))


# the family-named entry points, kept for callers that name the family
invert_multiplicative = invert_additive = invert_hybrid_scale = \
    invert_translator = invert


# multiplicative family: f(x) = x^r h(x^s)

@dataclass(frozen=True)
class MulFamily:
    """Parameters of f(x) = x^r h(x^s) with s | q-1 and gcd(r, s) = 1,
    together with g(z) = z^r h(z)^s on the (q-1)/s-th roots of unity and the
    Bezout pair a*s + b*r = 1 normalized to 0 <= a < r."""

    ctx: FieldCtx
    r: int
    s: int
    h: PolyFq
    ell: int
    mu: tuple
    a: int
    b: int
    h_on_mu: Mapping
    g_map: Mapping
    f_table: tuple
    g_label = "g on mu_ell"

    def lift(self, H: Mapping) -> list:
        """f^{-1}(x) = A(x^s) * x^b with 0 -> 0, A(z) = H(z)^a h(H(z))^{-b}."""
        ctx, b, s = self.ctx, self.b, self.s
        A = {z: ctx.mul(ctx.pow(y, self.a), ctx.pow(self.h_on_mu[y], -b))
             for z, y in H.items()}
        return [ctx.mul(A[ctx.pow(x, s)], ctx.pow(x, b)) if x else 0
                for x in ctx.elements()]


def mul_family(ctx: FieldCtx, r: int, s: int, h: PolyFq) -> MulFamily:
    check_int(r, "r", 1)
    if check_int(s, "s") < 1 or (ctx.q - 1) % s != 0:
        raise NotDivisor(f"s = {s} does not divide q - 1 = {ctx.q - 1}")
    if math.gcd(r, s) != 1:
        raise NotCoprime(f"gcd(r = {r}, s = {s}) != 1")
    ell = (ctx.q - 1) // s
    mu = mu_subgroup(ctx, ell)
    h_on_mu = {}
    for z in mu:
        v = eval_poly(h, z)
        if v == 0:
            raise HVanishes(f"h vanishes at {z} on mu_{ell}", witness=z)
        h_on_mu[z] = v
    g_map = {z: ctx.mul(ctx.pow(z, r), ctx.pow(h_on_mu[z], s)) for z in mu}
    _small_inverse(g_map, f"g on mu_{ell}")  # a bijective g is the premise
    a, b = ext_gcd(s, r)
    f = [0] * ctx.q
    for x in ctx.units():
        f[x] = ctx.mul(ctx.pow(x, r), h_on_mu[ctx.pow(x, s)])
    return MulFamily(ctx, r, s, h, ell, mu, a, b, h_on_mu, g_map, tuple(f))


@dataclass(frozen=True)
class MulClosedForm:
    """Symbolic inverse f^{-1} = x^(a*s*t+b) h(x^(s*t))^(-b), valid when
    h(z)^s = z^n on the root-of-unity subgroup and (r+n)t = 1 mod (q-1)/s."""

    a: int
    b: int
    t: int
    n_exp: int
    x_exponent: int
    inner_exponent: int
    h_exponent: int
    table: PermTable


def closed_form_mul(fam: MulFamily, n_exp: int, t: int) -> MulClosedForm:
    ctx = fam.ctx
    for z in fam.mu:
        if ctx.pow(fam.h_on_mu[z], fam.s) != ctx.pow(z, n_exp):
            raise ConditionFail(
                f"h(z)^s != z^{n_exp} at z = {z}", witness=z)
    if math.gcd(fam.r + n_exp, fam.ell) != 1:
        raise NotCoprime(
            f"gcd(r + n = {fam.r + n_exp}, (q-1)/s = {fam.ell}) != 1")
    if ((fam.r + n_exp) * t - 1) % fam.ell != 0:
        raise ConditionFail(
            f"t = {t} does not satisfy (r+n)t = 1 mod {fam.ell}")
    x_exp = fam.a * fam.s * t + fam.b
    inner = fam.s * t
    images = [0] * ctx.q
    for x in ctx.units():
        w = ctx.pow(x, inner)  # (x^(st))^ell = x^(t(q-1)) = 1, so w is a root of unity
        images[x] = ctx.mul(ctx.pow(x, x_exp),
                            ctx.pow(fam.h_on_mu[w], -fam.b))
    table = certify(fam.f_table, PermTable(ctx, tuple(images)))
    return MulClosedForm(fam.a, fam.b, t, n_exp, x_exp, inner, -fam.b, table)


# additive family: f(x) = g(x) + g0(lambda(x))

@dataclass(frozen=True)
class AddFamily:
    """f = g + g0 o lam with lam_bar additive, lam_bar(g0(lam(x))) = 0, and
    the square lam_bar o f = g o lam commuting; g is stored as a total map
    on F (it need not be bijective until inversion is requested)."""

    ctx: FieldCtx
    g: tuple
    g0: Mapping
    lam: tuple
    lam_bar: tuple
    S: tuple
    S_bar: tuple
    f_table: tuple
    g_label = "g on F"
    # the small-set map is g on all of F: the inverse applies g^{-1} there
    g_map = property(lambda self: self.g)

    def lift(self, H: Mapping) -> list:
        """f^{-1}(x) = H(x - g0(H(lambda_bar(x))))."""
        ctx, g0, bar = self.ctx, self.g0, self.lam_bar
        return [H[ctx.sub(x, g0[H[bar[x]]])] for x in ctx.elements()]


def add_family(ctx: FieldCtx, g: MapLike, g0: Mapping, lam: MapLike,
               lam_bar: MapLike) -> AddFamily:
    g_t = tuple(_materialize(ctx, g, "g"))
    lam_t = tuple(_materialize(ctx, lam, "lambda"))
    bar_t = tuple(_materialize(ctx, lam_bar, "lambda_bar"))
    S = tuple(sorted(set(lam_t)))
    S_bar = tuple(sorted(set(bar_t)))
    q = ctx.q
    if not isinstance(g0, Mapping):
        raise ValueError(f"g0 = {g0!r:.60} is out of range: expected a map")
    g0_d = {check_int(k, "g0 key", 0, q): check_int(v, "g0 value", 0, q)
            for k, v in g0.items()}
    missing = [s for s in S if s not in g0_d]
    if missing:
        raise ValueError(f"g0 is undefined on {missing[0]} in S")
    # additive iff bar(x) = bar(x - e) + bar(e) for x >= 1, e the top base-p
    # place of x: x = e reads bar(0) = 0, and induction on x does the rest
    e = 1
    for x in ctx.units():
        if x == e * ctx.p:
            e = x
        if bar_t[x] != ctx.add(bar_t[x - e], bar_t[e]):
            raise ConditionFail(
                f"lambda_bar is not additive at ({x - e}, {e})",
                witness=(x - e, e))
    f = tuple(ctx.add(g_t[x], g0_d[lam_t[x]]) for x in ctx.elements())
    for x in ctx.elements():
        if bar_t[g0_d[lam_t[x]]] != 0:
            raise ConditionFail(
                f"lambda_bar(g0(lambda({x}))) != 0", witness=x)
        if bar_t[f[x]] != g_t[lam_t[x]]:
            raise ConditionFail(
                f"square does not commute at {x}: "
                f"lambda_bar(f(x)) != g(lambda(x))", witness=x)
    if {g_t[s] for s in S} != set(S_bar):
        raise ConditionFail("g(S) != S_bar")
    return AddFamily(ctx, g_t, g0_d, lam_t, bar_t, S, S_bar, f)


# hybrid scaling family: f(x) = x * h(lambda(x))

@dataclass(frozen=True)
class HybridScaleFamily:
    """f(x) = x h(lam(x)) where h(0) != 0, k(0) = 0, h(lam(F)) lies in S,
    and lam(a*x) = k(a) lam(x) for a in S; g(y) = y k(h(y)) acts on the
    lambda image L, with theta(y) = k(h(y))."""

    ctx: FieldCtx
    h: PolyFq
    k: PolyFq
    lam: tuple
    S: tuple
    L: tuple
    h_on_L: Mapping
    theta: Mapping
    g_map: Mapping
    f_table: tuple
    g_label = "g(y) = y*k(h(y)) on the lambda image"

    def lift(self, H: Mapping) -> list:
        """f^{-1}(x) = (x - w + k(h(y))*y) / h(y) with w = lam(x) and
        y = H(w), so x * u(w) + v(w) with u = 1/h(y), v = (k(h(y))*y - w) u."""
        ctx, u, v = self.ctx, {}, {}
        for w, y in H.items():
            u[w] = ctx.inv(self.h_on_L[y])
            v[w] = ctx.mul(ctx.sub(ctx.mul(self.theta[y], y), w), u[w])
        return [ctx.add(ctx.mul(x, u[w]), v[w])
                for x, w in enumerate(self.lam)]


def hybrid_family(ctx: FieldCtx, h: PolyFq, k: PolyFq, lam: MapLike,
                  S: Sequence[int]) -> HybridScaleFamily:
    lam_t = tuple(_materialize(ctx, lam, "lambda"))
    S_t = tuple(sorted(set(check_ints(S, "S", 0, ctx.q))))
    if 0 not in S_t:
        raise ConditionFail("S must contain 0")
    if eval_poly(h, 0) == 0:
        raise ConditionFail("h(0) = 0")
    if eval_poly(k, 0) != 0:
        raise ConditionFail("k(0) != 0")
    L = tuple(sorted(set(lam_t)))
    h_on_L = _values_in(h, L, S_t, "h(lambda image) leaves S at y = {}")
    k_on_S = {a: eval_poly(k, a) for a in S_t}
    for a in S_t:
        ka = k_on_S[a]
        for x in ctx.elements():
            if lam_t[ctx.mul(a, x)] != ctx.mul(ka, lam_t[x]):
                raise ConditionFail(
                    f"lambda(a*x) != k(a)*lambda(x) at (a, x) = ({a}, {x})",
                    witness=(a, x))
    for y in L:
        if h_on_L[y] == 0:
            raise HVanishesOnImage(
                f"h vanishes at {y} on the lambda image", witness=y)
    theta = {y: k_on_S[h_on_L[y]] for y in L}
    g_map = {y: ctx.mul(y, theta[y]) for y in L}
    f = tuple(ctx.mul(x, h_on_L[lam_t[x]]) for x in ctx.elements())
    return HybridScaleFamily(ctx, h, k, lam_t, S_t, L, h_on_L, theta, g_map, f)


# translator family: f(x) = x + gamma * G(lambda(x))

@dataclass(frozen=True)
class TranslatorFamily:
    """f(x) = x + gamma G(lam(x)) where gamma is a b-linear translator of
    lam with respect to S = lam(F): lam(x + u*gamma) = lam(x) + u*b for all
    x and all u in S."""

    ctx: FieldCtx
    lam: tuple
    gamma: int
    b: int
    G: PolyFq
    S: tuple
    G_on_S: Mapping
    g_map: Mapping
    f_table: tuple
    g_label = "g(y) = y + b*G(y) on S"

    def lift(self, H: Mapping) -> list:
        """f^{-1}(x) = x + A(lam(x)), A(w) = (b-gamma) G(y) + y - w with
        y = H(w)."""
        ctx, coeff = self.ctx, self.ctx.sub(self.b, self.gamma)
        A = {w: ctx.sub(ctx.add(ctx.mul(coeff, self.G_on_S[y]), y), w)
             for w, y in H.items()}
        return [ctx.add(x, A[w]) for x, w in enumerate(self.lam)]


def translator_family(ctx: FieldCtx, lam: MapLike, gamma: int, b: int,
                      G: PolyFq) -> TranslatorFamily:
    if check_int(gamma, "gamma", 0, ctx.q) == 0:
        raise GammaZero("gamma must be nonzero")
    check_int(b, "b", 0, ctx.q)
    lam_t = tuple(_materialize(ctx, lam, "lambda"))
    S = tuple(sorted(set(lam_t)))
    G_on_S = _values_in(G, S, S, "G does not map S into S at {}")
    _check_translator(ctx, lam_t, gamma, b, S)
    g_map = {y: ctx.add(y, ctx.mul(b, G_on_S[y])) for y in S}
    f = tuple(ctx.add(x, ctx.mul(gamma, G_on_S[lam_t[x]]))
              for x in ctx.elements())
    return TranslatorFamily(ctx, lam_t, gamma, b, G, S, G_on_S, g_map, f)


def invert_translator_linear(fam: TranslatorFamily) -> PermTable:
    """Specialization for G = identity: f^{-1}(x) = x - gamma/(b+1) lam(x),
    requiring b != -1."""
    ctx = fam.ctx
    if any(fam.G_on_S[y] != y for y in fam.S):
        raise ValueError("family G is not the identity on S")
    b1 = ctx.add(fam.b, 1)
    if b1 == 0:
        raise BPlusOneZero("b = -1, the linear-translator inverse formula "
                           "does not apply")
    coeff = ctx.neg(ctx.div(fam.gamma, b1))
    images = tuple(ctx.add(x, ctx.mul(coeff, fam.lam[x]))
                   for x in ctx.elements())
    return certify(fam.f_table, PermTable(ctx, images))


# generic pipeline: f^{-1} = phi^{-1} o psi^{-1} o phi_bar

@dataclass(frozen=True)
class PhiMap:
    """A bijection x -> (first[x], second[x]) into a pair set, with its
    inverse supplied as a callable on pairs."""

    first: tuple
    second: tuple
    inverse: Callable


@dataclass(frozen=True)
class GenericDiagram:
    """phi, phi_bar with phi's inverse, and psi^{-1} split into its two
    component maps: g_inv on first components and M on pairs."""

    phi: PhiMap
    phi_bar: PhiMap
    g_inv: Mapping
    M: Callable


def build_phi_add(P: PermTable, lam: MapLike) -> PhiMap:
    """phi(x) = (lam(x), P(x) - lam(x)); phi^{-1}(y, z) = P^{-1}(y + z)."""
    ctx = P.ctx
    lam_t = tuple(_materialize(ctx, lam, "lambda"))
    P_inv = brute_inverse(P)
    second = tuple(ctx.sub(P[x], lam_t[x]) for x in ctx.elements())
    return PhiMap(lam_t, second,
                  lambda y, z: P_inv[ctx.add(y, z)])


def build_phi_mul(P: PermTable, lam: MapLike) -> PhiMap:
    """phi(x) = (lam(x), P(x / lam(x))) for nowhere-zero lam;
    phi^{-1}(y, z) = y * P^{-1}(z)."""
    ctx = P.ctx
    lam_t = tuple(_materialize(ctx, lam, "lambda"))
    for x in ctx.elements():
        if lam_t[x] == 0:
            raise LambdaZero(f"lambda vanishes at {x}", witness=x)
    P_inv = brute_inverse(P)
    second = tuple(P[ctx.div(x, lam_t[x])] for x in ctx.elements())
    return PhiMap(lam_t, second,
                  lambda y, z: ctx.mul(y, P_inv[z]))


def _check_injective(phi: PhiMap, q: int, label: str):
    seen: dict = {}
    for x in range(q):
        pair = (phi.first[x], phi.second[x])
        if pair in seen:
            raise NotInjectivePhi(
                f"{label} is not injective: {seen[pair]} and {x} share "
                f"the pair {pair}", witness=(seen[pair], x))
        seen[pair] = x


def generic_inverse(d: GenericDiagram, f: PermTable) -> PermTable:
    """Table of phi^{-1} o psi^{-1} o phi_bar, after checking that phi and
    phi_bar are injective and that the supplied psi^{-1} inverts the square
    psi = phi_bar o f o phi^{-1} pointwise."""
    ctx = f.ctx
    q = ctx.q
    _check_injective(d.phi, q, "phi")
    _check_injective(d.phi_bar, q, "phi_bar")
    for x in ctx.elements():
        fx = f[x]
        alpha, beta = d.phi_bar.first[fx], d.phi_bar.second[fx]
        if alpha not in d.g_inv or (
                (d.g_inv[alpha], d.M(alpha, beta))
                != (d.phi.first[x], d.phi.second[x])):
            raise SquareDoesNotCommute(
                f"psi_inv does not invert the square at x = {x}", witness=x)
    images = []
    for x in ctx.elements():
        alpha, beta = d.phi_bar.first[x], d.phi_bar.second[x]
        images.append(d.phi.inverse(d.g_inv[alpha], d.M(alpha, beta)))
    return certify(f.images, PermTable(ctx, tuple(images)))


# the difference-plus-scaling class f(x) = g(x^{q^i} - x + delta) + c x

@dataclass(frozen=True)
class NiuFamily:
    """f(x) = g(lam(x)) + c*x over GF(q^m), lam(x) = x^{q^i} - x + delta,
    with c in the subfield GF(q^gcd(i,m))^*.  Since c^{q^i} = c,
    lam o f = h o lam for h(y) = g(y)^{q^i} - g(y) + c*y + (1-c)*delta, so
    h maps the small set S = lam(F) into itself; since c != 0, f is
    injective on each fibre of lam.  So f is a permutation exactly when h
    permutes S.  ``g_map`` is h on S."""

    ctx: FieldCtx
    q: int
    g: PolyFq
    i: int
    c: int
    delta: int
    lam: tuple
    g_on_S: Mapping
    g_map: Mapping
    f_table: tuple
    g_label = "h(y) = g(y)^(q^i) - g(y) + c*y + (1-c)*delta on S"

    def lift(self, H: Mapping) -> list:
        """f^{-1}(x) = c^{-1} (x - g(H(lam(x)))): lam(f^{-1}(x)) = H(lam(x)),
        as lam o f = h o lam.  With x^{q^i} = lam(x) - delta + x this is
        c^{-1} (x^{q^i} - g(H(w))^{q^i}) - H(w) + delta, w = lam(x)."""
        ctx, g_on_S = self.ctx, self.g_on_S
        c_inv = ctx.inv(self.c)
        return [ctx.mul(c_inv, ctx.sub(x, g_on_S[H[w]]))
                for x, w in enumerate(self.lam)]


def niu_forward(ctx: FieldCtx, q: int, g: PolyFq, i: int, c: int,
                delta: int) -> tuple:
    """Forward table of f(x) = g(x^{q^i} - x + delta) + c*x, pointwise: it
    certifies :func:`invert_niu`, so it shares no table of lambda with it."""
    e = p_power_degree(ctx, q)
    check_int(i, "i", 0)
    check_int(c, "c", 0, ctx.q)
    check_int(delta, "delta", 0, ctx.q)
    return tuple(
        ctx.add(eval_poly(g, ctx.add(ctx.sub(ctx.frob(x, e * i), x), delta)),
                ctx.mul(c, x))
        for x in ctx.elements())


def niu_family(ctx: FieldCtx, q: int, g: PolyFq, i: int, c: int,
               delta: int) -> NiuFamily:
    """The record of f(x) = g(x^{q^i} - x + delta) + c*x over GF(q^m), for
    0 < i < m and c in GF(q^gcd(i,m))^*; its forward table is
    :func:`niu_forward`'s."""
    e = p_power_degree(ctx, q)
    check_int(c, "c", 0, ctx.q)
    check_int(delta, "delta", 0, ctx.q)
    m = ctx.n // e
    d = math.gcd(check_int(i, "i", 1, m), m)
    if c == 0 or ctx.frob(c, e * d) != c:
        raise NotInSubfield(
            f"c = {c} is not in GF({q}^{d})^*", witness=c)
    x_sigma_minus_x = linearized(ctx, q, [ctx.neg(1)] + [0] * (i - 1) + [1])
    lam = tuple(ctx.add(v, delta)
                for v in linearized_tabulate(x_sigma_minus_x))
    shift = ctx.mul(ctx.sub(1, c), delta)
    g_on_S = {y: eval_poly(g, y) for y in sorted(set(lam))}
    h = {y: ctx.add(ctx.add(ctx.sub(ctx.frob(gy, e * i), gy), ctx.mul(c, y)),
                    shift) for y, gy in g_on_S.items()}
    return NiuFamily(ctx, q, g, i, c, delta, lam, g_on_S, h,
                     niu_forward(ctx, q, g, i, c, delta))


def invert_niu(ctx: FieldCtx, q: int, g: PolyFq, i: int, c: int,
               delta: int) -> PermTable:
    """Inverse of f(x) = g(x^{q^i} - x + delta) + c*x (:class:`NiuFamily`)."""
    return invert(niu_family(ctx, q, g, i, c, delta))


# family descriptor files

def _poly_param(ctx: FieldCtx, value) -> PolyFq:
    if isinstance(value, str):
        return parse_poly_expr(value, ctx)
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"a polynomial must be a grammar string or a value "
                         f"table, got {value!r}")
    return interpolate(ctx, value)


def _map_param(ctx: FieldCtx, value, name: str) -> Sequence[int]:
    if isinstance(value, str):
        return tabulate(parse_poly_expr(value, ctx))
    return _materialize(ctx, value, name)


def family_from_descriptor(doc: dict):
    """Build a family from a JSON descriptor document
    ``{"family": ..., "field": {...}, parameters by name}``; polynomials are
    grammar strings (or value tables), maps are tables, scalars are ints
    (:func:`~ppinv.gf_core.check_int`) and ``g0`` map keys decimal
    strings.  Returns ``(kind, family)`` where ``kind`` is the descriptor's
    family string and ``family`` a record that :func:`invert` takes.
    """
    kind = check_object(doc, "descriptor")["family"]
    ctx = field_from_json(doc["field"])
    if kind == "mul":
        h = _poly_param(ctx, doc["h"])
        return kind, mul_family(ctx, doc["r"], doc["s"], h)
    if kind == "add":
        g = _map_param(ctx, doc["g"], "g")
        lam = _map_param(ctx, doc["lambda"], "lambda")
        lam_bar = _map_param(ctx, doc.get("lambda_bar", doc["lambda"]),
                             "lambda_bar")
        g0 = doc["g0"]
        if isinstance(g0, str):
            g0_poly = parse_poly_expr(g0, ctx)
            g0 = {s: eval_poly(g0_poly, s) for s in set(lam)}
        elif isinstance(g0, dict):  # JSON object keys are strings
            g0 = _map_of_pairs(((int(k), v) for k, v in g0.items()), "g0")
        return kind, add_family(ctx, g, g0, lam, lam_bar)
    if kind == "hybrid":
        h = _poly_param(ctx, doc["h"])
        k = _poly_param(ctx, doc["k"])
        lam = _map_param(ctx, doc["lambda"], "lambda")
        return kind, hybrid_family(ctx, h, k, lam, doc["S"])
    if kind == "translator":
        lam = _map_param(ctx, doc["lambda"], "lambda")
        G = _poly_param(ctx, doc["G"])
        return kind, translator_family(ctx, lam, doc["gamma"], doc["b"], G)
    if kind == "niu":
        g = _poly_param(ctx, doc["g"])
        return kind, niu_family(ctx, doc["q"], g, doc["i"], doc["c"],
                                doc["delta"])
    raise ValueError(f"unknown family kind {kind!r}")
