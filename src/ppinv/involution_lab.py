"""Executable involution criteria for the four families, plus explicit
involution constructors.  Every verdict is cross-checked against the
brute-force oracle f o f = identity and the report records the agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import (BadK, CertificationFailed, ConditionFail,
                     NotInSubfield, OddChar, OddN, TraceNonzero)
from .agw_inverse import (AddFamily, HybridScaleFamily, MulFamily,
                          TranslatorFamily, _check_translator, _values_in,
                          add_family, mul_family, translator_family)
from .gf_core import (FieldCtx, check_int, check_ints, p_power_degree,
                      subfield_elements)
from .perm_core import _small_inverse
from .poly_expr import (PolyFq, linearized, linearized_eval,
                        linearized_tabulate, make_poly)


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of one involution criterion.

    ``g_involutory`` is the necessary condition that the induced small-set
    map composes to the identity; ``aux_condition`` is the family's extra
    pointwise identity.  The conditions short-circuit: when the first fails
    the second is reported False unevaluated, and ``witness`` always belongs
    to the first condition that failed.  ``is_involution`` is their
    conjunction and ``oracle_agrees`` records equality with the exhaustive
    f o f = identity check.
    """

    g_involutory: bool
    aux_condition: bool
    witness: Optional[int]
    is_involution: bool
    oracle_agrees: bool

    def to_json(self) -> dict:
        w = self.witness
        if isinstance(w, tuple):
            w = list(w)
        return {"g_involutory": self.g_involutory,
                "aux_condition": self.aux_condition,
                "witness": w,
                "is_involution": self.is_involution,
                "oracle_agrees": self.oracle_agrees}


def _report(g_failures, aux_failures, f_table) -> CriterionReport:
    """The report of a criterion from the failures of its two conditions,
    each an iterable of witnesses in scan order.  ``aux_failures`` is read
    only once ``g_failures`` is empty, so a generator there runs nothing
    unless g is involutory."""
    witness = next(iter(g_failures), None)
    g_ok = witness is None
    if g_ok:
        witness = next(iter(aux_failures), None)
    aux_ok = g_ok and witness is None
    oracle = all(f_table[f_table[x]] == x for x in range(len(f_table)))
    return CriterionReport(g_ok, aux_ok, witness, aux_ok,
                           oracle_agrees=(oracle == aux_ok))


def check_mul_involution(fam: MulFamily) -> CriterionReport:
    """f = x^r h(x^s) is an involution iff g is involutory on the roots of
    unity and g(x^s)^a x^(b-r) h(g(x^s))^(-b) h(x^s)^(-1) = 1 on F_q^*."""
    ctx, g = fam.ctx, fam.g_map

    def aux_failures():
        # per-root factor of the criterion function, so the scan over F_q^*
        # costs one power and one multiplication per element
        factor = {z: ctx.mul(ctx.mul(ctx.pow(g[z], fam.a),
                                     ctx.pow(fam.h_on_mu[g[z]], -fam.b)),
                             ctx.inv(fam.h_on_mu[z]))
                  for z in fam.mu}
        e = fam.b - fam.r
        yield from (x for x in ctx.units()
                    if ctx.mul(factor[ctx.pow(x, fam.s)], ctx.pow(x, e)) != 1)

    return _report((z for z in fam.mu if g[g[z]] != z), aux_failures(),
                   fam.f_table)


def check_add_involution(fam: AddFamily) -> CriterionReport:
    """f = g + g0 o lam (lam = lam_bar, S = S_bar) is an involution iff g is
    involutory on S and g^{-1}(x - g0(g(lam(x)))) - g(x) - g0(lam(x)) = 0."""
    ctx, g, g0, lam = fam.ctx, fam.g, fam.g0, fam.lam
    if lam != fam.lam_bar:
        raise ConditionFail("criterion requires lambda = lambda_bar")
    if fam.S != fam.S_bar:
        raise ConditionFail("criterion requires S = S_bar")
    g_inv = _small_inverse(g, fam.g_label)
    aux_failures = (x for x in ctx.elements()
                    if g_inv[ctx.sub(x, g0[g[lam[x]]])]
                    != ctx.add(g[x], g0[lam[x]]))
    return _report((s for s in fam.S if g[g[s]] != s), aux_failures,
                   fam.f_table)


def check_hybrid_involution(fam: HybridScaleFamily) -> CriterionReport:
    """f = x h(lam(x)) is an involution iff theta(theta(y) y) theta(y) = 1
    and h(g(y)) h(y) = 1 on lam(F_q^*), where theta(y) = k(h(y))."""
    ctx, g = fam.ctx, fam.g_map
    l_star = sorted({fam.lam[x] for x in ctx.units()})
    return _report(
        (y for y in l_star if ctx.mul(fam.theta[g[y]], fam.theta[y]) != 1),
        (y for y in l_star if ctx.mul(fam.h_on_L[g[y]], fam.h_on_L[y]) != 1),
        fam.f_table)


def check_translator_involution(fam: TranslatorFamily) -> CriterionReport:
    """f = x + gamma G(lam(x)) is an involution iff
    b G(y) + b G(y + b G(y)) = 0 on S, and additionally b != 0, or q is
    even, or (q odd, b = 0 and G vanishes on S)."""
    ctx, b, G, g = fam.ctx, fam.b, fam.G_on_S, fam.g_map
    g_failures = (y for y in fam.S
                  if ctx.add(ctx.mul(b, G[y]), ctx.mul(b, G[g[y]])) != 0)
    aux_failures = (() if b != 0 or ctx.p == 2
                    else (y for y in fam.S if G[y] != 0))
    return _report(g_failures, aux_failures, fam.f_table)


def _certified_involution(fam, report: CriterionReport):
    """Return a constructed family once its criterion and the oracle both
    say it is an involution."""
    if not (report.is_involution and report.oracle_agrees):
        raise CertificationFailed("the constructed family is not an "
                                  "involution", witness=report.witness)
    return fam


def make_kuozhan(ctx: FieldCtx, q: int, k: int, gamma: int,
                 beta: int) -> MulFamily:
    """Involution family on GF(q^2), q even: f = x^(q^2-2) h(x^(q-1)) with
    h(x) = gamma (x^-1 + beta x^(-k-1) + beta x^(k-1)), gcd(k, q+1) = 1,
    gamma and beta in GF(q)^* and beta of absolute trace zero."""
    if ctx.p != 2:
        raise OddChar(f"characteristic must be 2, got p = {ctx.p}")
    e = p_power_degree(ctx, q)
    if ctx.n != 2 * e:
        raise ValueError(f"context must be GF(q^2) = GF({q * q})")
    if check_int(k, "k") < 1 or math.gcd(k, q + 1) != 1:
        raise BadK(f"k = {k} must be positive with gcd(k, q+1) = 1")
    for name, val in (("gamma", gamma), ("beta", beta)):
        if check_int(val, name, 0, ctx.q) == 0 or ctx.frob(val, e) != val:
            raise NotInSubfield(f"{name} = {val} is not in GF({q})^*",
                                witness=val)
    # the trace from GF(q) to GF(2): beta + beta^2 + ... + beta^(2^(e-1))
    if linearized_eval(linearized(ctx, 2, [1] * e), beta) != 0:
        raise TraceNonzero(
            f"beta = {beta} has nonzero trace onto GF(2)", witness=beta)
    Q = ctx.q
    gb = ctx.mul(gamma, beta)
    coeffs = [0] * Q
    for exponent, c in ((Q - 2, gamma), (Q - 2 - k, gb), (k - 1, gb)):
        coeffs[exponent] = ctx.add(coeffs[exponent], c)
    fam = mul_family(ctx, Q - 2, q - 1, make_poly(ctx, coeffs))
    return _certified_involution(fam, check_mul_involution(fam))


def make_trace_gadget(ctx: FieldCtx, q: int, g0: PolyFq) -> AddFamily:
    """Involution family f = x + g0(Tr(x)) on GF(q^n) for q and n even,
    with Tr the relative trace onto GF(q) and g0 mapping GF(q) into
    itself."""
    if ctx.p != 2:
        raise OddChar(f"characteristic must be 2, got p = {ctx.p}")
    e = p_power_degree(ctx, q)
    if (ctx.n // e) % 2 != 0:
        raise OddN(f"extension degree n = {ctx.n // e} over GF({q}) "
                   "must be even")
    sub = subfield_elements(ctx, e)
    g0_map = _values_in(g0, sub, sub,
                        f"g0 does not map GF({q}) into itself at {{}}")
    lam = linearized_tabulate(linearized(ctx, q, [1] * (ctx.n // e)))
    identity = list(ctx.elements())
    fam = add_family(ctx, identity, g0_map, lam, lam)
    return _certified_involution(fam, check_add_involution(fam))


def make_zero_translator(ctx: FieldCtx, q: int, beta_coeffs, G: PolyFq,
                         gamma: int) -> TranslatorFamily:
    """Involution family f = x + gamma G(lam(x)) on GF(q^n), q even, where
    lam(x) is the double sum of beta_i (x^(q^i) + x^(q^j)) over
    1 <= i < j <= n for the sequence beta_1 .. beta_{n-1}, and gamma is
    verified to be a 0-linear translator of lam with respect to GF(q)."""
    if ctx.p != 2:
        raise OddChar(f"characteristic must be 2, got p = {ctx.p}")
    e = p_power_degree(ctx, q)
    n = ctx.n // e
    if n < 2:
        raise ValueError("extension degree over GF(q) must be at least 2")
    check_int(gamma, "gamma", 0, ctx.q)
    beta = check_ints(beta_coeffs, "beta", 0, ctx.q)
    if len(beta) != n - 1:
        raise ValueError(f"expected {n - 1} beta coefficients, "
                         f"got {len(beta)}")
    # x^(q^n) = x, so lam is linearized over GF(q) with c_k the sum of
    # the beta_i of the pairs (i, j) whose i or j is k mod n
    c = [0] * n
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            for k in (i, j % n):
                c[k] = ctx.add(c[k], beta[i - 1])
    lam = linearized_tabulate(linearized(ctx, q, c))
    sub = subfield_elements(ctx, e)
    _check_translator(ctx, lam, gamma, 0, sub)
    _values_in(G, sub, sub, f"G does not map GF({q}) into itself at {{}}")
    fam = translator_family(ctx, lam, gamma, 0, G)
    return _certified_involution(fam, check_translator_involution(fam))
