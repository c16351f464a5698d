"""Executable involution criteria for the four families, plus explicit
involution constructors.  Every verdict is cross-checked against the
brute-force oracle f o f = identity and the report records the agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .errors import (BadK, CertificationFailed, ConditionFail, GammaZero,
                     NotInSubfield, NotTranslator, OddChar, OddN, TraceNonzero)
from .agw_inverse import (AddFamily, HybridScaleFamily, MulFamily,
                          TranslatorFamily, _span_basis, add_family,
                          mul_family, translator_family)
from .gf_core import (FieldCtx, check_int, check_ints, p_power_degree,
                      subfield_elements)
from .perm_core import _small_inverse
from .poly_expr import (PolyFq, eval_poly, linearized, linearized_eval,
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


def _oracle_involution(f_table: Sequence[int]) -> bool:
    return all(f_table[f_table[x]] == x for x in range(len(f_table)))


def _report(g_ok, g_witness, aux_ok, aux_witness, f_table) -> CriterionReport:
    if g_ok:
        is_inv = aux_ok
        witness = None if aux_ok else aux_witness
    else:
        is_inv, aux_ok, witness = False, False, g_witness
    oracle = _oracle_involution(f_table)
    return CriterionReport(g_ok, aux_ok, witness, is_inv,
                           oracle_agrees=(oracle == is_inv))


def check_mul_involution(fam: MulFamily) -> CriterionReport:
    """f = x^r h(x^s) is an involution iff g is involutory on the roots of
    unity and g(x^s)^a x^(b-r) h(g(x^s))^(-b) h(x^s)^(-1) = 1 on F_q^*."""
    ctx = fam.ctx
    g_ok, g_wit = True, None
    for z in fam.mu.elements:
        if fam.g_map[fam.g_map[z]] != z:
            g_ok, g_wit = False, z
            break
    aux_ok, aux_wit = True, None
    if g_ok:
        # per-root factor of the criterion function, so the scan over F_q^*
        # costs one power and one multiplication per element
        factor = {}
        for z in fam.mu.elements:
            gz = fam.g_map[z]
            factor[z] = ctx.mul(
                ctx.mul(ctx.pow(gz, fam.a), ctx.pow(fam.h_on_mu[gz], -fam.b)),
                ctx.inv(fam.h_on_mu[z]))
        e = fam.b - fam.r
        for x in ctx.units():
            if ctx.mul(factor[ctx.pow(x, fam.s)], ctx.pow(x, e)) != 1:
                aux_ok, aux_wit = False, x
                break
    return _report(g_ok, g_wit, aux_ok, aux_wit, fam.f_table)


def check_add_involution(fam: AddFamily) -> CriterionReport:
    """f = g + g0 o lam (lam = lam_bar, S = S_bar) is an involution iff g is
    involutory on S and g^{-1}(x - g0(g(lam(x)))) - g(x) - g0(lam(x)) = 0."""
    ctx = fam.ctx
    if fam.lam != fam.lam_bar:
        raise ConditionFail("criterion requires lambda = lambda_bar")
    if fam.S != fam.S_bar:
        raise ConditionFail("criterion requires S = S_bar")
    g_inv = _small_inverse(enumerate(fam.g), "g on F")
    g_ok, g_wit = True, None
    for s in fam.S:
        if fam.g[fam.g[s]] != s:
            g_ok, g_wit = False, s
            break
    aux_ok, aux_wit = True, None
    if g_ok:
        for x in ctx.elements():
            lhs = g_inv[ctx.sub(x, fam.g0[fam.g[fam.lam[x]]])]
            rhs = ctx.add(fam.g[x], fam.g0[fam.lam[x]])
            if lhs != rhs:
                aux_ok, aux_wit = False, x
                break
    return _report(g_ok, g_wit, aux_ok, aux_wit, fam.f_table)


def check_hybrid_involution(fam: HybridScaleFamily) -> CriterionReport:
    """f = x h(lam(x)) is an involution iff theta(theta(y) y) theta(y) = 1
    and h(g(y)) h(y) = 1 on lam(F_q^*), where theta(y) = k(h(y))."""
    ctx = fam.ctx
    l_star = sorted({fam.lam[x] for x in ctx.units()})
    g_ok, g_wit = True, None
    for y in l_star:
        if ctx.mul(fam.theta[fam.g_map[y]], fam.theta[y]) != 1:
            g_ok, g_wit = False, y
            break
    aux_ok, aux_wit = True, None
    if g_ok:
        for y in l_star:
            if ctx.mul(fam.h_on_L[fam.g_map[y]], fam.h_on_L[y]) != 1:
                aux_ok, aux_wit = False, y
                break
    return _report(g_ok, g_wit, aux_ok, aux_wit, fam.f_table)


def check_translator_involution(fam: TranslatorFamily) -> CriterionReport:
    """f = x + gamma G(lam(x)) is an involution iff
    b G(y) + b G(y + b G(y)) = 0 on S, and additionally b != 0, or q is
    even, or (q odd, b = 0 and G vanishes on S)."""
    ctx = fam.ctx
    if fam.gamma == 0:
        raise GammaZero("gamma must be nonzero")
    g_ok, g_wit = True, None
    for y in fam.S:
        t = ctx.mul(fam.b, fam.G_on_S[y])
        if ctx.add(t, ctx.mul(fam.b, fam.G_on_S[fam.g_map[y]])) != 0:
            g_ok, g_wit = False, y
            break
    aux_ok, aux_wit = True, None
    if g_ok:
        if fam.b != 0 or ctx.p == 2:
            aux_ok = True
        else:
            for y in fam.S:
                if fam.G_on_S[y] != 0:
                    aux_ok, aux_wit = False, y
                    break
    return _report(g_ok, g_wit, aux_ok, aux_wit, fam.f_table)


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
    sub_set = set(sub)
    g0_map = {}
    for s in sub:
        v = eval_poly(g0, s)
        if v not in sub_set:
            raise ConditionFail(
                f"g0 does not map GF({q}) into itself at {s}", witness=s)
        g0_map[s] = v
    lam = linearized_tabulate(linearized(ctx, q, [1] * (ctx.n // e)))
    identity = list(ctx.elements())
    fam = add_family(ctx, identity, g0_map, lam, lam)
    return _certified_involution(fam, check_add_involution(fam))


def make_zero_translator(ctx: FieldCtx, q: int, beta_coeffs, G: PolyFq,
                         gamma: int) -> TranslatorFamily:
    """Involution family f = x + gamma G(lam(x)) on GF(q^n), q even, where
    lam(x) is the double sum of beta_i (x^(q^i) + x^(q^j)) over
    1 <= i < j <= n and gamma is verified to be a 0-linear translator of lam
    with respect to GF(q).

    ``beta_coeffs`` is the sequence beta_1 .. beta_{n-1} (the printed single
    index); a mapping keyed by (i, j) pairs is accepted as a double-indexed
    extension.
    """
    if ctx.p != 2:
        raise OddChar(f"characteristic must be 2, got p = {ctx.p}")
    e = p_power_degree(ctx, q)
    n = ctx.n // e
    if n < 2:
        raise ValueError("extension degree over GF(q) must be at least 2")
    check_int(gamma, "gamma", 0, ctx.q)
    if isinstance(beta_coeffs, Mapping):
        beta = {tuple(check_ints(ij, "beta index", 1, n + 1)):
                check_int(v, "beta", 0, ctx.q)
                for ij, v in beta_coeffs.items()}
        if not all(i < j for i, j in beta):
            raise ValueError("double-indexed beta keys must satisfy "
                             "1 <= i < j <= n")
    else:
        seq = check_ints(beta_coeffs, "beta", 0, ctx.q)
        if len(seq) != n - 1:
            raise ValueError(f"expected {n - 1} beta coefficients, "
                             f"got {len(seq)}")
        beta = {(i, j): seq[i - 1]
                for i in range(1, n) for j in range(i + 1, n + 1)}
    # x^(q^n) = x, so lam is linearized over GF(q) with c_k the sum of
    # the beta_ij whose i or j is k mod n
    c = [0] * n
    for (i, j), b in beta.items():
        for k in (i % n, j % n):
            c[k] = ctx.add(c[k], b)
    lam = linearized_tabulate(linearized(ctx, q, c))
    sub = subfield_elements(ctx, e)
    sub_set = set(sub)
    # gamma is a 0-linear translator for every u in GF(q) iff for an
    # F_p-basis of it: the u that pass are closed under addition
    for u in _span_basis(ctx, sub):
        ug = ctx.mul(u, gamma)
        for x in ctx.elements():
            if lam[ctx.add(x, ug)] != lam[x]:
                raise NotTranslator(
                    f"gamma = {gamma} is not a 0-linear translator with "
                    f"respect to GF({q}): witness (x, u) = ({x}, {u})",
                    witness=(x, u))
    for s in sub:
        if eval_poly(G, s) not in sub_set:
            raise ConditionFail(
                f"G does not map GF({q}) into itself at {s}", witness=s)
    fam = translator_family(ctx, lam, gamma, 0, G)
    return _certified_involution(fam, check_translator_involution(fam))
