"""Polynomial values over GF(q): expression parsing, evaluation,
reduction modulo x^q - x, interpolation, and linearized-polynomial
inversion.

Every polynomial, :class:`PolyFq` and :class:`LinearizedPoly` alike,
carries its nonzero terms, and one routine evaluates both: one exp-table
lookup per term, and p(0) is the constant term (0^0 = 1, 0^e = 0, e >= 1).

:func:`interpolate` reads closed-form coefficients off the Fourier
transform on F_q^* (:func:`ppinv.gf_core.unit_dft`), O(q * sum of the prime
factors of q-1), and certifies them by evaluating back at every element.

Expression grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' int)?
    base   := int | 'x' | 'Tr' '{' int '}' '(' expr ')' | '(' expr ')'
    int    := '-'? [0-9]+

Integer constants denote elements by packed index; a negative constant is
the additive inverse of its absolute value.  A negative exponent ``-k`` is
sugar for the exponent in ``[1, q-1]`` congruent to ``-k`` mod ``q-1``,
which bakes the 0^-k = 0 convention into the resulting polynomial.

Text is evaluated as it is parsed, with no syntax tree in between, so the
first error in text order is the one reported: a syntax error, a constant
out of range or a trace degree that does not divide n.  Sums and products
fold in a loop; parentheses and traces nested too deeply to parse raise
:class:`PolySyntaxError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest
from typing import Sequence

from .errors import (BadTraceDegree, CertificationFailed, ConstantOutOfRange,
                     CtxMismatch, LengthMismatch, PolySyntaxError, Singular)
from .gf_core import FieldCtx, check_ints, p_power_degree, unit_dft


@dataclass(frozen=True)
class PolyFq:
    """Dense polynomial over F_q: coefficients low-to-high, trailing zeros
    trimmed.  After :func:`reduce_mod_field` the degree is below q."""

    ctx: FieldCtx
    coeffs: tuple

    def __repr__(self):
        return f"PolyFq({print_poly(self)!r})"

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @cached_property
    def terms(self) -> tuple:
        """The (exponent, coefficient) pairs with c != 0, ascending."""
        return tuple((e, c) for e, c in enumerate(self.coeffs) if c)


def make_poly(ctx: FieldCtx, coeffs: Sequence[int]) -> PolyFq:
    cs = tuple(check_ints(coeffs, "coefficients", 0, ctx.q))
    end = len(cs)
    while end and cs[end - 1] == 0:
        end -= 1
    return PolyFq(ctx, cs[:end])


def zero(ctx: FieldCtx) -> PolyFq:
    return PolyFq(ctx, ())


def constant(ctx: FieldCtx, c: int) -> PolyFq:
    return make_poly(ctx, [c])


def xvar(ctx: FieldCtx) -> PolyFq:
    return make_poly(ctx, [0, 1])


def monomial(ctx: FieldCtx, e: int, c: int = 1) -> PolyFq:
    return make_poly(ctx, [0] * e + [c])


def _require_same_ctx(a: PolyFq, b: PolyFq):
    if a.ctx != b.ctx:
        raise CtxMismatch("polynomials belong to different fields")


def poly_add(a: PolyFq, b: PolyFq) -> PolyFq:
    return _coefficientwise(a, b, a.ctx.add)


def poly_sub(a: PolyFq, b: PolyFq) -> PolyFq:
    return _coefficientwise(a, b, a.ctx.sub)


def _coefficientwise(a: PolyFq, b: PolyFq, op) -> PolyFq:
    _require_same_ctx(a, b)
    return make_poly(a.ctx, [op(u, v) for u, v in
                             zip_longest(a.coeffs, b.coeffs, fillvalue=0)])


def poly_mul(a: PolyFq, b: PolyFq) -> PolyFq:
    _require_same_ctx(a, b)
    ctx = a.ctx
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ai in a.terms:
        for j, bj in b.terms:
            out[i + j] = ctx.add(out[i + j], ctx.mul(ai, bj))
    return make_poly(ctx, out)


def _fold_exponent(e: int, q: int) -> int:
    # x^q = x on F_q, so exponents >= q fold into [1, q-1].
    return e if e < q else (e - 1) % (q - 1) + 1


def reduce_mod_field(p: PolyFq) -> PolyFq:
    """The unique degree < q polynomial with the same evaluation map."""
    q = p.ctx.q
    if len(p.coeffs) <= q:
        return make_poly(p.ctx, p.coeffs)
    acc = [0] * q
    ctx = p.ctx
    for e, c in p.terms:
        e2 = _fold_exponent(e, q)
        acc[e2] = ctx.add(acc[e2], c)
    return make_poly(ctx, acc)


def poly_pow(p: PolyFq, e: int) -> PolyFq:
    """p^e reduced mod x^q - x; e must be nonnegative (the parser rewrites
    negative exponents before calling)."""
    if e < 0:
        raise ValueError("poly_pow expects a nonnegative exponent")
    ctx = p.ctx
    if e == 0:
        return constant(ctx, 1)
    e = _fold_exponent(e, ctx.q) if e >= ctx.q else e
    acc = constant(ctx, 1)
    base = reduce_mod_field(p)
    while e:
        if e & 1:
            acc = reduce_mod_field(poly_mul(acc, base))
        e >>= 1
        if e:
            base = reduce_mod_field(poly_mul(base, base))
    return acc


def poly_frob(p: PolyFq, k: int) -> PolyFq:
    """p^(p^k) via the additive Frobenius in one pass: the sum of
    c^(p^k) * x^(e * p^k), with exponents folded mod x^q - x.  O(deg)."""
    ctx = p.ctx
    pk = ctx.p ** k
    acc = {}
    for e, c in p.terms:
        e2 = _fold_exponent(e * pk, ctx.q)
        acc[e2] = ctx.add(acc.get(e2, 0), ctx.frob(c, k))
    cs = [0] * (max(acc, default=-1) + 1)
    for e2, c in acc.items():
        cs[e2] = c
    return make_poly(ctx, cs)


def _eval_terms(ctx: FieldCtx, terms: tuple, x: int) -> int:
    """The sum of c * x^e over ascending ``terms``: one lookup
    exp[(log c + e log x) mod (q-1)] per term; at x = 0 the e = 0 term."""
    if x == 0:
        return terms[0][1] if terms and terms[0][0] == 0 else 0
    exp, log, add, qm1 = ctx._exp, ctx._log, ctx.add, ctx.q - 1
    lx = log[x]
    acc = 0
    for e, c in terms:
        acc = add(acc, exp[(log[c] + e * lx) % qm1])
    return acc


def eval_poly(p: PolyFq, x: int) -> int:
    """p(x), summed over the nonzero terms of p (0^0 = 1, so p(0) is the
    constant coefficient); O(number of terms), whatever the degree."""
    return _eval_terms(p.ctx, p.terms, x)


def tabulate(p: PolyFq) -> list:
    return [eval_poly(p, x) for x in p.ctx.elements()]


def interpolate(ctx: FieldCtx, table: Sequence[int]) -> PolyFq:
    """The unique polynomial of degree < q through a full value table
    (``table[x]`` is the image of x; every entry an int in [0, q)).

    The coefficients are closed-form (Lidl & Niederreiter, *Finite Fields*,
    ch. 7): c_0 = F(0), c_k = -sum over a != 0 of F(a) * a^(-k) for
    1 <= k <= q-2, and c_(q-1) = -sum over all a of F(a).  With
    V = :func:`~ppinv.gf_core.unit_dft` of the table, c_k = -V[k] and
    c_(q-1) = -(F(0) + V[0]).  The transform costs O(q * sum of the prime
    factors of q-1, with multiplicity), and a q-1 with a large prime factor
    degrades toward O(q^2).  The answer certifies itself: the backward
    transform evaluates it at every element, and a mismatch raises
    :class:`CertificationFailed` with the first failing x as witness.
    """
    q = ctx.q
    if len(check_ints(table, "table", 0, q)) != q:
        raise LengthMismatch(f"table length {len(table)} is out of range: "
                             f"expected q = {q}")
    f0 = table[0]
    V = unit_dft(ctx, table)
    coeffs = ([f0] + [ctx.neg(v) for v in V[1:]]
              + [ctx.neg(ctx.add(f0, V[0]))])
    # x^(q-1) is 1 on F_q^*, so its coefficient joins the constant there
    values = unit_dft(ctx, [ctx.add(coeffs[0], coeffs[-1])] + coeffs[1:-1],
                      backward=True)
    values[0] = coeffs[0]
    bad = next((x for x in range(q) if values[x] != table[x]), None)
    if bad is not None:
        raise CertificationFailed(
            f"interpolant takes {values[bad]} at x = {bad}, table has "
            f"{table[bad]}", witness=bad)
    return make_poly(ctx, coeffs)


def print_poly(p: PolyFq) -> str:
    """Low-to-high printed form, e.g. ``2 + x + 5*x^3``; parses back to the
    same polynomial."""
    terms = []
    for e, c in p.terms:
        base = "x" if e == 1 else f"x^{e}"
        terms.append(str(c) if e == 0 else base if c == 1 else f"{c}*{base}")
    return " + ".join(terms) or "0"


# expression parser

class _Parser:
    """Recursive descent over the grammar above; each rule returns the
    polynomial its text denotes, reduced mod x^q - x."""

    def __init__(self, text: str, ctx: FieldCtx):
        self.text = text
        self.ctx = ctx
        self.pos = 0

    def fail(self, message: str):
        raise PolySyntaxError(f"{message} at position {self.pos}", self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.peek() != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> PolyFq:
        try:
            poly = self.expr()
        except RecursionError:
            # only parentheses and Tr{d}(...) recurse; sums and products
            # fold in a loop
            self.fail("expression nested too deeply")
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail("unexpected trailing input")
        return poly

    def expr(self) -> PolyFq:
        acc = self.term()
        while True:
            self.skip_ws()
            op = self.peek()
            if op not in ("+", "-"):
                return acc
            self.pos += 1
            acc = (poly_add if op == "+" else poly_sub)(acc, self.term())

    def term(self) -> PolyFq:
        acc = self.factor()
        while True:
            self.skip_ws()
            if self.peek() != "*":
                return acc
            self.pos += 1
            acc = reduce_mod_field(poly_mul(acc, self.factor()))

    def factor(self) -> PolyFq:
        base = self.base()
        self.skip_ws()
        if self.peek() != "^":
            return base
        self.pos += 1
        e, q = self.int_literal(), self.ctx.q
        if e < 0:
            e = e % (q - 1) or q - 1
        if base.coeffs == (0, 1):  # x^e needs no repeated squaring
            return monomial(self.ctx, _fold_exponent(e, q))
        return poly_pow(base, e)

    def base(self) -> PolyFq:
        self.skip_ws()
        ch, start, ctx = self.peek(), self.pos, self.ctx
        if "0" <= ch <= "9" or ch == "-":
            v = self.int_literal()
            if abs(v) >= ctx.q:
                raise ConstantOutOfRange(
                    f"constant {v} out of range for q = {ctx.q} "
                    f"(position {start})", witness=v)
            return constant(ctx, v if v >= 0 else ctx.neg(-v))
        if ch == "x":
            self.pos += 1
            return xvar(ctx)
        if ch == "T":
            if not self.text.startswith("Tr", self.pos):
                self.fail("expected 'Tr'")
            self.pos += 2
            self.expect("{")
            d = self.int_literal()
            self.expect("}")
            if d < 1 or ctx.n % d != 0:
                raise BadTraceDegree(
                    f"trace degree {d} does not divide n = {ctx.n} "
                    f"(position {start})", witness=d)
            self.expect("(")
            arg = reduce_mod_field(self.expr())
            self.expect(")")
            acc = zero(ctx)
            for i in range(ctx.n // d):
                acc = poly_add(acc, poly_frob(arg, d * i))
            return acc
        if ch == "(":
            self.pos += 1
            poly = self.expr()
            self.expect(")")
            return poly
        self.fail("expected a constant, 'x', 'Tr{d}(...)' or '('")

    def int_literal(self) -> int:
        self.skip_ws()
        sign = 1
        if self.peek() == "-":
            sign = -1
            self.pos += 1
            self.skip_ws()
        # ASCII digits only: str.isdigit also takes "²", "٣" and the like
        if not "0" <= self.peek() <= "9":
            self.fail("expected an integer")
        start = self.pos
        while "0" <= self.peek() <= "9":
            self.pos += 1
        return sign * int(self.text[start:self.pos])


def parse_poly_expr(text: str, ctx: FieldCtx) -> PolyFq:
    """Parse an expression into the fully reduced polynomial it denotes as a
    function on F_q.  Raises the first error in text order:
    :class:`PolySyntaxError` (also for nesting too deep to parse),
    :class:`ConstantOutOfRange` or :class:`BadTraceDegree`."""
    return reduce_mod_field(_Parser(text, ctx).parse())


# linearized (q0-)polynomials

@dataclass(frozen=True)
class LinearizedPoly:
    """L(x) = sum of c_i * x^(q0^i) over GF(q0^m); additive as a map."""

    ctx: FieldCtx
    base: int
    coeffs: tuple

    @cached_property
    def terms(self) -> tuple:
        """The (q0^i, c_i) pairs with c_i != 0; validates the base."""
        q0 = self.ctx.p ** p_power_degree(self.ctx, self.base)
        return tuple((q0 ** i, c) for i, c in enumerate(self.coeffs) if c)


def linearized(ctx: FieldCtx, base: int, coeffs: Sequence[int]) -> LinearizedPoly:
    m = ctx.n // p_power_degree(ctx, base)
    cs = list(check_ints(coeffs, "coefficients", 0, ctx.q))
    if len(cs) > m:
        raise ValueError(f"at most {m} coefficients allowed over base {base}")
    cs += [0] * (m - len(cs))
    return LinearizedPoly(ctx, base, tuple(cs))


def linearized_eval(L: LinearizedPoly, x: int) -> int:
    return _eval_terms(L.ctx, L.terms, x)


def linearized_tabulate(L: LinearizedPoly) -> list:
    """L on every element from L(p^j) alone: L(x) = L(x - e) + L(e), e the
    place value of x's top base-p digit, one addition per element."""
    ctx, table = L.ctx, [0]
    for e in (ctx.p ** j for j in range(ctx.n)):
        le = linearized_eval(L, e)
        for _ in range(ctx.p - 1):
            table += [ctx.add(v, le) for v in table[-e:]]
    return table


def linearized_inverse(L: LinearizedPoly) -> LinearizedPoly:
    """The linearized compositional inverse M = sum of b_j x^(q0^j) of a
    bijective L = sum of a_i x^(q0^i), with indices mod m = n / log_p q0.

    The coefficient of x^(q0^k) in M(L(x)) is the sum over j of
    b_j * a_(k-j)^(q0^j), so M is the inverse exactly when that sum is 1
    for k = 0 and 0 for 0 < k < m.  This m x m system over F_q is solved
    by one Gauss-Jordan elimination.  Its matrix is the transposed Dickson
    matrix of L, nonsingular iff L is a bijection (Wu & Liu, "Linearized
    polynomials over finite fields revisited", *Finite Fields Appl.* 22,
    2013), so a missing pivot raises :class:`Singular`.  The answer is
    certified on the F_p-basis p^j of F_q: M(L(p^j)) = p^j for every j < n,
    or :class:`CertificationFailed` with the failing p^j as witness.
    """
    ctx = L.ctx
    d = p_power_degree(ctx, L.base)
    m = ctx.n // d
    a = L.coeffs + (0,) * (m - len(L.coeffs))
    rows = [[ctx.frob(a[(k - j) % m], d * j) for j in range(m)]
            + [1 if k == 0 else 0] for k in range(m)]
    for col in range(m):
        piv = next((r for r in range(col, m) if rows[r][col]), None)
        if piv is None:
            raise Singular("the linearized polynomial is not a bijection")
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = ctx.inv(rows[col][col])
        rows[col] = [ctx.mul(v, inv) for v in rows[col]]
        for r in range(m):
            f = rows[r][col]
            if r != col and f:
                rows[r] = [ctx.sub(u, ctx.mul(f, v))
                           for u, v in zip(rows[r], rows[col])]
    out = linearized(ctx, L.base, [row[m] for row in rows])
    for e in (ctx.p ** j for j in range(ctx.n)):
        if linearized_eval(out, linearized_eval(L, e)) != e:
            raise CertificationFailed(
                f"inverse does not undo L at basis element {e}", witness=e)
    return out
