"""Reference GF(p^n) arithmetic and checks for the benchmark.

Nothing here imports ppinv: the benchmark computes every forward table,
involution verdict and expected CLI report with this module, so a wrong
answer from the program cannot also be the reference it is checked against.
Elements use the same packed base-p encoding as ppinv (index 0 is zero,
index 1 is one), and fields use the same default modulus: the
lexicographically least monic irreducible, coefficients compared
low-to-high.
"""

from __future__ import annotations

import itertools
import math


def _poly_rem(a: list, b: list, p: int) -> list:
    a = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            factor = (c * inv_lead) % p
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - factor * b[j]) % p
    return a[:db] if db else [0]


def _irreducible(coeffs: tuple, p: int) -> bool:
    n = len(coeffs) - 1
    if n == 1:
        return True
    if coeffs[0] == 0:
        return False
    for d in range(1, n // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            if not any(_poly_rem(coeffs, list(low) + [1], p)):
                return False
    return True


def least_irreducible(p: int, n: int) -> tuple:
    """Lexicographically least monic irreducible of degree n over F_p."""
    if n == 1:
        return (0, 1)
    for low in itertools.product(range(p), repeat=n):
        if low[0] and _irreducible(low + (1,), p):
            return low + (1,)
    raise ValueError(f"no irreducible polynomial of degree {n} over F_{p}")


class Field:
    """GF(p^n) with exp/log tables built by walking the powers of a
    generator found by a small search."""

    def __init__(self, p: int, n: int):
        self.p, self.n, self.q = p, n, p ** n
        self.modulus = least_irreducible(p, n)
        self._mod_int = self.pack(self.modulus)
        self._build_tables()

    def digits(self, x: int) -> list:
        out = []
        for _ in range(self.n):
            x, r = divmod(x, self.p)
            out.append(r)
        return out

    def pack(self, digs) -> int:
        acc = 0
        for d in reversed(digs):
            acc = acc * self.p + d
        return acc

    def _times_x(self, a: int) -> int:
        p, n = self.p, self.n
        if p == 2:
            a <<= 1
            return a ^ self._mod_int if a >> n else a
        d = self.digits(a)
        top = d[-1]
        d = [0] + d[:-1]
        if top:
            d = [(v - top * m) % p for v, m in zip(d, self.modulus)]
        return self.pack(d)

    def _times(self, a: int, g_digits: list) -> int:
        acc, cur = 0, a
        for c in g_digits:
            if c == 1:
                acc = self.add(acc, cur)
            elif c:
                acc = self.add(acc, self.pack([(c * v) % self.p
                                              for v in self.digits(cur)]))
            cur = self._times_x(cur)
        return acc

    def _build_tables(self):
        q = self.q
        for g in range(2, q) if q > 2 else (1,):
            g_digits = self.digits(g)
            exp = [1] * (q - 1)
            cur = 1
            for i in range(1, q - 1):
                cur = self._times(cur, g_digits)
                if cur == 1:
                    break
                exp[i] = cur
            else:
                if q == 2 or self._times(cur, g_digits) == 1:
                    break
        else:
            raise ValueError(f"modulus {self.modulus} is not irreducible")
        log = [-1] * q
        for i, v in enumerate(exp):
            log[v] = i
        self.exp, self.log = exp, log

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p = self.p
        return self.pack([(u + v) % p
                          for u, v in zip(self.digits(a), self.digits(b))])

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        return self.pack([(-u) % self.p for u in self.digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        """a^e with 0^0 = 1; exponents act mod q-1 on units."""
        if a == 0:
            return 1 if e == 0 else 0
        return self.exp[(self.log[a] * e) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.pow(b, -1))

    def frob(self, x: int, k: int) -> int:
        return self.pow(x, self.p ** k)

    def subfield(self, d: int) -> list:
        return [x for x in range(self.q) if self.frob(x, d) == x]

    def trace(self, d: int, x: int) -> int:
        """Relative trace onto the degree-d subfield."""
        acc, cur = 0, x
        for _ in range(self.n // d):
            acc = self.add(acc, cur)
            cur = self.frob(cur, d)
        return acc

    def roots_of_unity(self, ell: int) -> list:
        step = (self.q - 1) // ell
        return sorted(self.exp[step * j] for j in range(ell))


# polynomials as {exponent: coefficient} maps

def render(terms: dict) -> str:
    """Low-to-high printed form in the ppinv expression grammar, matching
    its ``print_poly`` layout (``2 + x + 5*x^3``, ``0`` when empty)."""
    out = []
    for e in sorted(terms):
        c = terms[e]
        if not c:
            continue
        if e == 0:
            out.append(str(c))
            continue
        base = "x" if e == 1 else f"x^{e}"
        out.append(base if c == 1 else f"{c}*{base}")
    return " + ".join(out) if out else "0"


def parse_printed(text: str) -> dict:
    """Inverse of :func:`render`."""
    terms: dict = {}
    if text == "0":
        return terms
    for tok in text.split(" + "):
        coeff, _, mono = tok.rpartition("*") if "x" in tok else ("", "", tok)
        if "x" in mono:
            e = int(mono[2:]) if mono.startswith("x^") else 1
            if mono not in ("x", f"x^{e}"):
                raise ValueError(f"bad term {tok!r}")
            c = int(coeff) if coeff else 1
        else:
            e, c = 0, int(mono)
        if e in terms or c == 0:
            raise ValueError(f"repeated or zero term in {text!r}")
        terms[e] = c
    return terms


def evaluate(F: Field, terms: dict, x: int) -> int:
    acc = 0
    for e, c in terms.items():
        acc = F.add(acc, F.mul(c, F.pow(x, e)))
    return acc


# checks

def inverse_errors(forward, inverse) -> list:
    """Why ``inverse`` fails to invert ``forward``, in both directions."""
    q = len(forward)
    if len(inverse) != q or any(not 0 <= v < q for v in inverse):
        return ["inverse table has the wrong length or range"]
    errs = []
    bad = next((x for x in range(q) if inverse[forward[x]] != x), None)
    if bad is not None:
        errs.append(f"inv(f({bad})) != {bad}")
    bad = next((x for x in range(q) if forward[inverse[x]] != x), None)
    if bad is not None:
        errs.append(f"f(inv({bad})) != {bad}")
    return errs


def is_involution(forward) -> bool:
    return all(forward[forward[x]] == x for x in range(len(forward)))


def first_collision(table):
    seen: dict = {}
    for x, y in enumerate(table):
        if y in seen:
            return [seen[y], x]
        seen[y] = x
    return None


def agw_report(q, f, lam, lam_bar, g: dict, S, S_bar) -> dict:
    """The verifier's finite checks, recomputed from their definitions."""
    lam_sur = set(lam) == set(S)
    bar_sur = set(lam_bar) == set(S_bar)
    commutes = all(lam_bar[f[x]] == g[lam[x]] for x in range(q))
    g_bij = set(g.values()) == set(S_bar)
    fibers: dict = {}
    for x in range(q):
        fibers.setdefault(lam[x], []).append(f[x])
    fiber_inj = all(len(set(v)) == len(v) for v in fibers.values())
    f_bij = len(set(f)) == q
    premises = lam_sur and bar_sur and commutes
    return {"lambda_surjective": lam_sur, "lambda_bar_surjective": bar_sur,
            "commutes": commutes, "g_bijective": g_bij,
            "fiber_injective": fiber_inj, "f_bijective": f_bij,
            "lemma_consistent": (not premises
                                 or f_bij == (g_bij and fiber_inj))}


def mul_candidate_ok(F: Field, r: int, s: int, h: dict) -> bool:
    """Whether x^r h(x^s) satisfies the multiplicative family's hypotheses:
    s | q-1, gcd(r, s) = 1, h nowhere zero and g(z) = z^r h(z)^s injective
    on the (q-1)/s-th roots of unity."""
    if (F.q - 1) % s or math.gcd(r, s) != 1:
        return False
    seen = set()
    for z in F.roots_of_unity((F.q - 1) // s):
        hz = evaluate(F, h, z)
        if hz == 0:
            return False
        gz = F.mul(F.pow(z, r), F.pow(hz, s))
        if gz in seen:
            return False
        seen.add(gz)
    return True
