"""Seeded family instances for the benchmark.

Each generator draws parameters from a ``random.Random`` and keeps only
draws whose hypotheses hold, checked with the reference arithmetic in
:mod:`oracle`, so no generated op is rejected by the program.  A
:class:`Spec` carries the parameters in descriptor form and the forward
table the benchmark computed itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from oracle import Field, evaluate, mul_candidate_ok, render


@dataclass
class Spec:
    family: str   # mul, add, hybrid, translator or niu
    maker: str    # "" for the generic constructor, else the make_* name
    p: int
    n: int
    params: dict  # descriptor parameters (maker arguments when maker != "")
    forward: list

    @property
    def q(self) -> int:
        return self.p ** self.n

    def descriptor(self) -> dict:
        return {"family": self.family, "field": {"p": self.p, "n": self.n},
                **self.params}


class Tables:
    """Reference field plus the trace and subfield tables its generators
    reuse."""

    def __init__(self, p: int, n: int):
        self.F = Field(p, n)
        self._cache: dict = {}

    def _memo(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def trace(self, d: int, m: int = 1) -> list:
        """x -> Tr_d(x^m) as a table."""
        F = self.F
        return self._memo(("tr", d, m), lambda: [
            F.trace(d, F.pow(x, m)) for x in range(F.q)])

    def subfield(self, d: int) -> list:
        return self._memo(("sub", d), lambda: self.F.subfield(d))


def _proper_divisors(n: int) -> list:
    return [d for d in range(1, n) if n % d == 0]


def _poly(rng, pool, degree: int, const_nonzero=False) -> dict:
    terms = {e: rng.choice(pool) for e in range(degree + 1)}
    if const_nonzero:
        terms[0] = rng.choice([c for c in pool if c])
    return {e: c for e, c in terms.items() if c}


def _injective(values) -> bool:
    values = list(values)
    return len(set(values)) == len(values)


def mul(T: Tables, rng) -> Spec:
    """x^r h(x^s) with (q-1)/s small, so random h often gives a bijective
    g(z) = z^r h(z)^s on the roots of unity."""
    F = T.F
    q = F.q
    ells = [d for d in range(2, 9) if (q - 1) % d == 0]
    while True:
        s = (q - 1) // rng.choice(ells)
        r = rng.randrange(1, q - 1)
        h = _poly(rng, range(q), rng.randrange(3))
        if h and mul_candidate_ok(F, r, s, h):
            break
    fwd = [0] + [F.mul(F.pow(x, r), evaluate(F, h, F.pow(x, s)))
                 for x in range(1, q)]
    return Spec("mul", "", F.p, F.n, {"r": r, "s": s, "h": render(h)}, fwd)


def add(T: Tables, rng) -> Spec:
    """g + g0 o Tr_d with g linearized over the degree-d subfield."""
    F = T.F
    d = rng.choice(_proper_divisors(F.n))
    lam = T.trace(d)
    sub = T.subfield(d)
    kernel = [x for x in range(F.q) if lam[x] == 0]
    while True:
        coeffs = [rng.choice(sub) for _ in range(F.n)]
        g = []
        for x in range(F.q):
            acc = 0
            for j, c in enumerate(coeffs):
                acc = F.add(acc, F.mul(c, F.frob(x, j)))
            g.append(acc)
        if _injective(g):
            break
    g0 = {s: rng.choice(kernel) for s in sorted(set(lam))}
    fwd = [F.add(g[x], g0[lam[x]]) for x in range(F.q)]
    return Spec("add", "", F.p, F.n,
                {"g": g, "g0": g0, "lambda": lam}, fwd)


def hybrid(T: Tables, rng) -> Spec:
    """x h(Tr_e(x^m)) with k = x^m, over S = GF(p^e): GF(4) in
    characteristic 2 (F_2 would force h = 1 on S), F_p otherwise."""
    F = T.F
    e = 2 if F.p == 2 else 1
    m = rng.choice((1, 2, 3))
    lam = T.trace(e, m)
    S = T.subfield(e)
    L = sorted(set(lam))
    while True:
        h = _poly(rng, S, 2, const_nonzero=True)
        hv = [evaluate(F, h, y) for y in L]
        if all(hv) and _injective(F.mul(y, F.pow(v, m))
                                  for y, v in zip(L, hv)):
            break
    fwd = [F.mul(x, evaluate(F, h, lam[x])) for x in range(F.q)]
    return Spec("hybrid", "", F.p, F.n,
                {"h": render(h), "k": render({m: 1}), "lambda": lam,
                 "S": S}, fwd)


def translator(T: Tables, rng) -> Spec:
    """x + gamma G(Tr_d(x)), b = Tr_d(gamma), G over the subfield."""
    F = T.F
    d = 2 if F.p == 2 else 1
    lam = T.trace(d)
    sub = T.subfield(d)
    while True:
        gamma = rng.randrange(1, F.q)
        b = lam[gamma]
        G = _poly(rng, sub, rng.randrange(3))
        if _injective(F.add(y, F.mul(b, evaluate(F, G, y))) for y in sub):
            break
    fwd = [F.add(x, F.mul(gamma, evaluate(F, G, lam[x])))
           for x in range(F.q)]
    return Spec("translator", "", F.p, F.n,
                {"lambda": lam, "gamma": gamma, "b": b, "G": render(G)}, fwd)


def niu(T: Tables, rng) -> Spec:
    """g(x^(q0^i) - x + delta) + c x with g = beta x + alpha.  The
    auxiliary map h(x) = beta^s x^s + (c - beta) x + const, s = q0^i, is a
    bijection iff beta in {0, c} or (beta - c)/beta^s is not an (s-1)-th
    power."""
    F = T.F
    q = F.q
    e = rng.choice(_proper_divisors(F.n))
    q0, m = F.p ** e, F.n // e
    i = rng.randint(1, m - 1)
    c = rng.choice([x for x in T.subfield(e * math.gcd(i, m)) if x])
    sigma = q0 ** i
    beta = rng.randrange(q)
    if beta not in (0, c):
        t = F.div(F.sub(beta, c), F.pow(beta, sigma))
        if F.pow(t, (q - 1) // math.gcd(sigma - 1, q - 1)) == 1:
            beta = c
    g = {0: rng.randrange(q), 1: beta}
    delta = rng.randrange(q)
    fwd = [F.add(evaluate(F, g, F.add(F.sub(F.pow(x, sigma), x), delta)),
                 F.mul(c, x)) for x in range(q)]
    return Spec("niu", "", F.p, F.n,
                {"q": q0, "g": render(g), "i": i, "c": c, "delta": delta},
                fwd)


def _abs_trace(F: Field, x: int, e: int) -> int:
    acc, cur = 0, x
    for _ in range(e):
        acc = F.add(acc, cur)
        cur = F.frob(cur, 1)
    return acc


def kuozhan(T: Tables, rng) -> Spec:
    """The inversion-type involution x^(Q-2) h(x^(q-1)) on GF(q^2), q even."""
    F = T.F
    e = F.n // 2
    q0, Q = 2 ** e, F.q
    sub = [x for x in T.subfield(e) if x]
    k = rng.choice([k for k in range(1, q0) if math.gcd(k, q0 + 1) == 1])
    gamma = rng.choice(sub)
    beta = rng.choice([b for b in sub if _abs_trace(F, b, e) == 0])
    gb = F.mul(gamma, beta)
    h: dict = {}
    for exponent, coeff in ((Q - 2, gamma), (Q - 2 - k, gb), (k - 1, gb)):
        h[exponent] = F.add(h.get(exponent, 0), coeff)
    fwd = [0] + [F.mul(F.pow(x, Q - 2), evaluate(F, h, F.pow(x, q0 - 1)))
                 for x in range(1, Q)]
    return Spec("mul", "kuozhan", F.p, F.n,
                {"q": q0, "k": k, "gamma": gamma, "beta": beta}, fwd)


def trace_gadget(T: Tables, rng) -> Spec:
    """The additive involution x + g0(Tr_e(x)), n/e even."""
    F = T.F
    e = rng.choice([e for e in _proper_divisors(F.n) if (F.n // e) % 2 == 0])
    lam = T.trace(e)
    g0 = _poly(rng, T.subfield(e), 2)
    fwd = [F.add(x, evaluate(F, g0, lam[x])) for x in range(F.q)]
    return Spec("add", "trace_gadget", F.p, F.n,
                {"q": 2 ** e, "g0": render(g0)}, fwd)


def zero_translator(T: Tables, rng, e: int = 2) -> Spec:
    """x + gamma G(lambda(x)) with beta = (beta_1, 0, ..., 0) over GF(2^e);
    with n/e even, lambda = beta_1 Tr_e, and gamma is drawn from the trace
    kernel so that it is a 0-linear translator."""
    F = T.F
    m = F.n // e
    lam = T.trace(e)
    sub = T.subfield(e)
    beta1 = rng.choice([x for x in sub if x])
    gamma = rng.choice([x for x in range(1, F.q) if lam[x] == 0])
    G = _poly(rng, sub, 2)
    fwd = [F.add(x, F.mul(gamma, evaluate(F, G, F.mul(beta1, lam[x]))))
           for x in range(F.q)]
    return Spec("translator", "zero_translator", F.p, F.n,
                {"q": 2 ** e, "beta": [beta1] + [0] * (m - 2),
                 "G": render(G), "gamma": gamma}, fwd)


GENERATORS = {"mul": mul, "add": add, "hybrid": hybrid,
              "translator": translator, "niu": niu, "kuozhan": kuozhan,
              "trace_gadget": trace_gadget,
              "zero_translator": zero_translator}
