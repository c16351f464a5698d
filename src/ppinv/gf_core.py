"""Exact arithmetic in GF(p^n).

Field elements are plain integers in ``[0, q)``, q = p^n: the coefficient
vector (a0, ..., a_{n-1}) of an element written over F_p is packed in base
p as ``sum(a_i * p**i)``.  Index 0 is the additive identity and index 1 the
multiplicative identity, and all I/O (JSON, CLI) uses this encoding.

A :class:`FieldCtx` freezes the modulus and discrete exp/log tables, so
multiplication, inversion and powering are one table lookup each, for every
field up to the enumeration bound.  Addition takes one of three branches:
XOR when p = 2, addition mod p when n = 1, and in every other field (p odd,
n >= 2) Zech logarithms, a third table beside exp/log.
:func:`check_int` and its sequence form :func:`check_ints` are the one
boundary rule for every number the library takes in: an ``int`` that is not
a ``bool``, within its bounds (an element lies in ``[0, q)``), never
coerced; anything else raises ``ValueError``.
:func:`unit_dft` is the Fourier transform on F_q^* in the coordinates of
those tables.
Everything here is a pure function of immutable inputs; contexts can be
shared freely between threads.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

from .errors import (CertificationFailed, NotCoprime, NotDivisor, NotPrime,
                     Reducible, TooLarge)

# The largest field accepted: every answer is certified by enumerating
# F_q, and the exp/log tables of GF(2^20) take about 100 MB.
DEFAULT_ENUM_BOUND = 1 << 20


def check_int(value, name: str, lo: Optional[int] = None,
              hi: Optional[int] = None) -> int:
    """Return ``value`` if it is an ``int``, not a ``bool``, with lo <= value
    < hi (a bound that is None is open); raise ``ValueError`` otherwise.
    Nothing is coerced: 1.5, "3" and True are refused, not read as 1, 3, 1.
    """
    if (type(value) is not int or lo is not None and value < lo
            or hi is not None and value >= hi):
        bound = ("" if lo is None else f" >= {lo}" if hi is None
                 else f" in [{lo}, {hi})")
        raise ValueError(f"{name} = {value!r:.60} is out of range: expected "
                         f"an int{bound}")
    return value


def check_ints(values, name: str, lo: int, hi: int):
    """The sequence form of :func:`check_int`: ``values`` must be a list or
    tuple of ints in [lo, hi), and is returned unchanged."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{name} = {values!r:.60} is out of range: expected "
                         f"a list of ints in [{lo}, {hi})")
    kind, exact = type, int  # locals: this loop runs over whole tables
    for v in values:
        if kind(v) is not exact or v < lo or v >= hi:
            check_int(v, f"{name} member", lo, hi)  # raises
    return values


def check_object(value, name: str) -> dict:
    """Return ``value`` if it is a dict (a JSON object); raise
    ``ValueError`` otherwise, as :func:`check_int` does."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} = {value!r:.60} is out of range: expected "
                         f"an object")
    return value


def _prime_factors(m: int) -> tuple:
    """The prime factors of m, ascending and repeated by multiplicity."""
    out = []
    d = 2
    while d * d <= m:
        while m % d == 0:
            out.append(d)
            m //= d
        d += 1
    if m > 1:
        out.append(m)
    return tuple(out)


def _poly_rem(a: list, b: list, p: int) -> list:
    """Remainder of a modulo b over F_p; coefficient lists low-to-high."""
    a = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            factor = (c * inv_lead) % p
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - factor * b[j]) % p
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= n/2."""
    n = len(coeffs) - 1
    if n == 1:
        return True
    if coeffs[0] == 0:
        return False
    for d in range(1, n // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            divisor = list(low) + [1]
            rem = _poly_rem(coeffs, divisor, p)
            if len(rem) == 1 and rem[0] == 0:
                return False
    return True


def _default_modulus(p: int, n: int) -> tuple:
    """Lexicographically least monic irreducible (coefficients compared
    low-to-high); for n = 1 this is the polynomial x."""
    if n == 1:
        return (0, 1)
    for low in itertools.product(range(p), repeat=n):
        if low[0] == 0:
            continue  # divisible by x
        cand = low + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FieldCtx:
    """Immutable arithmetic context for GF(p^n).

    Not constructed directly; use :func:`build_field`.  For speed the
    arithmetic does not check its arguments: every element passed in must
    be an int in [0, q) (a negative one silently reads the tables from the
    end).  The public constructors pass their inputs through the one
    boundary rule, :func:`check_int`/:func:`check_ints`, instead.

    ``add``, ``sub`` and ``neg`` are XOR when p = 2 and arithmetic mod p
    when n = 1.  Every odd extension field (p odd, n >= 2) also keeps the
    Zech logarithms ``_zech[k] = log(1 + g^k)`` (-1 where 1 + g^k = 0; g
    is ``_exp[1]``), one more list of q - 1 ints, so that they are table
    lookups there too (Lidl & Niederreiter, *Finite Fields*); elsewhere
    ``_zech`` is None.
    """

    __slots__ = ("p", "n", "q", "modulus", "_exp", "_log", "_zech")

    def __init__(self, p: int, n: int, modulus: tuple):
        self.p = p
        self.n = n
        self.q = p ** n
        self.modulus = modulus
        self._exp, self._log = self._build_log_tables()
        self._zech = None
        if self.p != 2 and self.n > 1:
            # 1 + x changes only the lowest base-p digit of a packed x
            p, log = self.p, self._log
            self._zech = [log[x + 1 - p if x % p == p - 1 else x + 1]
                          for x in self._exp]

    def __eq__(self, other):
        return (isinstance(other, FieldCtx) and
                (self.p, self.n, self.modulus) ==
                (other.p, other.n, other.modulus))

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))

    def __repr__(self):
        return f"FieldCtx(GF({self.p}^{self.n}))"

    # element <-> digit vector

    def digits(self, x: int) -> list:
        p = self.p
        out = []
        for _ in range(self.n):
            x, r = divmod(x, p)
            out.append(r)
        return out

    def pack(self, digs: Sequence[int]) -> int:
        acc = 0
        for d in reversed(digs):
            acc = acc * self.p + d
        return acc

    # arithmetic

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.n == 1:
            return (a + b) % self.p
        if a == 0 or b == 0:
            return a + b
        log, qm1 = self._log, self.q - 1
        la = log[a]
        # log(a + b) = log a + log(1 + b/a) = log a + Z[log b - log a]
        z = self._zech[(log[b] - la) % qm1]
        return self._exp[(la + z) % qm1] if z >= 0 else 0

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.n == 1:
            return (-a) % self.p
        if a == 0:
            return 0
        qm1 = self.q - 1
        return self._exp[(self._log[a] + qm1 // 2) % qm1]  # -1 = g^((q-1)/2)

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.n == 1:
            return (a - b) % self.p
        if b == 0:
            return a
        log, qm1 = self._log, self.q - 1
        lnb = (log[b] + qm1 // 2) % qm1  # log(-b), as -1 = g^((q-1)/2)
        if a == 0:
            return self._exp[lnb]
        la = log[a]
        # log(a - b) = log a + Z[log(-b) - log a]
        z = self._zech[(lnb - la) % qm1]
        return self._exp[(la + z) % qm1] if z >= 0 else 0

    def _raw_mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        p, n = self.p, self.n
        if n == 1:
            return (a * b) % p
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    if bj:
                        prod[i + j] = (prod[i + j] + ai * bj) % p
        mod = self.modulus
        for i in range(2 * n - 2, n - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(n):
                    prod[i - n + j] = (prod[i - n + j] - c * mod[j]) % p
        return self.pack(prod[:n])

    def _raw_pow(self, x: int, e: int) -> int:
        acc = 1
        base = x
        while e:
            if e & 1:
                acc = self._raw_mul(acc, base)
            base = self._raw_mul(base, base)
            e >>= 1
        return acc

    def _build_log_tables(self):
        """exp[i] = g^i for the least primitive element g >= 2, and log its
        inverse (log[0] = -1), walked one multiplication by g at a time.

        x -> g*x is F_p-linear, and a packed x is the digit-wise sum of its
        low k = n // 2 base-p digits and its high ones, so g*x is the
        digit-wise sum mod p of two images read from tables of p^k and
        p^(n-k) entries, each made once by :meth:`_raw_mul`.  When p = 2
        that sum is an XOR.  For odd p with 2*(p-1) < 256 (p <= 127) the
        images are held one digit per byte: two of them add without carry
        between bytes, and one ``bytes.translate`` reduces every digit mod
        p.  Everywhere else (n = 1, or p >= 131) each step is one
        :meth:`_raw_mul`.  Every step computes g*x exactly, so the tables
        do not depend on the path.
        """
        q, p, n = self.q, self.p, self.n
        if q == 2:
            return [1], [-1, 0]
        fac = sorted(set(_prime_factors(q - 1)))
        gen = next(g for g in range(2, q)
                   if all(self._raw_pow(g, (q - 1) // f) != 1 for f in fac))
        k = n // 2
        P = p ** k

        def images(encode):
            return ([encode(self._raw_mul(gen, x)) for x in range(P)],
                    [encode(self._raw_mul(gen, y * P)) for y in range(q // P)])

        if p == 2:
            lo, hi = images(int)

            def times_gen(x):
                return lo[x % P] ^ hi[x // P]
        elif n > 1 and 2 * (p - 1) < 256:
            def digit_bytes(x):  # little-endian base-p digits, one a byte
                return bytes(self.digits(x))

            lo, hi = images(lambda x: int.from_bytes(digit_bytes(x), "little"))
            lo_at = {digit_bytes(x)[:k]: x for x in range(P)}
            hi_at = {digit_bytes(y * P)[k:]: y * P for y in range(q // P)}
            mod_p = bytes(v % p for v in range(256))

            def times_gen(x):
                d = (lo[x % P] + hi[x // P]).to_bytes(n, "little")
                d = d.translate(mod_p)
                return lo_at[d[:k]] + hi_at[d[k:]]
        else:
            def times_gen(x):
                return self._raw_mul(x, gen)
        exp = [1] * (q - 1)
        for i in range(1, q - 1):
            exp[i] = times_gen(exp[i - 1])
        log = [-1] * q
        for i, x in enumerate(exp):
            log[x] = i
        return exp, log

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        """Strict multiplicative inverse; zero is a caller bug here."""
        if a == 0:
            raise ZeroDivisionError("inverse of 0 requested")
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, x: int, e: int) -> int:
        """x^e with exponents acting mod q-1 on F_q^*; 0^0 = 1, 0^e = 0."""
        if x == 0:
            return 1 if e == 0 else 0
        return self._exp[(self._log[x] * e) % (self.q - 1)]

    def frob(self, x: int, k: int) -> int:
        """The k-fold Frobenius x^(p^k)."""
        return self.pow(x, self.p ** k)

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)


def build_field(p: int, n: int = 1,
                modulus: Optional[Sequence[int]] = None) -> FieldCtx:
    """Construct GF(p^n), refusing q above :data:`DEFAULT_ENUM_BOUND`.

    When ``modulus`` is omitted the lexicographically least monic
    irreducible of degree n over F_p (coefficients compared low-to-high) is
    selected, so construction is reproducible without polynomial tables.
    """
    check_int(p, "p")
    check_int(n, "n", 1)
    # the bound first, so that a huge p or n costs no trial division and no
    # p ** n: for p >= 2, p^n exceeds 2^20 exactly when p^min(n, 21) does
    bits = DEFAULT_ENUM_BOUND.bit_length()
    if p > 1 and p ** min(n, bits) > DEFAULT_ENUM_BOUND:
        raise TooLarge(f"q = {p}^{n} exceeds the enumeration bound "
                       f"{DEFAULT_ENUM_BOUND}")
    if _prime_factors(p) != (p,):  # also for p < 2, which has none
        raise NotPrime(f"p = {p} is not prime")
    if modulus is None:
        modulus = _default_modulus(p, n)
    else:
        modulus = tuple(check_ints(modulus, "modulus", 0, p))
        if len(modulus) != n + 1:
            raise ValueError(f"modulus must have degree {n} (length {n + 1})")
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        if not _is_irreducible(modulus, p):
            raise Reducible(f"modulus {list(modulus)} factors over F_{p}")
    return FieldCtx(p, n, modulus)


def unit_dft(ctx: FieldCtx, seq: Sequence[int],
             backward: bool = False) -> list:
    """The discrete Fourier transform on the cyclic group F_q^*, unscaled.

    Forward, ``seq`` is a value table indexed by element (length q, entry 0
    unused) and the result is indexed by exponent:
    ``out[k] = sum over a != 0 of seq[a] * a^(-k)`` for 0 <= k < q-1.
    Backward, ``seq`` is indexed by exponent (length q-1) and the result
    by element: ``out[a] = sum over k of seq[k] * a^k`` for every a in F_q,
    so ``out[0] = seq[0]`` (0^0 = 1).  Backward after forward gives -seq on
    F_q^*, because q - 1 = -1 in F_q.

    In log coordinates (index i stands for g^i, g the primitive element
    behind the exp/log tables) this is a length-(q-1) DFT with root g^-1
    (forward) or g (backward).  It runs as a recursive mixed-radix
    Cooley-Tukey over the prime factors of q-1 counted with multiplicity,
    O(q * sum of those factors) field operations; a q-1 with a large prime
    factor (the Mersenne prime 2^17 - 1, say) degrades toward O(q^2).
    """
    q, exp, log = ctx.q, ctx._exp, ctx._log
    primes = _prime_factors(q - 1)
    if not backward:
        return _dft([seq[a] for a in exp], q - 2, primes, ctx.add, exp, log)
    values = _dft(list(seq), 1, primes, ctx.add, exp, log)
    out = [seq[0]] * q
    for i, a in enumerate(exp):
        out[a] = values[i]
    return out


def _dft(vals: list, step: int, primes: tuple, add, exp: list,
         log: list) -> list:
    """``out[k] = sum over i of vals[i] * g^(step*i*k)`` by decimation in
    time; ``primes`` multiply to ``len(vals)``."""
    if len(vals) == 1:
        return vals
    p, qm1 = primes[0], len(exp)
    out = []
    for j in range(p):
        y = _dft(vals[j::p], step * p % qm1, primes[1:], add, exp, log)
        if j == 0:
            out = y * p
            continue
        # out[k] += y[k mod len(y)] * g^(e*k), one table lookup per product
        e = step * j
        term = [exp[(l + e * k) % qm1] if l >= 0 else 0
                for k, l in enumerate([log[v] for v in y] * p)]
        out = [add(u, v) for u, v in zip(out, term)]
    return out


def p_power_degree(ctx: FieldCtx, base: int) -> int:
    """The e >= 1 with base = p^e, requiring e | n: the degree of the
    subfield GF(base) of GF(p^n)."""
    e, b = 0, check_int(base, "q", 1)
    while b > 1 and b % ctx.p == 0:
        b //= ctx.p
        e += 1
    if b != 1 or e == 0 or ctx.n % e != 0:
        raise ValueError(f"{base} is not a power of p = {ctx.p} with degree "
                         f"dividing n = {ctx.n}")
    return e


def mu_subgroup(ctx: FieldCtx, ell: int) -> tuple:
    """The ell-th roots of unity in ascending order: the powers of
    g^((q-1)/ell) for the table generator g, checked to be ell distinct
    ell-th roots of 1."""
    if ell < 1 or (ctx.q - 1) % ell != 0:
        raise NotDivisor(f"ell = {ell} does not divide q - 1 = {ctx.q - 1}")
    elements = tuple(sorted(ctx._exp[::(ctx.q - 1) // ell]))
    if len(set(elements)) != ell or any(ctx.pow(z, ell) != 1
                                         for z in elements):
        raise CertificationFailed(f"the powers of g^((q-1)/{ell}) are not "
                                  f"{ell} distinct roots of unity")
    return elements


def ext_gcd(s: int, r: int) -> tuple:
    """The unique (a, b) with a*s + b*r = 1 and 0 <= a < r."""
    if s < 1 or r < 1:
        raise ValueError("ext_gcd expects positive integers")
    if math.gcd(s, r) != 1:
        raise NotCoprime(f"gcd({s}, {r}) != 1")
    a = pow(s, -1, r) if r > 1 else 0
    b = (1 - a * s) // r
    return a, b


def subfield_elements(ctx: FieldCtx, d: int) -> tuple:
    """All elements of the degree-d subfield, ascending: 0 and the
    (p^d - 1)-th roots of unity."""
    if d < 1 or ctx.n % d != 0:
        raise NotDivisor(f"subfield degree {d} does not divide n = {ctx.n}")
    return (0,) + mu_subgroup(ctx, ctx.p ** d - 1)


def field_to_json(ctx: FieldCtx) -> dict:
    return {"p": ctx.p, "n": ctx.n, "modulus": list(ctx.modulus)}


def field_from_json(doc: dict) -> FieldCtx:
    """Build a field from ``{"p": int, "n": int, "modulus": [int,...]?}``."""
    check_object(doc, "field")
    return build_field(doc["p"], doc.get("n", 1), doc.get("modulus"))
