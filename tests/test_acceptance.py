"""Acceptance criteria.

All checks are exact identities over enumerable fields certified against
the brute-force oracle; one pass/fail line per criterion is printed at the
end of each test (visible with ``pytest -s`` or on failure).
"""

import itertools
import json
import math
import pathlib
import random
import subprocess
import sys
import time

import pytest

from ppinv import (as_permutation, agw_verify,
                   check_add_involution, check_hybrid_involution,
                   check_mul_involution, check_translator_involution,
                   closed_form_mul, cycle_structure, hybrid_family,
                   interpolate, invert_additive, invert_hybrid_scale,
                   invert_multiplicative, invert_translator, linearized,
                   linearized_inverse, make_kuozhan, make_poly, mu_subgroup,
                   mul_family, build_field, parse_poly_expr,
                   reduce_mod_field, tabulate, translator_family)
from ppinv.errors import PPInvError, Singular
from ppinv.poly_expr import linearized_tabulate

from helpers import (ACCEPTANCE_FIELDS, add_instances, diagram_instances,
                     field_of, hybrid_instances, is_inverse_pair,
                     mul_instances, rel_trace, translator_instances,
                     trace_kernel, trace_table)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _passed(line):
    print(f"PASS {line}")


def test_c1_family_oracle_equivalence():
    """>= 100 valid instances per family across the field set; the formula
    inverse composed with f is the identity, exactly, zero failures."""
    start = time.monotonic()
    rng = random.Random(20260810)
    counts = {"mul": 0, "add": 0, "hybrid": 0, "translator": 0}
    per_field = 12
    for q in ACCEPTANCE_FIELDS:
        ctx = field_of(q)
        for fam in mul_instances(ctx, rng, per_field):
            assert is_inverse_pair(ctx, fam.f_table,
                                   invert_multiplicative(fam))
            counts["mul"] += 1
        for fam in add_instances(ctx, rng, per_field):
            assert is_inverse_pair(ctx, fam.f_table, invert_additive(fam))
            counts["add"] += 1
        for fam in hybrid_instances(ctx, rng, per_field):
            assert is_inverse_pair(ctx, fam.f_table,
                                   invert_hybrid_scale(fam))
            counts["hybrid"] += 1
        for fam in translator_instances(ctx, rng, per_field):
            assert is_inverse_pair(ctx, fam.f_table, invert_translator(fam))
            counts["translator"] += 1
    elapsed = time.monotonic() - start
    assert all(c >= 100 for c in counts.values()), counts
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _passed(f"criterion 1: oracle equivalence {counts} in {elapsed:.1f}s")


def test_c2_closed_form_matches_theorem():
    """The closed-form inverse table equals the general multiplicative
    formula on every instance satisfying its hypotheses, certifying the
    a*s + b*r = 1 Bezout reading."""
    ctx7 = field_of(7)
    fam = mul_family(ctx7, 1, 3, parse_poly_expr("x^2", ctx7))
    cf = closed_form_mul(fam, 6, 1)
    reference = invert_multiplicative(fam)
    assert cf.table.images == reference.images == tuple(range(7))
    # the transposed reading a*r + b*s = 1 ((a,b) = (1,0)) yields x^3 != x
    alt = tuple(ctx7.pow(x, 3) for x in range(7))
    assert alt != reference.images
    checked = 1
    rng = random.Random(77)
    for q in ACCEPTANCE_FIELDS:
        ctx = field_of(q)
        divs = [s for s in range(1, q) if (q - 1) % s == 0]
        made = 0
        guard = 0
        while made < 8 and guard < 400:
            guard += 1
            s = rng.choice(divs)
            ell = (q - 1) // s
            r = rng.randrange(1, q)
            if math.gcd(r, s) != 1:
                continue
            c = rng.choice(mu_subgroup(ctx, s))
            j = rng.randrange(0, ell + 1)
            n_exp = (j * s) % ell
            if math.gcd(r + n_exp, ell) != 1:
                continue
            t = pow(r + n_exp, -1, ell) if ell > 1 else 1
            fam = mul_family(ctx, r, s, make_poly(ctx, [0] * j + [c]))
            cf = closed_form_mul(fam, n_exp, t)
            assert cf.table.images == invert_multiplicative(fam).images
            made += 1
            checked += 1
        assert made >= 4, f"too few closed-form instances over F_{q}"
    _passed(f"criterion 2: closed form = theorem on {checked} instances "
            "(a*s + b*r = 1 reading certified)")


def test_c3_kuozhan_sweep():
    """Every valid (k, gamma, beta) triple for q in {4, 8, 16} yields an
    involution on GF(q^2), exactly; under 10 s."""
    start = time.monotonic()
    total = 0
    for q, e in ((4, 2), (8, 3), (16, 4)):
        ctx = field_of(q * q)
        sub = [x for x in ctx.elements() if ctx.frob(x, e) == x]

        def tr_down(x):
            acc, cur = 0, x
            for _ in range(e):
                acc = ctx.add(acc, cur)
                cur = ctx.frob(cur, 1)
            return acc

        betas = [b for b in sub if b and tr_down(b) == 0]
        gammas = [g for g in sub if g]
        ks = [k for k in range(1, q + 1) if math.gcd(k, q + 1) == 1]
        for k, gamma, beta in itertools.product(ks, gammas, betas):
            fam = make_kuozhan(ctx, q, k, gamma, beta)
            f = fam.f_table
            assert all(f[f[x]] == x for x in ctx.elements())
            total += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _passed(f"criterion 3: {total} involution triples over "
            f"GF(16)/GF(64)/GF(256) in {elapsed:.1f}s")


def test_c4_scaled_square_involutions():
    """f = x (lambda(x)^2 + 1) with the pairwise power sum lambda is an
    involution over GF(3^n) for n = 2, 3, 4."""
    for q in (9, 27, 81):
        ctx = build_field(3, {9: 2, 27: 3, 81: 4}[q])
        n = ctx.n
        lam = []
        for x in ctx.elements():
            acc = 0
            for i in range(n):
                for j in range(i + 1, n):
                    acc = ctx.add(acc, ctx.pow(x, 3 ** i + 3 ** j))
            lam.append(acc)
        fam = hybrid_family(ctx, parse_poly_expr("x^2 + 1", ctx),
                            parse_poly_expr("x^2", ctx), lam, [0, 1, 2])
        rep = check_hybrid_involution(fam)
        assert rep.is_involution and rep.oracle_agrees
        f = fam.f_table
        assert all(f[f[x]] == x for x in ctx.elements())
    _passed("criterion 4: scaled-square involutions over GF(9), GF(27), "
            "GF(81)")


def test_c5_criterion_equivalence_on_diagrams():
    """On >= 200 commuting diagrams with surjective side maps (half with
    bijective f, half engineered non-bijective), f is bijective exactly when
    g is bijective and f is injective on every fiber."""
    rng = random.Random(555)
    bij = non = 0
    for q in (4, 8, 9, 16, 25, 27, 32, 64):
        ctx = field_of(q)
        for d in diagram_instances(ctx, rng, 13, bijective=True):
            rep = agw_verify(d)
            assert rep.premises_hold
            assert rep.f_bijective
            assert rep.f_bijective == (rep.g_bijective and
                                       rep.fiber_injective)
            bij += 1
        for d in diagram_instances(ctx, rng, 13, bijective=False):
            rep = agw_verify(d)
            assert rep.premises_hold
            assert not rep.f_bijective
            assert rep.f_bijective == (rep.g_bijective and
                                       rep.fiber_injective)
            non += 1
    assert bij >= 100 and non >= 100
    _passed(f"criterion 5: AGW equivalence on {bij} bijective + {non} "
            "non-bijective diagrams")


def _sweep_mul(ctx, out):
    q = ctx.q
    divs = [s for s in range(1, q) if (q - 1) % s == 0]
    r_cands = sorted({1, 2, 3, q - 2} | set(range(1, min(q, 8))))
    h_texts = ["1", "2", "3", "x", "x^2", "2*x", "x + 1", "x^2 + x + 1"]
    for s in divs:
        for r in r_cands:
            if r < 1 or math.gcd(r, s) != 1:
                continue
            for text in h_texts:
                try:
                    fam = mul_family(ctx, r, s, parse_poly_expr(text, ctx))
                except PPInvError:
                    continue
                out.append(("mul", fam, check_mul_involution(fam)))


def _sweep_add(ctx, out):
    for d in (dd for dd in range(1, ctx.n + 1) if ctx.n % dd == 0):
        lam = trace_table(ctx, d)
        sub = [x for x in ctx.elements() if ctx.frob(x, d) == x]
        kernel = trace_kernel(ctx, d)
        S = set(lam)
        for c in [u for u in sub if u][:3]:
            for j in range(ctx.n):
                g = [ctx.mul(c, ctx.frob(x, j)) for x in ctx.elements()]
                for kappa in kernel[:3]:
                    for shape in ("const", "linear"):
                        if shape == "const":
                            g0 = {s: kappa for s in S}
                        else:
                            g0 = {s: ctx.mul(kappa, s) for s in S}
                        try:
                            fam = add_family_checked(ctx, g, g0, lam)
                        except PPInvError:
                            continue
                        out.append(("add", fam, check_add_involution(fam)))


def add_family_checked(ctx, g, g0, lam):
    from ppinv import add_family
    return add_family(ctx, g, g0, lam, lam)


def _sweep_hybrid(ctx, out):
    p = ctx.p
    for m in (1, 2):
        lam = [rel_trace(ctx, 1, ctx.pow(x, m)) for x in ctx.elements()]
        k = make_poly(ctx, [0] * m + [1])
        coeff_space = itertools.product(range(p), repeat=3)
        for coeffs in itertools.islice(coeff_space, 0, p ** 3):
            if not coeffs[0]:
                continue
            try:
                fam = hybrid_family(ctx, make_poly(ctx, coeffs), k, lam,
                                    list(range(p)))
            except PPInvError:
                continue
            out.append(("hybrid", fam, check_hybrid_involution(fam)))


def _sweep_translator(ctx, out):
    for d in (dd for dd in range(1, ctx.n + 1) if ctx.n % dd == 0):
        lam = trace_table(ctx, d)
        sub = [x for x in ctx.elements() if ctx.frob(x, d) == x]
        gammas = [g for g in ctx.units()][:4] + \
            [g for g in trace_kernel(ctx, d) if g][:2]
        G_polys = [make_poly(ctx, [0, 1]), make_poly(ctx, [0])]
        G_polys += [make_poly(ctx, [u]) for u in sub[:2]]
        for gamma in gammas:
            b = lam[gamma]
            for G in G_polys:
                try:
                    fam = translator_family(ctx, lam, gamma, b, G)
                except PPInvError:
                    continue
                out.append(("translator", fam,
                            check_translator_involution(fam)))


def test_c6_involution_criteria_match_oracle():
    """Exhaustive bounded parameter sweeps at q <= 64: every criterion
    verdict equals the cycle-structure oracle; zero disagreements."""
    verdicts = {}
    total = 0
    for q in ACCEPTANCE_FIELDS:
        ctx = field_of(q)
        swept = []
        _sweep_mul(ctx, swept)
        _sweep_add(ctx, swept)
        _sweep_hybrid(ctx, swept)
        _sweep_translator(ctx, swept)
        for kind, fam, rep in swept:
            total += 1
            assert rep.oracle_agrees, (q, kind, fam)
            f = list(fam.f_table)
            if len(set(f)) == ctx.q:
                ct = cycle_structure(as_permutation(ctx, f))
                assert ct.is_involution == rep.is_involution
            else:
                assert not rep.is_involution
            verdicts.setdefault(kind, set()).add(rep.is_involution)
    for kind, seen in verdicts.items():
        assert seen == {True, False}, f"{kind} sweep saw only {seen}"
    _passed(f"criterion 6: {total} swept families, criterion = oracle "
            "everywhere")


def test_c7_linearized_inversion():
    """>= 50 random bijective linearized polynomials over fields up to
    4096 elements invert exactly."""
    shapes = [(2, 8, 2), (2, 8, 4), (2, 8, 16), (3, 5, 3), (2, 12, 4),
              (5, 4, 5), (5, 4, 25), (7, 3, 7), (2, 10, 2), (3, 7, 3),
              (13, 2, 13), (2, 12, 2)]
    rng = random.Random(4242)
    done = 0
    for p, n, base in shapes:
        ctx = build_field(p, n)
        d = 0
        b = base
        while b > 1:
            b //= p
            d += 1
        m = n // d
        made = 0
        while made < 5:
            L = linearized(ctx, base,
                           [rng.randrange(ctx.q) for _ in range(m)])
            try:
                inv = linearized_inverse(L)
            except Singular:
                continue
            t, ti = linearized_tabulate(L), linearized_tabulate(inv)
            assert all(ti[t[x]] == x for x in ctx.elements())
            assert all(t[ti[x]] == x for x in ctx.elements())
            made += 1
            done += 1
    assert done >= 50
    _passed(f"criterion 7: {done} linearized inversions certified")


def test_c8_interpolation_round_trip():
    """For every prime power q <= 64: tabulate(interpolate(T)) = T on
    random tables, and interpolate(tabulate(p)) = reduce(p) on random
    polynomials."""
    prime_powers = [q for q in range(2, 65)
                    if _prime_power(q)]
    rng = random.Random(888)
    for q in prime_powers:
        ctx = field_of(q)
        for _ in range(3):
            table = [rng.randrange(q) for _ in range(q)]
            assert tabulate(interpolate(ctx, table)) == table
        for _ in range(3):
            p = make_poly(ctx, [rng.randrange(q)
                                for _ in range(rng.randrange(1, 2 * q))])
            assert interpolate(ctx, tabulate(p)).coeffs == \
                reduce_mod_field(p).coeffs
    _passed(f"criterion 8: interpolation round trips over "
            f"{len(prime_powers)} fields")


def _prime_power(q):
    p = 2
    while p * p <= q:
        if q % p == 0:
            while q % p == 0:
                q //= p
            return q == 1
        p += 1
    return True  # q itself prime


def test_c9_cli_golden_files():
    """Byte-identical output for the three documented invocations."""
    cases = [
        (["check-pp", "--p", "7", "--n", "1", "--expr", "x^3"],
         "check_pp_x3_f7.json", 1),
        (["invert", "--family", "mul", "--p", "7", "--n", "1", "--r", "1",
          "--s", "3", "--h", "3"], "invert_mul_f7.json", 0),
        (["involution", "--family", "mul", "--file",
          str(GOLDEN / "kuozhan_q4.json")], "involution_kuozhan_q4.json", 0),
    ]
    for args, golden, want_code in cases:
        proc = subprocess.run([sys.executable, "-m", "ppinv", *args],
                              capture_output=True, text=True)
        assert proc.returncode == want_code, args
        assert proc.stdout == (GOLDEN / golden).read_text(), args
    # documented values embedded in the goldens
    assert json.loads((GOLDEN / "check_pp_x3_f7.json").read_text()) == \
        {"is_permutation": False, "collision": [1, 2]}
    assert json.loads((GOLDEN / "invert_mul_f7.json").read_text()) == \
        {"table": [0, 5, 3, 1, 6, 4, 2], "poly": "5*x", "certified": True}
    invol = json.loads((GOLDEN / "involution_kuozhan_q4.json").read_text())
    assert invol["is_involution"] is True and invol["oracle_agrees"] is True
    _passed("criterion 9: CLI golden files byte-identical")
