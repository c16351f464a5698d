"""Interpolation by the Fourier transform on F_q^*, checked against the
Lagrange routine it replaced (``helpers.lagrange_interpolate``)."""

import json
import random

import pytest

from ppinv import (cli, eval_poly, gf_core, interpolate, make_poly,
                   poly_expr, tabulate)
from ppinv.errors import CertificationFailed
from ppinv.poly_expr import monomial

from helpers import field_of, lagrange_interpolate, prime_powers


def _random_table(q, rng):
    # The reference costs O(q) per nonzero entry, so above q = 256 the
    # tables keep 16 random nonzero entries; the transform's own cost does
    # not depend on how many entries are zero.
    if q <= 256:
        return [rng.randrange(q) for _ in range(q)]
    table = [0] * q
    for x in rng.sample(range(q), 16):
        table[x] = rng.randrange(1, q)
    return table


@pytest.mark.parametrize("q", prime_powers(1024))
def test_matches_lagrange_on_random_tables(q):
    ctx = field_of(q)
    table = _random_table(q, random.Random(q))
    assert interpolate(ctx, table) == lagrange_interpolate(ctx, table)


def _point_tables(ctx):
    """Tables with one nonzero entry, which the reference handles in O(q)."""
    out = []
    for x in (0, 1, ctx.q - 1):
        table = [0] * ctx.q
        table[x] = ctx.q - 1
        out.append(table)
    return out


def _known_tables(ctx):
    """(table, interpolant) pairs known in closed form."""
    q = ctx.q
    return [([0] * q, make_poly(ctx, [])),
            ([1] * q, make_poly(ctx, [1])),
            (list(range(q)), make_poly(ctx, [0, 1])),
            ([ctx.pow(x, q - 2) for x in range(q)], monomial(ctx, q - 2)),
            ([ctx.pow(x, q - 1) for x in range(q)], monomial(ctx, q - 1))]


# q - 1 is 1 or 2, prime, a power of 2 (prime fields), or has a repeated
# factor (81 - 1 = 2^4 * 5, 243 - 1 = 2 * 11^2)
@pytest.mark.parametrize("q", [2, 3, 5, 17, 8, 32, 128, 81, 243])
def test_edge_shapes_of_q_minus_1(q):
    ctx = field_of(q)
    for table, poly in _known_tables(ctx):
        assert interpolate(ctx, table) == poly
    for table in _point_tables(ctx):
        assert interpolate(ctx, table) == lagrange_interpolate(ctx, table)


@pytest.mark.parametrize("p,n", [(2, 12), (5, 5)])
def test_round_trip_on_large_fields(p, n):
    ctx = field_of(p ** n)
    q = ctx.q
    rng = random.Random(q)
    # terms up to x^(q-1), but few of them: tabulating the interpolant is
    # then O(q) per term, so the whole table is compared
    coeffs = [0] * q
    for e in [0, 1, 2, q - 2, q - 1] + rng.sample(range(3, q - 2), 3):
        coeffs[e] = rng.randrange(1, q)
    poly = make_poly(ctx, coeffs)
    table = tabulate(poly)
    got = interpolate(ctx, table)
    assert got == poly
    assert tabulate(got) == table


def test_dense_round_trip_at_4096():
    # a full Horner tabulation of a degree ~q interpolant is O(q^2), so 64
    # seeded points and 0 are read back
    ctx = field_of(4096)
    rng = random.Random(4096)
    table = [rng.randrange(4096) for _ in range(4096)]
    poly = interpolate(ctx, table)
    assert poly.degree > 4000
    for x in [0] + rng.sample(range(1, 4096), 64):
        assert eval_poly(poly, x) == table[x]


def test_unit_dft_backward_after_forward_negates():
    ctx = field_of(27)
    rng = random.Random(5)
    table = [rng.randrange(27) for _ in range(27)]
    back = gf_core.unit_dft(ctx, gf_core.unit_dft(ctx, table), backward=True)
    assert back[1:] == [ctx.neg(v) for v in table[1:]]


def _tampered(monkeypatch, direction):
    real = gf_core.unit_dft

    def fake(ctx, seq, backward=False):
        out = real(ctx, seq, backward)
        if backward == direction:
            out[1] = ctx.add(out[1], 1)
        return out
    monkeypatch.setattr(poly_expr, "unit_dft", fake)


@pytest.mark.parametrize("direction", [False, True])
def test_tampered_transform_fails_certification(monkeypatch, direction):
    # forward: c_1 moves, so every x != 0 moves; backward: the value at
    # x = 1 moves.  Either way x = 1 is the first failing element.
    _tampered(monkeypatch, direction)
    with pytest.raises(CertificationFailed) as err:
        interpolate(field_of(16), list(range(16)))
    assert err.value.witness == 1


def test_tampered_transform_exits_3(monkeypatch, capsys):
    _tampered(monkeypatch, False)
    code = cli.run(["interpolate", "--p", "7", "--table", "0,1,2,3,4,5,6"])
    out, err = capsys.readouterr()
    assert code == 3
    doc = json.loads(out)
    assert doc["error"] == "CertificationFailed" and doc["witness"] == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("bad", ["a", 1.0, True, None, [1], -1, 4])
def test_table_entries_must_be_elements(bad):
    with pytest.raises(ValueError):
        interpolate(field_of(4), [0, bad, 2, 3])
