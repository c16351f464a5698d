"""Permutation tables, brute-force inversion, cycle structure, and the
executable AGW-criterion verifier.

The brute-force operations here are the oracle every closed-form inverse in
the package is certified against; :func:`certify` is the one check every
inverter runs on its answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import (CertificationFailed, CtxMismatch, NotBijective,
                     NotPermutation, SizeMismatch)
from .gf_core import FieldCtx, check_int, check_ints
from .poly_expr import PolyFq, tabulate


@dataclass(frozen=True)
class PermTable:
    """A bijection on F_q as a length-q image table.  Produced by
    :func:`as_permutation` (which checks bijectivity) or by operations whose
    output is bijective by construction."""

    ctx: FieldCtx
    images: tuple

    def __getitem__(self, i: int) -> int:
        return self.images[i]

    def __len__(self) -> int:
        return len(self.images)

    def __iter__(self):
        return iter(self.images)


@dataclass(frozen=True)
class CycleType:
    """Multiset of cycle lengths of a permutation."""

    cycles: tuple  # sorted (length, multiplicity) pairs
    fixed_points: int
    is_involution: bool

    def as_dict(self) -> dict:
        return dict(self.cycles)

    def to_json(self) -> dict:
        return {"cycles": {str(l): m for l, m in self.cycles},
                "fixed_points": self.fixed_points,
                "is_involution": self.is_involution}


MapLike = Union[PolyFq, Sequence[int], Callable[[int], int]]


def _materialize(ctx: FieldCtx, mapping: MapLike,
                 name: str = "map") -> Sequence[int]:
    """The image table of a map; a list or tuple is returned, not copied."""
    if isinstance(mapping, PolyFq):
        if mapping.ctx != ctx:
            raise CtxMismatch("polynomial belongs to a different field")
        return tabulate(mapping)
    if callable(mapping):
        mapping = [mapping(x) for x in ctx.elements()]
    images = check_ints(mapping, name, 0, ctx.q)
    if len(images) != ctx.q:
        raise ValueError(f"{name} has length {len(images)}, expected "
                         f"q = {ctx.q}")
    return images


def as_permutation(ctx: FieldCtx, mapping: MapLike) -> PermTable:
    """Build a PermTable, rejecting non-bijections with the first collision
    in index order as witness."""
    images = _materialize(ctx, mapping)
    _small_inverse(images, "map", NotBijective)
    return PermTable(ctx, tuple(images))


def _small_inverse(g: Union[Mapping, Sequence[int]], label: str,
                   error: type = NotPermutation) -> dict:
    """Brute-force inverse of a map given as a dict or as a table indexed by
    element; raises ``error`` at the first collision.  Callers hold their
    dicts in ascending key order, so the witness is the first collision."""
    inv: dict = {}
    for k, v in (g.items() if isinstance(g, Mapping) else enumerate(g)):
        if v in inv:
            raise error(
                f"{label} is not a bijection: {inv[v]} and {k} both map to {v}",
                witness=(inv[v], k))
        inv[v] = k
    return inv


def _map_of_pairs(pairs: Iterable, name: str) -> dict:
    """The dict of (s, value) ``pairs``; an s named twice raises
    ``ValueError`` instead of letting its last value win."""
    out: dict = {}
    for s, v in pairs:
        if s in out:
            raise ValueError(f"{name} names the element {s} more than once")
        out[s] = v
    return out


def brute_inverse(t: PermTable) -> PermTable:
    """The inverse permutation: result[t[i]] = i for every i."""
    inv = [0] * len(t)
    for i, y in enumerate(t.images):
        inv[y] = i
    return PermTable(t.ctx, tuple(inv))


def certify(f_table: Sequence[int], inv: PermTable) -> PermTable:
    """Return ``inv`` once inv[f[x]] = x holds for every x.  On length-q
    tables this one direction forces f to be injective, so ``inv`` is the
    two-sided inverse.  Raises :class:`CertificationFailed` with the first
    failing x as witness."""
    if len(f_table) != len(inv):
        raise CertificationFailed(
            f"f has {len(f_table)} entries, the inverse {len(inv)}")
    images = inv.images
    for x, y in enumerate(f_table):
        if images[y] != x:
            raise CertificationFailed(
                f"inverse fails at x = {x}: f(x) = {y} maps back to "
                f"{images[y]}", witness=x)
    return inv


def cycle_structure(t: PermTable) -> CycleType:
    """Cycle decomposition; is_involution means every cycle has length <= 2."""
    q = len(t)
    seen = [False] * q
    counts: dict = {}
    for start in range(q):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = t.images[x]
            length += 1
        counts[length] = counts.get(length, 0) + 1
    cycles = tuple(sorted(counts.items()))
    return CycleType(cycles=cycles,
                     fixed_points=counts.get(1, 0),
                     is_involution=all(l <= 2 for l in counts))


@dataclass(frozen=True)
class AgwDiagram:
    """Materialized commutative square: f on F_q, surjections lam and
    lam_bar onto S and S_bar, and a small-set map g: S -> S_bar."""

    ctx: FieldCtx
    f: tuple
    lam: tuple
    lam_bar: tuple
    g: Mapping
    S: tuple
    S_bar: tuple


def agw_diagram(ctx: FieldCtx, f: MapLike, lam: MapLike, lam_bar: MapLike,
                g: Union[Mapping, Sequence], S: Sequence[int],
                S_bar: Sequence[int]) -> AgwDiagram:
    """Validate shapes and build a diagram.  f may be any total map (the
    verifier reports bijectivity rather than requiring it); g is a mapping
    or a sequence of (s, g(s)) pairs."""
    q = ctx.q
    f_t = tuple(_materialize(ctx, f, "f"))
    lam_t = tuple(_materialize(ctx, lam, "lambda"))
    bar_t = tuple(_materialize(ctx, lam_bar, "lambda_bar"))
    S_t = tuple(sorted(set(check_ints(S, "S", 0, q))))
    Sb_t = tuple(sorted(set(check_ints(S_bar, "S_bar", 0, q))))
    if not set(lam_t) <= set(S_t):
        raise ValueError("lambda maps outside the declared S")
    if not set(bar_t) <= set(Sb_t):
        raise ValueError("lambda_bar maps outside the declared S_bar")
    pairs = g.items() if isinstance(g, Mapping) else g
    g_d = _map_of_pairs(((check_int(k, "g key", 0, q),
                          check_int(v, "g value", 0, q))
                         for k, v in pairs), "g")
    if set(g_d) != set(S_t):
        raise ValueError("g must be defined on exactly the elements of S")
    return AgwDiagram(ctx, f_t, lam_t, bar_t, g_d, S_t, Sb_t)


@dataclass(frozen=True)
class VerificationReport:
    """Finite checks behind the AGW criterion for one diagram."""

    lambda_surjective: bool
    lambda_bar_surjective: bool
    commutes: bool
    g_bijective: bool
    fiber_injective: bool
    f_bijective: bool

    @property
    def premises_hold(self) -> bool:
        return (self.lambda_surjective and self.lambda_bar_surjective
                and self.commutes)

    @property
    def lemma_consistent(self) -> bool:
        """When the premises hold, f is bijective iff g is bijective and f
        is injective on every lambda-fiber."""
        if not self.premises_hold:
            return True
        return self.f_bijective == (self.g_bijective and self.fiber_injective)

    def to_json(self) -> dict:
        return {"lambda_surjective": self.lambda_surjective,
                "lambda_bar_surjective": self.lambda_bar_surjective,
                "commutes": self.commutes,
                "g_bijective": self.g_bijective,
                "fiber_injective": self.fiber_injective,
                "f_bijective": self.f_bijective,
                "lemma_consistent": self.lemma_consistent}


def agw_verify(d: AgwDiagram) -> VerificationReport:
    """Check every finite condition of the criterion on a diagram with
    |S| = |S_bar|."""
    if len(d.S) != len(d.S_bar):
        raise SizeMismatch(
            f"|S| = {len(d.S)} differs from |S_bar| = {len(d.S_bar)}")
    lam_sur = set(d.lam) == set(d.S)
    bar_sur = set(d.lam_bar) == set(d.S_bar)
    commutes = all(d.lam_bar[d.f[x]] == d.g[d.lam[x]] for x in d.ctx.elements())
    g_bij = set(d.g.values()) == set(d.S_bar)
    # f is injective on every lambda-fibre iff the pairs (lam(x), f(x)) differ
    fiber_inj = len(set(zip(d.lam, d.f))) == d.ctx.q
    f_bij = len(set(d.f)) == d.ctx.q
    return VerificationReport(lam_sur, bar_sur, commutes, g_bij, fiber_inj,
                              f_bij)
