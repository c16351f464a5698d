"""The benchmark's workloads: their op templates, the ops generated from a
seed, how one op is executed, and the check of its output.

A workload is a fixed template of op slots (subcommand or family, and
field).  One round instantiates every slot once with fresh seeded
parameters, so every round costs about the same and the seed changes
parameters, never the mix.  See README.md for why each workload exists.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import instances
import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"
CHILD_TIMEOUT_S = 60

# sweeps: (p, n) -> generator names; a tuple alternates between rounds
SWEEPS = {
    "sweep-char2": {
        "full": [((2, 12), ("kuozhan", "hybrid", "zero_translator", "niu",
                            ("add", "trace_gadget"))),
                 ((2, 14), ("mul", "hybrid", "translator", "niu")),
                 ((2, 16), ("mul", "hybrid", "translator", "niu"))],
        "toy": [((2, 4), ("mul", "hybrid", "zero_translator", "niu",
                          ("add", "trace_gadget"))),
                ((2, 6), ("kuozhan", "hybrid", "translator", "niu"))],
    },
    "sweep-odd": {
        "full": [((7, 3), ("add",)),
                 ((3, 8), ("mul", "hybrid", "translator", "niu")),
                 ((5, 5), ("mul", "hybrid", "translator", "niu")),
                 ((7, 5), ("mul", "hybrid", "translator", "niu"))],
        "toy": [((3, 2), ("add",)),
                ((3, 3), ("mul", "hybrid", "translator", "niu")),
                ((5, 2), ("mul", "hybrid", "translator", "niu"))],
    },
}

# cli-mix: (kind, (p, n), argument); 27 slots, 14 of which interpolate a
# polynomial of at least 64 coefficients
CLI_MIX = {
    "full": [
        ("field", (7, 3), None),
        ("check-pp", (2, 8), True), ("check-pp", (3, 4), False),
        ("invert", (2, 10), "mul"), ("invert", (5, 3), "mul"),
        ("invert", (2, 8), "add"), ("invert", (3, 4), "add"),
        ("invert", (2, 8), "hybrid"), ("invert", (3, 5), "hybrid"),
        ("invert", (2, 8), "translator"), ("invert", (7, 3), "translator"),
        ("invert", (2, 10), "niu"), ("invert", (3, 4), "niu"),
        ("interpolate", (2, 8), None), ("interpolate", (5, 3), None),
        ("interpolate", (3, 5), None), ("interpolate", (2, 10), None),
        ("involution", (3, 5), "mul"), ("involution", (2, 6), "add"),
        ("involution", (7, 3), "hybrid"), ("involution", (2, 8), "translator"),
        ("agw-verify", (3, 4), None),
        ("search", (2, 6), None),
        ("golden", None, 0), ("golden", None, 1), ("golden", None, 2),
        ("reject", (2, 6), None),
    ],
    "toy": [
        ("field", (7, 2), None),
        ("check-pp", (2, 4), True), ("check-pp", (3, 2), False),
        ("invert", (2, 4), "mul"), ("invert", (3, 2), "add"),
        ("invert", (2, 4), "hybrid"), ("invert", (3, 2), "translator"),
        ("invert", (2, 4), "niu"),
        ("interpolate", (5, 2), None),
        ("involution", (3, 2), "mul"), ("involution", (2, 4), "add"),
        ("involution", (3, 2), "hybrid"), ("involution", (2, 4), "translator"),
        ("agw-verify", (3, 2), None),
        ("search", (2, 3), None),
        ("golden", None, 0), ("golden", None, 1), ("golden", None, 2),
        ("reject", (2, 4), None),
    ],
}

# the three documented invocations and their golden outputs
GOLDEN_RUNS = (
    (["check-pp", "--p", "7", "--n", "1", "--expr", "x^3"],
     "check_pp_x3_f7.json", 1, 7),
    (["invert", "--family", "mul", "--p", "7", "--n", "1", "--r", "1",
      "--s", "3", "--h", "3"], "invert_mul_f7.json", 0, 7),
    (["involution", "--family", "mul", "--file",
      str(GOLDEN / "kuozhan_q4.json")], "involution_kuozhan_q4.json", 0, 16),
)

WORKLOAD_NAMES = ("cli-mix", "sweep-char2", "sweep-odd")


@dataclass
class Outcome:
    """One executed op: latency, the check's complaints, and what the
    traced run needs from it."""

    label: str
    q: int
    latency: float
    errors: list
    round: int = 0
    exit_code: int = 0
    run_span: float = 0.0           # cli: the child's cli.run span
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    payload: dict = field(default_factory=dict)


def _crash(label: str, q: int, latency: float) -> Outcome:
    return Outcome(label, q, latency,
                   ["crashed: " + traceback.format_exc(limit=3)])


# sweeps: in-process library calls

def library_op(ppinv, ctx, spec):
    """Construct the family, invert it and run its involution criterion.
    Returns (forward table, inverse images, criterion report or None).
    Library functions are looked up on the package at call time, so the
    traced run sees its wrappers."""
    P = spec.params

    def parse(text):
        return ppinv.parse_poly_expr(text, ctx)

    if spec.family == "niu":
        g = parse(P["g"])
        f = ppinv.niu_forward(ctx, P["q"], g, P["i"], P["c"], P["delta"])
        inv = ppinv.invert_niu(ctx, P["q"], g, P["i"], P["c"], P["delta"])
        return f, inv.images, None
    if spec.maker == "kuozhan":
        fam = ppinv.make_kuozhan(ctx, P["q"], P["k"], P["gamma"], P["beta"])
    elif spec.maker == "trace_gadget":
        fam = ppinv.make_trace_gadget(ctx, P["q"], parse(P["g0"]))
    elif spec.maker == "zero_translator":
        fam = ppinv.make_zero_translator(ctx, P["q"], P["beta"],
                                         parse(P["G"]), P["gamma"])
    elif spec.family == "mul":
        fam = ppinv.mul_family(ctx, P["r"], P["s"], parse(P["h"]))
    elif spec.family == "add":
        fam = ppinv.add_family(ctx, P["g"], P["g0"], P["lambda"],
                               P["lambda"])
    elif spec.family == "hybrid":
        fam = ppinv.hybrid_family(ctx, parse(P["h"]), parse(P["k"]),
                                  P["lambda"], P["S"])
    else:
        fam = ppinv.translator_family(ctx, P["lambda"], P["gamma"], P["b"],
                                      parse(P["G"]))
    invert = {"mul": ppinv.invert_multiplicative,
              "add": ppinv.invert_additive,
              "hybrid": ppinv.invert_hybrid_scale,
              "translator": ppinv.invert_translator}[spec.family]
    check = {"mul": ppinv.check_mul_involution,
             "add": ppinv.check_add_involution,
             "hybrid": ppinv.check_hybrid_involution,
             "translator": ppinv.check_translator_involution}[spec.family]
    inv = invert(fam)
    return fam.f_table, inv.images, check(fam)


def sweep_errors(spec, result) -> list:
    f, inv, report = result
    errs = oracle.inverse_errors(spec.forward, inv)
    if list(f) != spec.forward:
        errs.append("forward table differs from the reference")
    if report is not None:
        if report.is_involution != oracle.is_involution(spec.forward):
            errs.append(f"involution verdict {report.is_involution} is wrong")
        if not report.oracle_agrees:
            errs.append("criterion report says its oracle disagrees")
    return errs


class Sweep:
    kind = "sweep"

    def __init__(self, name: str, size: str, ppinv):
        self.template = SWEEPS[name][size]
        self.ppinv = ppinv
        self.fields = [pn for pn, _ in self.template]
        self.ctx: dict = {}
        self.tables: dict = {}

    def setup(self) -> float:
        """Build every field once; returns the seconds it took."""
        t0 = time.perf_counter()
        ctx = {pn: self.ppinv.build_field(*pn) for pn in self.fields}
        elapsed = time.perf_counter() - t0
        self.ctx = ctx
        return elapsed

    def prepare(self):
        """Reference tables; input generation, outside every timing."""
        for pn in self.fields:
            self.tables[pn] = instances.Tables(*pn)
            modulus = tuple(self.ppinv.field_to_json(self.ctx[pn])["modulus"])
            if modulus != self.tables[pn].F.modulus:
                raise RuntimeError(f"GF{pn}: ppinv chose modulus {modulus}, "
                                   "the reference chose another")

    def make_round(self, rng, k: int) -> list:
        ops = []
        for pn, gens in self.template:
            for gen in gens:
                if isinstance(gen, tuple):
                    gen = gen[k % len(gen)]
                ops.append(instances.GENERATORS[gen](self.tables[pn], rng))
        return ops

    def execute(self, spec, tracer=None) -> Outcome:
        label = f"{spec.maker or spec.family}@{spec.p}^{spec.n}"
        ctx = self.ctx[(spec.p, spec.n)]
        span = tracer.open("bench.op") if tracer else None
        t0 = time.perf_counter()
        try:
            result = library_op(self.ppinv, ctx, spec)
        except Exception:  # a crash is a failed op, not a benchmark error
            return _crash(label, spec.q, time.perf_counter() - t0)
        finally:
            if tracer:
                tracer.close(span)
        latency = time.perf_counter() - t0
        return Outcome(label, spec.q, latency, sweep_errors(spec, result))


# cli-mix: one `python -m ppinv` child per op

@dataclass
class CliOp:
    label: str
    args: list
    q: int
    code: int                       # expected exit code
    check: Callable[[bytes], list]  # stdout -> complaints


def _json_check(expected: dict) -> Callable[[bytes], list]:
    def check(out: bytes) -> list:
        got = json.loads(out)
        return [] if got == expected else [f"expected {expected}, got {got}"]
    return check


def _points(rng, q: int) -> list:
    return list(range(q)) if q <= 64 else rng.sample(range(q), 64)


def _poly_errors(F, text: str, table, points) -> list:
    """The printed polynomial must have degree < q and agree with the
    table; checked by Horner evaluation at the sampled points."""
    try:
        terms = oracle.parse_printed(text)
    except ValueError as exc:
        return [f"unparsable polynomial: {exc}"]
    if terms and max(terms) >= F.q:
        return ["polynomial degree is not below q"]
    coeffs = [0] * (max(terms, default=0) + 1)
    for e, c in terms.items():
        coeffs[e] = c
    coeffs.reverse()
    for x in points:
        acc = 0
        for c in coeffs:
            acc = F.add(F.mul(acc, x), c)
        if acc != table[x]:
            return [f"polynomial disagrees with the table at {x}"]
    return []


def _field_args(F) -> list:
    return ["--p", str(F.p), "--n", str(F.n)]


class CliMix:
    kind = "cli"

    def __init__(self, size: str, tmpdir: Path):
        self.template = CLI_MIX[size]
        self.fields = sorted({pn for _, pn, _ in self.template if pn})
        self.tmpdir = tmpdir
        self.tables: dict = {}
        self._files = itertools.count()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def _call(self, args: list, spans_file=None):
        if spans_file is None:
            argv = [sys.executable, "-m", "ppinv", *args]
        else:
            argv = [sys.executable, str(LAUNCHER), str(spans_file), *args]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, cwd=ROOT,
                              env=self.env, timeout=CHILD_TIMEOUT_S)
        return time.perf_counter() - t0, proc

    def setup(self) -> float:
        """One warm-up invocation; returns its latency."""
        latency, proc = self._call(["field", "--p", "2", "--n", "4"])
        if proc.returncode != 0:
            raise RuntimeError("warm-up invocation failed: "
                               + proc.stderr.decode(errors="replace"))
        return latency

    def prepare(self):
        for pn in self.fields:
            self.tables[pn] = instances.Tables(*pn)

    def _write(self, doc: dict) -> str:
        path = self.tmpdir / f"in{next(self._files)}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def make_round(self, rng, k: int) -> list:
        ops = []
        for kind, pn, arg in self.template:
            T = self.tables.get(pn)
            ops.append(getattr(self, "_op_" + kind.replace("-", "_"))(
                T, rng, arg))
        return ops

    # op generators

    def _op_field(self, T, rng, _):
        F = T.F
        expected = {"p": F.p, "n": F.n, "q": F.q,
                    "modulus": list(F.modulus)}
        return CliOp(f"field@{F.p}^{F.n}", ["field", *_field_args(F)], F.q,
                     0, _json_check(expected))

    def _op_check_pp(self, T, rng, permutation: bool):
        """x + gamma Tr_d(x): a permutation iff 1 + Tr_d(gamma) != 0."""
        F = T.F
        d = rng.choice([d for d in range(1, F.n) if F.n % d == 0])
        lam = T.trace(d)
        minus_one = F.neg(1)
        gamma = rng.choice([g for g in range(1, F.q)
                            if (lam[g] != minus_one) == permutation])
        table = [F.add(x, F.mul(gamma, lam[x])) for x in range(F.q)]
        collision = oracle.first_collision(table)
        if (collision is None) != permutation:
            raise RuntimeError("check-pp instance has the wrong verdict")
        expected = ({"is_permutation": True} if permutation else
                    {"is_permutation": False, "collision": collision})
        return CliOp(f"check-pp@{F.p}^{F.n}",
                     ["check-pp", *_field_args(F), "--expr",
                      f"x + {gamma}*Tr{{{d}}}(x)"],
                     F.q, 0 if permutation else 1, _json_check(expected))

    def _op_invert(self, T, rng, family):
        F = T.F
        spec = instances.GENERATORS[family](T, rng)
        path = self._write(spec.descriptor())
        points = _points(rng, F.q)

        def check(out):
            doc = json.loads(out)
            table = doc["table"]
            errs = oracle.inverse_errors(spec.forward, table)
            if doc["certified"] is not True:
                errs.append("inverse not certified")
            return errs or _poly_errors(F, doc["poly"], table, points)
        return CliOp(f"invert-{family}@{F.p}^{F.n}",
                     ["invert", "--file", path], F.q, 0, check)

    def _op_involution(self, T, rng, family):
        F = T.F
        spec = instances.GENERATORS[family](T, rng)
        path = self._write(spec.descriptor())
        verdict = oracle.is_involution(spec.forward)

        def check(out):
            doc = json.loads(out)
            errs = []
            if doc["is_involution"] != verdict:
                errs.append(f"involution verdict {doc['is_involution']} "
                            "is wrong")
            if doc["oracle_agrees"] is not True:
                errs.append("criterion report says its oracle disagrees")
            return errs
        return CliOp(f"involution-{family}@{F.p}^{F.n}",
                     ["involution", "--file", path], F.q, 0, check)

    def _op_interpolate(self, T, rng, _):
        F = T.F
        table = [rng.randrange(F.q) for _ in range(F.q)]
        points = _points(rng, F.q)

        def check(out):
            return _poly_errors(F, json.loads(out)["poly"], table, points)
        return CliOp(f"interpolate@{F.p}^{F.n}",
                     ["interpolate", *_field_args(F), "--table",
                      ",".join(map(str, table))], F.q, 0, check)

    def _op_agw_verify(self, T, rng, _):
        """A diagram over the absolute trace; half of them have a collapsed
        g, so the report varies."""
        F = T.F
        lam = T.trace(1)
        S = sorted(set(lam))
        fibers: dict = {}
        for x in range(F.q):
            fibers.setdefault(lam[x], []).append(x)
        if rng.random() < 0.5:
            image = S[:]
            rng.shuffle(image)
        else:
            image = [rng.choice(S) for _ in S]
        g = dict(zip(S, image))
        f = [rng.choice(fibers[g[lam[x]]]) for x in range(F.q)]
        for s, xs in fibers.items():
            if rng.random() < 0.7 and len(fibers[g[s]]) == len(xs):
                targets = fibers[g[s]][:]
                rng.shuffle(targets)
                for x, y in zip(xs, targets):
                    f[x] = y
        path = self._write({"field": {"p": F.p, "n": F.n}, "f": f,
                            "lambda": lam, "lambda_bar": lam,
                            "g": [[s, g[s]] for s in S], "S": S,
                            "S_bar": S})
        expected = oracle.agw_report(F.q, f, lam, lam, g, S, S)
        return CliOp(f"agw-verify@{F.p}^{F.n}", ["agw-verify", "--file", path],
                     F.q, 0, _json_check(expected))

    def _op_search(self, T, rng, _):
        """The documented lexicographic scan over (s, r, h), deg h <= 2;
        most candidates fail the family's hypotheses."""
        F = T.F
        q = F.q
        limit = rng.randint(150, 250) if q > 8 else rng.randint(20, 40)
        examined, found, exhausted = 0, [], True
        for s, r in ((s, r) for s in range(1, q) if (q - 1) % s == 0
                     for r in range(1, q)):
            for coeffs in itertools.product(range(q), repeat=3):
                if not any(coeffs):
                    continue
                if examined >= limit:
                    exhausted = False
                    break
                examined += 1
                h = {e: c for e, c in enumerate(coeffs) if c}
                if oracle.mul_candidate_ok(F, r, s, h):
                    found.append({"r": r, "s": s, "h": oracle.render(h)})
            if not exhausted:
                break
        expected = {"family": "mul", "seed": 0, "limit": limit,
                    "examined": examined, "exhausted": exhausted,
                    "found": found}
        return CliOp(f"search@{F.p}^{F.n}",
                     ["search", *_field_args(F), "--limit", str(limit)], q,
                     0, _json_check(expected))

    def _op_golden(self, T, rng, index):
        args, name, code, q = GOLDEN_RUNS[index]
        want = (GOLDEN / name).read_bytes()

        def check(out):
            return [] if out == want else [f"output differs from {name}"]
        return CliOp(f"golden-{name}", args, q, code, check)

    def _op_reject(self, T, rng, _):
        """A multiplicative descriptor whose h vanishes at a root of unity;
        the program must reject it with HVanishes and that root."""
        F = T.F
        ell = rng.choice([d for d in range(2, 9) if (F.q - 1) % d == 0])
        s = (F.q - 1) // ell
        r = rng.choice([r for r in range(1, F.q - 1) if math.gcd(r, s) == 1])
        root = rng.choice(F.roots_of_unity(ell))
        h = {0: F.neg(root), 1: 1}
        path = self._write({"family": "mul", "field": {"p": F.p, "n": F.n},
                            "r": r, "s": s, "h": oracle.render(h)})

        def check(out):
            doc = json.loads(out)
            if doc.get("error") != "HVanishes" or doc.get("witness") != root:
                return [f"expected HVanishes at {root}, got {doc}"]
            return []
        return CliOp(f"reject@{F.p}^{F.n}", ["invert", "--file", path], F.q,
                     1, check)

    def execute(self, op: CliOp, tracer=None) -> Outcome:
        spans_file = None
        if tracer is not None:
            spans_file = self.tmpdir / f"spans{next(self._files)}.json"
        try:
            latency, proc = self._call(op.args, spans_file)
        except subprocess.TimeoutExpired:
            return _crash(op.label, op.q, CHILD_TIMEOUT_S)
        out = Outcome(op.label, op.q, latency, [], proc.returncode)
        if proc.returncode != op.code:
            out.errors.append(
                f"exit code {proc.returncode}, expected {op.code}: "
                + proc.stderr.decode(errors="replace")[-500:])
            return out
        try:
            out.errors.extend(op.check(proc.stdout))
            out.payload = json.loads(proc.stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            out.errors.append(f"unreadable output: {exc!r}")
        if spans_file is not None:
            dump = json.loads(spans_file.read_text(encoding="utf-8"))
            spans_file.unlink()
            out.spans, out.counts = dump["spans"], dump["counts"]
            out.run_span = sum(end - start for name, start, end, parent
                               in out.spans
                               if name == "cli.run" and parent < 0)
        return out
