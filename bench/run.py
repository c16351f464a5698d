"""ppinv benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a ppinv checkout; the program is imported from
``src/``.  Each workload is a closed loop with one client: ops run one
after another in this process (the sweeps) or as one ``python -m ppinv``
child each (cli-mix).  Ops are generated from the seed in rounds of a fixed
template; rounds run until ``--seconds`` of op time is spent and at least
MIN_OPS ops are measured.  Every op's output is checked against the
benchmark's own reference (oracle.py) outside the timed interval.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the rounds run untraced for half the budget, then again
with spans around ppinv's public functions (tracing.py), and the last line
carries the per-layer metrics.  The line before it is the run record.
``--smoke`` runs every workload at toy size in both modes and checks that
every metric named in BENCHMARK.json is printed with its unit and that no
op failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

# Ops per timed run are at least MIN_OPS, so p75 always has at least 10
# samples beyond it.  op_tail_s stays at p75 whatever the op count, so that
# runs of a slower and a faster commit report the same percentile.
MIN_OPS = 40
TAIL_PERCENTILE = 75
SETUP_REPEATS = 3

E2E_UNITS = {"setup_s": "s", "elems_per_s": "elements/s", "op_p50_s": "s",
             "op_tail_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}

REJECT_NAMES = ("HVanishes", "NotPermutation", "NotCoprime",
                "ConditionFail", "NotTranslator")


def layer_units() -> dict:
    units = {}
    for name in tracing.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["agw_inverse.accept_ratio"] = "ratio"
    for err in REJECT_NAMES + ("other",):
        units[f"agw_inverse.rejects.{err}"] = "count"
    units["cli.rejects.HVanishes"] = "count"
    units["cli.rejects.other"] = "count"
    for code in (0, 1, 2):
        units[f"cli.exit.{code}"] = "count"
    units["cli.search.accept_ratio"] = "ratio"
    units["cli.startup_s"] = "s"
    units["bench.uncovered_s"] = "s"
    units["bench.uncovered_share"] = "ratio"
    units["trace.untraced_elems_per_s"] = "elements/s"
    units["trace.traced_elems_per_s"] = "elements/s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def load_ppinv():
    """Import ppinv from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ppinv" / "__init__.py").is_file():
        sys.exit(f"run.py: no ppinv sources under {src}")
    sys.path.insert(0, str(src))
    import ppinv
    if Path(ppinv.__file__).resolve().parent != (src / "ppinv").resolve():
        sys.exit(f"run.py: imported ppinv from {ppinv.__file__}")
    return ppinv


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(latencies: list) -> tuple:
    """(value, samples beyond it) of the TAIL_PERCENTILE, nearest rank."""
    xs = sorted(latencies)
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(xs))
    return xs[rank - 1], len(xs) - rank


def run_rounds(wl, rng, budget: float, min_ops: int, tracer=None,
               replay=None, keep=False):
    """Closed loop over whole rounds: new rounds until ``budget`` seconds
    of op time and ``min_ops`` ops, or exactly the rounds of ``replay``.
    Returns (rounds if ``keep``, outcomes)."""
    rounds, outcomes = [], []
    spent, k = 0.0, 0
    while True:
        if replay is not None:
            if k == len(replay):
                break
            ops = replay[k]
        else:
            if spent >= budget and len(outcomes) >= min_ops:
                break
            ops = wl.make_round(rng, k)
        for op in ops:
            outcome = wl.execute(op, tracer)
            outcome.round = k
            spent += outcome.latency
            outcomes.append(outcome)
        if keep:
            rounds.append(ops)
        k += 1
    return rounds, outcomes


def throughput(outcomes) -> float:
    """Elements of correctly completed ops per second of op time: the
    median over rounds, so a burst of machine noise in one round does not
    move it."""
    per_round: dict = {}
    for o in outcomes:
        acc = per_round.setdefault(o.round, [0, 0.0])
        acc[0] += 0 if o.errors else o.q
        acc[1] += o.latency
    return statistics.median(q / t for q, t in per_round.values())


def end_to_end(setup_s: float, outcomes) -> tuple:
    lat = [o.latency for o in outcomes]
    tail_value, beyond = tail(lat)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ok = sum(1 for o in outcomes if not o.errors)
    values = {"setup_s": setup_s,
              "elems_per_s": throughput(outcomes),
              "op_p50_s": statistics.median(lat),
              "op_tail_s": tail_value,
              "peak_rss_mb": (self_kb + child_kb) / 1024,
              "ok_frac": ok / len(outcomes)}
    return values, {"op_tail_percentile": TAIL_PERCENTILE,
                    "op_samples": len(lat), "op_tail_beyond": beyond}


def per_layer(wl, untraced, traced, tracer) -> dict:
    """Per-layer metrics of the traced pass, with the untraced pass of the
    same ops for the tracing overhead and the CLI start-up estimate."""
    values = dict.fromkeys(layer_units(), 0)
    spans_by_op = ([o.spans for o in traced] if wl.kind == "cli"
                   else [tracer.spans])
    counts: dict = {}
    if wl.kind == "cli":
        for o in traced:
            for key, v in o.counts.items():
                counts[key] = counts.get(key, 0) + v
    else:
        counts = dict(tracer.counts)
    for spans in spans_by_op:
        for name, (calls, self_s) in tracing.self_times(spans).items():
            if name in tracing.SPAN_NAMES:
                values[f"{name}.calls"] += calls
                values[f"{name}.self_s"] += self_s
    attempts = sum(values[f"{c}.calls"] for c in tracing.CONSTRUCTORS)
    values["agw_inverse.accept_ratio"] = (
        counts.get("accepted", 0) / attempts if attempts else 0.0)
    for key, v in counts.items():
        if key.startswith("rejects."):
            err = key[len("rejects."):]
            err = err if err in REJECT_NAMES else "other"
            values[f"agw_inverse.rejects.{err}"] += v

    op_time = sum(o.latency for o in traced)
    if wl.kind == "cli":
        covered = sum(o.run_span for o in traced)
        examined = found = 0
        for o in traced:
            key = f"cli.exit.{o.exit_code}"
            values[key] = values.get(key, 0) + 1
            error = o.payload.get("error") if o.exit_code == 1 else None
            if error:
                key = error if error == "HVanishes" else "other"
                values[f"cli.rejects.{key}"] += 1
            if "examined" in o.payload:
                examined += o.payload["examined"]
                found += len(o.payload["found"])
        values["cli.search.accept_ratio"] = (found / examined
                                             if examined else 0.0)
        values["cli.startup_s"] = statistics.median(
            u.latency - t.run_span for u, t in zip(untraced, traced))
    else:
        covered = sum(end - start for name, start, end, parent
                      in tracer.spans
                      if parent >= 0 and tracer.spans[parent][0] == "bench.op")
    values["bench.uncovered_s"] = op_time - covered
    values["bench.uncovered_share"] = (op_time - covered) / op_time
    values["trace.untraced_elems_per_s"] = throughput(untraced)
    values["trace.traced_elems_per_s"] = throughput(traced)
    values["trace.overhead_ratio"] = (op_time
                                      / sum(o.latency for o in untraced))
    return values


def make_workload(name: str, size: str, ppinv, tmpdir: Path):
    if name == "cli-mix":
        return workloads.CliMix(size, tmpdir)
    return workloads.Sweep(name, size, ppinv)


def run(name: str, seed: int, seconds: float, trace: bool,
        size: str = "full") -> tuple:
    """Returns (run record, result object)."""
    ppinv = load_ppinv()
    rng = random.Random(f"{name}/{seed}")
    tmpdir = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        wl = make_workload(name, size, ppinv, tmpdir)
        setup_s = statistics.median(wl.setup() for _ in range(SETUP_REPEATS))
        wl.prepare()
        tracer = None
        if trace:
            rounds, untraced = run_rounds(wl, rng, seconds / 2, 1, keep=True)
            tracer = tracing.Tracer()
            if wl.kind == "sweep":
                tracer.install()
            try:
                _, traced = run_rounds(wl, rng, 0, 0, tracer, replay=rounds)
            finally:
                tracer.uninstall()
            outcomes = untraced + traced
            metrics = per_layer(wl, untraced, traced, tracer)
            units = layer_units()
            shape = {}
        else:
            _, outcomes = run_rounds(wl, rng, seconds, MIN_OPS)
            metrics, shape = end_to_end(setup_s, outcomes)
            units = E2E_UNITS
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    failures = [f"{o.label}: {e}" for o in outcomes for e in o.errors]
    for line in failures[:20]:
        print(f"run.py: FAILED {line}", file=sys.stderr)
    record = {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(), "seed": seed, "workload": name,
        "trace": int(trace), "size": size,
        "fields": [{"p": p, "n": n, "q": p ** n} for p, n in wl.fields],
        "ops": len(outcomes), "setup_s": setup_s,
        "failed_frac": sum(1 for o in outcomes if o.errors) / len(outcomes),
        **shape,
    }
    result = {"correct": not failures, "attempted": len(outcomes),
              "failed": sum(1 for o in outcomes if o.errors),
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}
    return record, result


def smoke() -> int:
    """Every workload at toy size, untraced and traced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name in workloads.WORKLOAD_NAMES:
        for trace in (0, 1):
            record, result = run(name, seed=1, seconds=0.2, trace=bool(trace),
                                 size="toy")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{name} trace={trace}: metrics or units "
                                "differ from BENCHMARK.json")
            if result["failed"] or not result["correct"]:
                problems.append(f"{name} trace={trace}: failed_frac = "
                                f"{record['failed_frac']}")
            print(f"smoke {name} trace={trace}: {result['attempted']} ops, "
                  f"{result['failed']} failed", flush=True)
    for line in problems:
        print(f"smoke: {line}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    record, result = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
