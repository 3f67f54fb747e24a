"""ncham benchmark: end-to-end metrics per workload, per-layer traces.

    python3 bench/run.py                      # all workloads, summary table
    python3 bench/run.py --trace 1            # per-layer table per workload
    python3 bench/run.py --workload cartan --seed 20260809 --seconds 25 \\
        --trace 0                              # one run, JSON on last line

Run from the root of a checkout; ncham is imported from its `src`.  With
--workload the run happens in this process and the last stdout line is
{"correct", "attempted", "failed", "metrics"}.  Without it, each workload
runs in a fresh process of its own and the results are tabulated.

An op that raises counts as failed; an op whose result differs from its
oracle counts as failed and makes `correct` false.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS_DIR = BENCH / "out"

DEFAULT_SEED = workloads.ACCEPTANCE_SEED
DEFAULT_SECONDS = 25

END_TO_END = (("ops_per_kref", "ops/kref"), ("op_p50_ref", "ref"),
              ("op_p90_ref", "ref"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

PROBE_EVERY_S = 0.02    # least time between two reference probes
PROBE_NEAREST = 2       # an op's reference: this many probes on each side
SETUP_PROBES = 5        # probes just before and just after each set-up
# setup_s is given in seconds on a host where the reference loop takes this
# long: about its time on a 2.0 GHz Xeon VM in the host's faster phase
REF_NOMINAL_S = 0.0002


def reference_loop():
    """A fixed piece of pure-Python work like ncham's own: tuple keys in a
    dict and Fraction arithmetic.  It calls nothing in ncham, so its time
    follows only the speed the host gives this process at that moment."""
    table = {}
    acc = Fraction(0)
    for i in range(60):
        key = (i % 7, i % 5, i)
        table[key] = table.get(key, 0) + i
        acc += Fraction(i, 7)
    return acc


def probe():
    """Seconds the reference loop takes now."""
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


def use_checkout_source():
    """Import ncham from this checkout's src, and from nowhere else."""
    if not (SRC / "ncham" / "__init__.py").is_file():
        raise SystemExit("error: no ncham sources under %s" % SRC)
    sys.path.insert(0, str(SRC))


def fresh_import(modules):
    """Drop every loaded ncham module, then import `modules` anew."""
    for name in [n for n in sys.modules
                 if n == "ncham" or n.startswith("ncham.")]:
        del sys.modules[name]
    for name in modules:
        mod = importlib.import_module(name)
    if not Path(mod.__file__).resolve().is_relative_to(SRC):
        raise SystemExit("error: ncham was imported from %s" % mod.__file__)


def set_up(workload, before_build=None):
    """One set-up: fresh import plus model builds; (seconds, state).

    Garbage from earlier set-ups is collected before the clock starts.
    """
    gc.collect()
    t0 = perf_counter()
    fresh_import(workload.modules)
    if before_build is not None:
        before_build()
    state = workload.build()
    return perf_counter() - t0, state


class Result:
    def __init__(self):
        self.latencies = []
        self.pass_starts = []      # index of each pass's first op
        self.probes = []           # (ops done before it, reference seconds)
        self.failed = 0
        self.wrong = 0
        self.errors = Counter()
        self.wall = 0.0            # time in passes, without their set-ups
        self.check_s = 0.0


def _run_op(op, res, tracer):
    if tracer is not None:
        tracer.op_id = len(res.latencies)
        tracer.active = True
    t0 = perf_counter()
    try:
        result = op.run()
        raised = None
    except Exception as exc:    # a failing op must not end the run
        raised = exc
    t1 = perf_counter()
    if tracer is not None:
        tracer.active = False
    res.latencies.append(t1 - t0)
    if raised is not None:
        res.failed += 1
        frame = traceback.extract_tb(raised.__traceback__)[-1]
        res.errors["%s: %s at %s:%d" % (op.kind, type(raised).__name__,
                                         Path(frame.filename).name,
                                         frame.lineno)] += 1
    elif not op.check(result, op.expect()):
        res.failed += 1
        res.wrong += 1
        res.errors["%s: differs from oracle" % op.kind] += 1
    res.check_s += perf_counter() - t1


def run_ops(workload, seed, states, seconds=None, max_ops=None, tracer=None):
    """Time whole passes of ops until `seconds` pass or `max_ops` ran.

    Each pass runs on a state of its own from the iterator `states`.
    """
    res = Result()
    start = perf_counter()
    last_probe = -PROBE_EVERY_S

    def done():
        if max_ops is not None:
            return len(res.latencies) >= max_ops
        return perf_counter() - start >= seconds

    while True:
        ops = workload.ops(next(states), seed)
        res.pass_starts.append(len(res.latencies))
        t_pass = perf_counter()
        for op in ops:
            if perf_counter() - last_probe >= PROBE_EVERY_S:
                res.probes.append((len(res.latencies), probe()))
                last_probe = perf_counter()
            _run_op(op, res, tracer)
            if workload.collect_between_ops:
                gc.collect()
        res.wall += perf_counter() - t_pass
        # drop the finished pass, so its models are freed before a rebuild
        ops = op = None
        if done():
            return res


def set_up_states(workload, setups):
    """Endless fresh set-ups; each one's (seconds, reference seconds) are
    appended to `setups`, the second the median of the probes around it."""
    while True:
        near = [probe() for _ in range(SETUP_PROBES)]
        dt, state = set_up(workload)
        near += [probe() for _ in range(SETUP_PROBES)]
        setups.append((dt, statistics.median(near)))
        yield state
        state = None    # collected before the next set-up starts its clock


def traced_states(workload, tracer):
    """A set-up that installs `tracer`, then traced rebuilds of the models."""
    def install():
        tracer.install()
        tracer.active = True

    _, state = set_up(workload, before_build=install)
    tracer.active = False
    while True:
        yield state
        state = None
        tracer.op_id = -1
        tracer.active = True
        state = workload.build()
        tracer.active = False


def median_ref(res):
    """The reference loop's median time over a run's probes, in seconds."""
    return statistics.median(s for _, s in res.probes)


def latencies_in_ref(res):
    """Each op's latency in units of the reference loop's time.

    The host's speed for this process changes by up to twice, in phases of
    seconds to minutes that can cover a whole run.  The reference loop is
    timed between ops, every PROBE_EVERY_S, and each op is divided by the
    median of the PROBE_NEAREST probes on either side of it: probes that ran
    moments before and after it, so as a rule at the same host speed.
    """
    at = [i for i, _ in res.probes]
    secs = [s for _, s in res.probes]
    out = []
    for k, lat in enumerate(res.latencies):
        j = bisect.bisect_right(at, k)      # probes[:j] ran before op k
        near = secs[max(0, j - PROBE_NEAREST):j + PROBE_NEAREST]
        out.append(lat / statistics.median(near))
    return out


def typical_latencies(res):
    """Each op's median latency, in reference units, over the run's passes.

    Every pass of a run is the same ops in the same order, each pass from
    freshly built models, so op k of one pass is the same work as op k of
    any other.
    """
    lat = latencies_in_ref(res)
    bounds = res.pass_starts + [len(lat)]
    passes = [lat[a:b] for a, b in zip(bounds, bounds[1:])]
    if len({len(p) for p in passes}) != 1:
        raise ValueError("the passes of a run differ in length")
    return [statistics.median(rep) for rep in zip(*passes)]


def end_to_end(res, setups):
    lat = typical_latencies(res)
    return {
        "ops_per_kref": 1000 * len(lat) / sum(lat),
        "op_p50_ref": statistics.median(lat),
        "op_p90_ref": statistics.quantiles(lat, n=10)[8],
        "setup_s": statistics.median(dt / ref for dt, ref in setups)
        * REF_NOMINAL_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def measure(workload, seed, seconds):
    """Untraced run: a fresh set-up before each pass of timed ops."""
    setups = []
    res = run_ops(workload, seed, set_up_states(workload, setups),
                  seconds=seconds)
    return res, setups, end_to_end(res, setups)


def measure_traced(workload, seed, seconds):
    """Untraced ops for half the time, then the same ops traced."""
    plain = run_ops(workload, seed, set_up_states(workload, []),
                    seconds=seconds / 2)
    tracer = tracing.Tracer()
    try:
        traced = run_ops(workload, seed, traced_states(workload, tracer),
                         max_ops=len(plain.latencies), tracer=tracer)
    finally:
        tracer.restore()
    metrics = tracer.metrics()
    wrapped = tracer.op_self_s()
    # both walls in reference units, so that a change of host speed between
    # the two phases does not show as overhead
    metrics.update({"trace.overhead": (traced.wall / median_ref(traced))
                    / (plain.wall / median_ref(plain)),
                    "trace.timed_wall_s": traced.wall,
                    "trace.wrapped_self_s": wrapped,
                    "trace.unwrapped_s": traced.wall - wrapped})
    SPANS_DIR.mkdir(exist_ok=True)
    tracer.write_spans(SPANS_DIR / ("spans-%s.bin" % workload.name))
    return plain, traced, metrics


def report(workload, seed, seconds, trace):
    """Run one workload in this process; the result line as a dict."""
    if trace:
        plain, res, values = measure_traced(workload, seed, seconds)
        units = dict(tracing.metric_names())
        wrong = plain.wrong + res.wrong
        print("traced %d ops; overhead %.3f; oracle checks took %.3f s of "
              "the unwrapped time" % (len(res.latencies),
                                      values["trace.overhead"], res.check_s))
    else:
        res, setups, values = measure(workload, seed, seconds)
        units = dict(END_TO_END)
        wrong = res.wrong
        ref = median_ref(res)
        print("%d passes of %d ops; reference loop: median %.4f ms over %d "
              "probes, so op_p50_ref is %.3f ms here; median set-up as "
              "measured: %.4f s"
              % (len(res.pass_starts), len(res.latencies)
                 // len(res.pass_starts), ref * 1e3, len(res.probes),
                 values["op_p50_ref"] * ref * 1e3,
                 statistics.median(dt for dt, _ in setups)))
    for what, count in sorted(res.errors.items()):
        print("failed %dx %s" % (count, what), file=sys.stderr)
    for name, unit in units.items():
        print("%-40s %16.6f %s" % (name, values[name], unit))
    return {"correct": wrong == 0,
            "attempted": len(res.latencies),
            "failed": res.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def run_all(args):
    """Each workload in a fresh process; a table of every metric."""
    names = list(workloads.WORKLOADS)
    results = {}
    for name in names:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print("error: workload %s exited %d" % (name, proc.returncode),
                  file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    if args.trace:
        rows = tracing.metric_names()
        moves = {e.name: e.moves for e in tracing.ENTRY_POINTS}
    else:
        rows = list(END_TO_END) + [("op_fail_share", "ratio")]
        for r in results.values():
            r["metrics"]["op_fail_share"] = {
                "value": r["failed"] / r["attempted"], "unit": "ratio"}
    print("%-40s %-6s" % ("metric", "unit")
          + "".join("%14s" % n for n in names))
    for metric, unit in rows:
        cells = []
        for name in names:
            value = results[name]["metrics"][metric]["value"]
            absent = args.trace and metric.endswith((".calls", ".self_s")) \
                and results[name]["metrics"][
                    metric.rsplit(".", 1)[0] + ".calls"]["value"] == 0
            cells.append("%14s" % "absent" if absent else "%14.6g" % value)
        print("%-40s %-6s" % (metric, unit) + "".join(cells))
    print("%-47s" % "ops attempted / failed / correct" + "".join(
        "%14s" % ("%d/%d/%s" % (r["attempted"], r["failed"],
                                "yes" if r["correct"] else "NO"))
        for r in results.values()))
    if args.trace:
        print("\nwhich end-to-end metric each entry point should move:")
        for name, text in moves.items():
            print("  %-32s %s" % (name, text))
        print("time-waited: absent for every layer (one thread, no queues)")
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    use_checkout_source()
    if args.workload:
        print(json.dumps(report(workloads.WORKLOADS[args.workload], args.seed,
                                args.seconds, args.trace)))
        return 0
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
