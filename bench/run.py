"""Benchmark of whole `finring` CLI queries: aut, iso-search and report --oracle.

Run from the repository root:

    python3 bench/run.py --workload aut_ladder --seed 1 --seconds 40 --trace 0

Each query is one in-process `finring.cli.main([...])` call with stdout
captured and parsed, so argument parsing, file loading and JSON output are
timed with the engine.  The load is a closed loop: one client, one thread,
queries one after another, whole passes over the workload repeated until
the next pass would overrun --seconds (at least one pass).  Every answer is
checked against a known result.  wall_s and setup_s are rescaled by the
machine's speed during the run, measured with the kernel in speed.py.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the run makes one untraced pass, then wraps finring's layer entry
points (see spans.py) and reports per-layer self times and counts of the
traced passes.  The exit code is 0 only when every answer was right.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
BUILD = ROOT / ".bench_build"
SETUP_SAMPLES = 7
# Speed-kernel time: before the first pass, and after each pass as a share
# of its time, so that the samples cover the run as evenly as one thread can.
SPEED_FIRST_S = 1.0
SPEED_SHARE = 0.15

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "answered_frac": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "automorphisms.group_law.self_s": "s",
    "automorphisms.group_law.total_s": "s",
    "automorphisms.group_law.compositions": "count",
    "maps.ring_iso_check.calls": "count",
    "maps.ring_iso_check.self_s": "s",
    "maps.invert.calls": "count",
    "maps.invert.self_s": "s",
    "maps.compose.calls": "count",
    "morphisms.corner_search.self_s": "s",
    "morphisms.corner_search.total_s": "s",
    "morphisms.corner_search.tuples": "count",
    "morphisms.corner_search.found": "count",
    "morphisms.corner_search.yield": "ratio",
    "morphisms.row_search.self_s": "s",
    "morphisms.row_search.total_s": "s",
    "morphisms.row_search.candidates": "count",
    "morphisms.row_search.found": "count",
    "morphisms.row_search.yield": "ratio",
    "morphisms.enumerate.yielded": "count",
    "morphisms.synthesize.self_s": "s",
    "morphisms.decompose.self_s": "s",
    "subgroups.span.calls": "count",
    "subgroups.span.self_s": "s",
    "subgroups.decompose.calls": "count",
    "subgroups.decompose.self_s": "s",
    "subgroups.contains.calls": "count",
    "corners.peirce_component.calls": "count",
    "corners.corner_ring.calls": "count",
    "corners.corner_ring.self_s": "s",
    "presentation.validate.calls": "count",
    "presentation.validate.self_s": "s",
    "presentation.mul.calls": "count",
    "presentation.elements.swept": "count",
    "idempotents.enumerate.self_s": "s",
    "idempotents.is_semicentral.calls": "count",
    "sequences.triangularity.calls": "count",
    "sequences.triangularity.self_s": "s",
    "triangulate.complete.calls": "count",
    "triangulate.complete.self_s": "s",
    "structure.admissible_orders.self_s": "s",
    "oracle.calls": "count",
    "oracle.self_s": "s",
    "jsonio.self_s": "s",
    "cli.self_s": "s",
    "cli.refused": "count",
    "trace.overhead_s": "s",
}


def use_source_tree():
    """Import finring from this checkout's src/, never from elsewhere."""
    init = SRC / "finring" / "__init__.py"
    if not init.is_file():
        raise SystemExit("bench: %s not found; run from a finring checkout" % init)
    sys.path.insert(0, str(SRC))
    import finring
    import finring.cli

    if Path(finring.__file__).resolve() != init.resolve():
        raise SystemExit("bench: imported finring from %s, not %s" % (finring.__file__, init))
    return finring.cli


def setup(workload: str, seed: int, workdir: str):
    """Generate the workload's ring files and load them through finring."""
    return workloads.build(workload, seed, workdir, str(FIXTURES))


def timed_setups(workload: str, seed: int, samples: int) -> list[float]:
    """Wall time of `samples` fresh interpreters, each starting up, importing
    finring and running setup()."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        # no timeout: Popen.wait with a timeout polls, which rounds to 50 ms
        subprocess.run(cmd, cwd=str(ROOT), check=True, stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - t0)
    return out


class Pass:
    """Outcome of one pass over a workload."""

    def __init__(self):
        self.times: list[float] = []
        self.answered = 0
        self.refused = 0
        self.errors = 0
        self.layers: dict[str, float] = {}

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_query(cli, argv):
    """One in-process CLI call: (exit code or None if it raised, stdout,
    stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), elapsed


def run_pass(cli, wl, tracer=None) -> Pass:
    p = Pass()
    gen = workloads.queries(wl)
    result = None
    while True:
        try:
            q = gen.send(result)
        except StopIteration:
            return p
        code, stdout, stderr, elapsed = run_query(cli, q.argv)
        p.times.append(elapsed)
        result = None
        if code == 3 and q.refusal_ok:
            p.refused += 1
            continue
        if code != 0:
            p.errors += 1
            print("bench: %s exited %r\n%s" % (" ".join(q.argv), code, stderr), file=sys.stderr)
            continue
        if tracer is not None:
            tracer.paused = True
        try:
            payload = json.loads(stdout)
            q.check(payload)
        except Exception as exc:  # any malformed or wrong answer is a failed query
            p.errors += 1
            print("bench: wrong answer to %s: %s: %s"
                  % (" ".join(q.argv), type(exc).__name__, exc), file=sys.stderr)
        else:
            p.answered += 1
            result = payload
        finally:
            if tracer is not None:
                tracer.paused = False


def per_query_median(passes: list[Pass]) -> float:
    """Sum over queries of each query's median time across passes (raw)."""
    if len({len(p.times) for p in passes}) != 1:
        return statistics.median(p.wall for p in passes)
    return sum(statistics.median(ts) for ts in zip(*(p.times for p in passes)))


def time_kernel(samples: list[float], seconds: float) -> None:
    """Append speed-kernel samples until `seconds` have passed (at least one)."""
    end = time.perf_counter() + seconds
    samples.append(speed.sample())
    while time.perf_counter() < end:
        samples.append(speed.sample())


def measure(cli, wl, seconds: float, tracer=None, speed_samples=None) -> list[Pass]:
    """Repeat whole passes until the next one would end after `seconds`.

    With speed_samples, also run the speed kernel for SPEED_FIRST_S before
    the first pass and for SPEED_SHARE of each pass's time after it,
    appending the samples to that list."""
    start = time.perf_counter()
    share = 0.0
    passes: list[Pass] = []
    if speed_samples is not None:
        speed.sample()  # warm-up: the first sample after set-up often runs slow
        time_kernel(speed_samples, SPEED_FIRST_S)
        share = SPEED_SHARE
    while True:
        if tracer is not None:
            tracer.reset()
        p = run_pass(cli, wl, tracer)
        if tracer is not None:
            p.layers = tracer.layer_values()
        passes.append(p)
        if speed_samples is not None:
            time_kernel(speed_samples, share * p.wall)
        elapsed = time.perf_counter() - start
        if elapsed + (1 + share) * statistics.median(x.wall for x in passes) > seconds:
            return passes


def layer_metrics(passes: list[Pass], overhead: float) -> dict[str, float]:
    """Counts from the first traced pass, times as medians over passes."""
    out = {}
    for name, unit in PER_LAYER.items():
        if unit == "s":
            out[name] = statistics.median(p.layers.get(name, 0.0) for p in passes)
        else:
            out[name] = passes[0].layers.get(name, 0)
    out["cli.refused"] = passes[0].refused
    out["trace.overhead_s"] = overhead
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    cli = use_source_tree()
    BUILD.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="finring-", dir=str(BUILD))
    try:
        if args.setup_only:
            setup(args.workload, args.seed, workdir)
            return 0
        setup_samples = timed_setups(args.workload, args.seed, SETUP_SAMPLES)
        wl = setup(args.workload, args.seed, workdir)
        details = {}
        if args.trace:
            import spans

            baseline = measure(cli, wl, 0)
            tracer = spans.Tracer()
            tracer.install()
            try:
                passes = measure(cli, wl, args.seconds - baseline[0].wall, tracer)
            finally:
                tracer.remove()
            overhead = statistics.median(p.wall for p in passes) - baseline[0].wall
            metrics, units = layer_metrics(passes, overhead), PER_LAYER
            passes = baseline + passes
        else:
            speed_samples: list[float] = []
            passes = measure(cli, wl, args.seconds, speed_samples=speed_samples)
            slowdown = (statistics.mean(speed_samples) / speed.NOMINAL_S) ** speed.SENSITIVITY
            raw = {"setup_s": statistics.median(setup_samples), "wall_s": per_query_median(passes)}
            metrics, units = {
                "setup_s": raw["setup_s"] / slowdown,
                "wall_s": raw["wall_s"] / slowdown,
                "answered_frac": sum(p.answered for p in passes)
                / sum(len(p.times) for p in passes),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }, END_TO_END
            details = {"raw_s": raw, "speed_samples_s": [round(t, 4) for t in speed_samples]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.errors for p in passes)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "pass_wall_s": [round(p.wall, 4) for p in passes],
        "query_s": [[round(t, 4) for t in p.times] for p in passes],
        "setup_samples_s": [round(t, 4) for t in setup_samples],
        "ring_hashes": wl.hashes(),
        **details,
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
