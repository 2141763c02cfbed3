"""Host-time benchmark of the flashvmm simulator.

One process, one thread, one client in a closed loop: each op starts
when the previous one has been checked. Run from the repository root:

    python3 bench/run.py --workload tune-ramp --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 10       # table of all workloads
    python3 bench/run.py --manifest check                  # artifact byte-identity

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced replay (see README.md). The last line of standard
output is one JSON object: correct, attempted, failed and metrics. The
exit code is 1 when any op fails its check. All times are host time;
the end-to-end ones are corrected for the host's changing speed by
interleaved probes (``RefClock``, README.md).
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_MIN_REPEATS = 7
SETUP_MIN_SECONDS = 1.0
PROBE_EVERY_S = 0.5  # op time between two host-speed probes
TAIL_BEYOND = 10  # ops the tail percentile must leave above it
TAIL_LADDER_PERMILLE = (999, 990, 950, 900, 500)


def tail_percentile(n_ops):
    """Highest ladder percentile with at least TAIL_BEYOND ops above it.

    Falls back to the median when the run is too short for any.
    """
    for pm in TAIL_LADDER_PERMILLE:
        if n_ops * (1000 - pm) >= TAIL_BEYOND * 1000:
            return pm / 10.0
    return 50.0


# ------------------------------------------------------------------ setup

def import_flashvmm():
    """Import flashvmm afresh from this checkout's ``src``."""
    if not (SRC / "flashvmm" / "__init__.py").is_file():
        raise SystemExit(f"flashvmm sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "flashvmm" or m.startswith("flashvmm.")]:
        del sys.modules[name]
    fv = importlib.import_module("flashvmm")
    if Path(fv.__file__).resolve().parent != SRC / "flashvmm":
        raise SystemExit(f"imported flashvmm from {fv.__file__}, not from {SRC}")
    return fv


def setup(workload_cls, seed):
    """Import and build several times; the loop uses the last build.

    Returns (fv, workload, medians of import_s, build_s and their sum in
    reference seconds, and of their sum in host seconds).
    """
    clock = RefClock("scalar")
    imports, builds, totals, host = [], [], [], []
    started = perf_counter()
    while len(totals) < SETUP_MIN_REPEATS or perf_counter() - started < SETUP_MIN_SECONDS:
        t0 = perf_counter()
        fv = import_flashvmm()
        t1 = perf_counter()
        wl = workload_cls(fv, seed)
        t2 = perf_counter()
        imp, build = clock.convert([t1 - t0, t2 - t1])
        imports.append(imp)
        builds.append(build)
        totals.append(imp + build)
        host.append(t2 - t0)
    med = statistics.median
    return fv, wl, {
        "import_s": med(imports),
        "build_s": med(builds),
        "setup_s": med(totals),
        "host_setup_s": med(host),
        "repeats": len(totals),
    }


# ------------------------------------------------------------ host speed

def scalar_probe():
    """The pulse kernel's kind of work, without flashvmm: a Python loop over
    a 32x34 array with scalar reads and writes, and a fresh numpy
    Generator draw at every eighth site."""
    a = np.zeros((32, 34))
    for r in range(32):
        for c in range(34):
            v = float(a[r, c]) + 0.5 * (r - c)
            if c % 8 == 0:
                v += np.random.default_rng((r, c)).standard_normal()
            a[r, c] = v
    return float(a.sum())


def bulk_probe():
    """A noisy multiply's kind of work, without flashvmm: one bulk draw of normals."""
    return float(np.random.default_rng(11).standard_normal(262144).sum())


# probe -> its host time on the reference machine when that machine is quiet
PROBES = {"scalar": (scalar_probe, 2.2e-3), "bulk": (bulk_probe, 3.4e-3)}


class RefClock:
    """Converts host seconds into reference seconds.

    A shared host, such as the 2-vCPU reference machine, changes speed by
    20% and more between runs and within one. A probe of the same kind of work
    as the workload slows down with it, so each interval is scaled by the
    probe's reference time over the mean host time of the probes run just
    before and just after it. A time then reads as it would on the quiet
    reference machine.
    """

    def __init__(self, kind):
        self.probe, self.ref_s = PROBES[kind]
        self.last = self.time_probe()
        self.factors = []

    def time_probe(self):
        t0 = perf_counter()
        check = self.probe()
        dt = perf_counter() - t0
        if not np.isfinite(check):
            raise RuntimeError("host-speed probe returned a non-finite sum")
        return dt

    def convert(self, intervals):
        before, self.last = self.last, self.time_probe()
        factor = 2.0 * self.ref_s / (before + self.last)
        self.factors.append(factor)
        return [x * factor for x in intervals]


# ------------------------------------------------------------------- loop

def run_loop(wl, seconds=None, n_ops=None, tracer=None):
    """Closed loop until ``seconds`` of op host time or ``n_ops`` ops are done.

    A host-speed probe runs, untimed, after every ``PROBE_EVERY_S`` of op
    time; ``ref_lat`` holds the op latencies in reference seconds.
    """
    clock = RefClock(wl.probe)
    lat, ref_lat, window = [], [], []
    busy = window_s = 0.0
    failed = 0
    checkpoint = None
    i = 0
    while (busy < seconds) if n_ops is None else (i < n_ops):
        inp = wl.next_input(i)
        if tracer is not None:
            tracer.begin_op(i)
        t0 = perf_counter()
        out = wl.op(inp)
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        lat.append(dt)
        window.append(dt)
        busy += dt
        window_s += dt
        if not wl.check(inp, out):
            failed += 1
        i += 1
        if i == wl.checkpoint:
            checkpoint = wl.digest()
        if window_s >= PROBE_EVERY_S:
            ref_lat += clock.convert(window)
            window, window_s = [], 0.0
    if window:
        ref_lat += clock.convert(window)
    return {
        "lat": lat,
        "ref_lat": ref_lat,
        "busy": busy,
        "ref_busy": sum(ref_lat),
        "host_speed": statistics.median(clock.factors),
        "failed": failed,
        "digest": wl.digest(),
        "checkpoint": {"ops": wl.checkpoint, "sha256": checkpoint},
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_metrics(lat, tail):
    lat_ms = [x * 1e3 for x in lat]
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_ms_p50": float(np.percentile(lat_ms, 50.0)),
        "op_ms_tail": float(np.percentile(lat_ms, tail)),
    }


def end_to_end(setup_info, loop):
    """Metrics in reference time, and the same ones in plain host time."""
    tail = tail_percentile(len(loop["lat"]))
    metrics = {"setup_s": setup_info["setup_s"], **latency_metrics(loop["ref_lat"], tail),
               "peak_rss_mb": peak_rss_mb()}
    host = {"setup_s": setup_info["host_setup_s"], **latency_metrics(loop["lat"], tail)}
    return metrics, host, tail


def per_layer(setup_info, plain, traced, tracer, wl):
    """Per-layer metrics of the traced replay (see README.md for the map)."""
    t = tracer.totals()
    zero = {"calls": 0, "ns": 0, "self_ns": 0, "size": 0}
    loop_ns = traced["busy"] * 1e9

    def get(name):
        return t.get(name, zero)

    def per_call(name, key, scale):
        s = get(name)
        return s[key] / s["calls"] / scale if s["calls"] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    pulse, read, tune = get("array.pulse_cell"), get("array.read_cell"), get("tuning.tune_cell")
    mult, obw = get("vmm.multiply"), get("vmm.optimize_bias_weight")
    shift_calls, shift_ns = tracer.leaves.get("cell.pulse_shift", [0, 0])
    verifies = sum(
        1 for name, size in zip(tracer.names, tracer.sizes)
        if name == "array.read_cell" and size == wl.fv.tuning.VERIFY_SAMPLES
    )
    return {
        "array.pulse_cell.calls": pulse["calls"],
        "array.pulse_cell.us": per_call("array.pulse_cell", "ns", 1e3),
        "array.pulse_cell.ns_per_site": ratio(pulse["ns"], pulse["size"]),
        "array.pulse_cell.share": pulse["ns"] / loop_ns,
        "cell.pulse_shift.calls_per_pulse": ratio(shift_calls, pulse["calls"]),
        "cell.pulse_shift.us": ratio(shift_ns, shift_calls) / 1e3,
        "cell.draws_per_pulse": ratio(wl.draws, pulse["calls"]),
        "array.read_cell.calls": read["calls"],
        "array.read_cell.samples": read["size"],
        "array.read_cell.us": per_call("array.read_cell", "ns", 1e3),
        "array.read_cell.share": read["ns"] / loop_ns,
        "tuning.tune_cell.calls": tune["calls"],
        "tuning.tune_cell.self_ms": per_call("tuning.tune_cell", "self_ns", 1e6),
        "tuning.pulses_per_cell": ratio(pulse["calls"], tune["calls"]),
        "tuning.reads_per_cell": ratio(read["calls"], tune["calls"]),
        "tuning.verify_pass_frac": ratio(tune["size"], verifies),
        "vmm.multiply.calls": mult["calls"],
        "vmm.multiply.us": per_call("vmm.multiply", "ns", 1e3),
        "vmm.multiply.normals_per_call": ratio(mult["size"], mult["calls"]),
        "vmm.multiply.share": mult["ns"] / loop_ns,
        "vmm.optimize_bias_weight.calls": obw["calls"],
        "vmm.optimize_bias_weight.ms": per_call("vmm.optimize_bias_weight", "ns", 1e6),
        "vmm.optimize_bias_weight.share": obw["ns"] / loop_ns,
        "vmm.plan_differential.self_ms": per_call("vmm.plan_differential", "self_ns", 1e6),
        "vmm.differential_multiply.self_us": per_call("vmm.differential_multiply", "self_ns", 1e3),
        "setup.import_s": setup_info["import_s"],
        "setup.build_s": setup_info["build_s"],
        "trace.overhead_frac": traced["ref_busy"] / plain["ref_busy"] - 1.0,
        "pulses_per_s": plain["pulses"] / plain["ref_busy"],
    }


def metric_units(group):
    """Unit of each metric of ``group`` ("end_to_end" or "per_layer") in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[group]}


# ------------------------------------------------------------- provenance

def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, fv, n_ops, tail):
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "ops": n_ops,
        "tail_percentile": tail,
        "flashvmm": fv.__version__,
    }


# ------------------------------------------------------------------- main

def bench_one(args, workloads):
    from tracing import Tracer

    cls = workloads[args.workload]
    fv, wl, setup_info = setup(cls, args.seed)
    op_ms = []
    if not args.trace:
        loop = run_loop(wl, seconds=args.seconds)
        metrics, host, tail = end_to_end(setup_info, loop)
        attempted, failed = len(loop["lat"]), loop["failed"]
        op_ms = [x * 1e3 for x in loop["lat"]]
        extra = {"digest": loop["digest"], "checkpoint": loop["checkpoint"],
                 "host_time_metrics": host, "host_speed": loop["host_speed"]}
    else:
        # untraced first half, then the same ops again on a fresh build, traced
        plain = run_loop(wl, seconds=args.seconds / 2.0)
        plain["pulses"] = wl.pulses
        replay = cls(fv, args.seed)
        tracer = Tracer()
        tracer.install(fv)
        try:
            traced = run_loop(replay, n_ops=len(plain["lat"]), tracer=tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(setup_info, plain, traced, tracer, replay)
        tail = None
        same = traced["digest"] == plain["digest"]
        attempted = len(plain["lat"]) + len(traced["lat"])
        failed = plain["failed"] + traced["failed"] + (0 if same else 1)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write(spans)
        extra = {"digest": plain["digest"], "trace_digest_matches": same, "spans": str(spans)}

    prov = provenance(args, fv, attempted, tail)
    prov.update(extra)
    prov.update(failed_frac=failed / attempted, setup_repeats=setup_info["repeats"],
                pulses=wl.pulses, draws=wl.draws)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    record.write_text(json.dumps({"provenance": prov, **result, "op_ms": op_ms}) + "\n")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def bench_all(args, workloads):
    """Run every workload in its own process and print one table."""
    rows, status = {}, 0
    for name in workloads:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            status = 1
        if not lines:
            continue
        rows[name] = json.loads(lines[-1])
        for k, v in rows[name]["metrics"].items():
            print(f"{name:13s} {k:36s} {v['value']:14.6g} {v['unit']}")
        print(f"{name:13s} {'failed_frac':36s} "
              f"{rows[name]['failed'] / rows[name]['attempted']:14.6g} 1")
    print(json.dumps(rows))
    return status


def main(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--manifest", choices=("check", "write"),
                   help="untimed: compare (or rewrite) the experiment CSV manifest")
    args = p.parse_args(argv)
    if args.manifest:
        import manifest

        import_flashvmm()
        experiments = importlib.import_module("flashvmm.experiments")
        return manifest.main(args.manifest, experiments, BENCH / manifest.MANIFEST, OUT)
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return bench_all(args, WORKLOADS)
    return bench_one(args, WORKLOADS)


if __name__ == "__main__":
    sys.exit(main())
