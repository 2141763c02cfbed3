"""Submission gate: every workload runs clean and every seeded output is unchanged.

    python3 scripts/gate.py 1903 1904    # two or more seeds

For each workload of ``bench/run.py`` and each seed given, the gate runs
the benchmark for 30 s, the benchmark's own run length, and fails on a
non-zero exit or on any failed op. Each run's line shows its
``ops_per_s``, ``op_ms_p50``, ``op_ms_tail`` and ``peak_rss_mb``. It
then runs each workload at seeds 1 and 7311 past its checkpoint and
compares the checkpoint digest with the value pinned in ``PINNED``: a
change meant only to speed up the simulator leaves these unchanged. A
run that ends before its checkpoint fails as such. It then replays the
first ``LONG_OPS`` ops of each workload at the same seeds on the working
tree and on the parent commit (see below), far past the checkpoints, and
fails unless each workload digest and each op's measurement-stream state
are the same. Last, it runs CLI
``multiply`` on the working tree and on the parent commit (see below),
single and differential, each with and without ``--noisy``, CLI
``tune`` on a 4x6 ramp campaign (at the built-in config and under a
raised inhibition floor) and a 32x34 one, and CLI ``experiment`` of
every id at the built-in config and seed, and fails unless every output
CSV, plan, state and disturb file is byte-identical. Exit
code 0 when every check passes, 1 otherwise. Run it from any directory;
it is not part of the test suite.

When a ``diff-program`` run fails ops, the gate replays that seed and
prints each failing (op, w) among the ops with w below ``TAIL_W``, the
known noise tail near w = 0.1. It then replays those ops at the parent
commit, built from ``git archive`` in a temporary directory so that the
working tree is not touched: ``HEAD`` while ``src/`` has uncommitted
changes, ``HEAD~1`` otherwise. An op that the parent fails with the same
digest is labelled ``inherited``, any other ``new``. The run still
fails either way; a replay that finds no such op says the failure is not
that tail.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tune-ramp", "mvm-noisy", "diff-program")

# checkpoint sha256 of each (workload, seed)
PINNED = {
    ("tune-ramp", 1): "6aec6281422daee75efc9809cfb04663c92a8521d53cec19b3336e2127da162b",
    ("mvm-noisy", 1): "f007d034dea33e12f6c2464a1dc53d9977f283a8cb465eb28b8214c3d491b266",
    ("diff-program", 1): "36269e83ac0c92df4bee295ac6baee766079a70b28d507127c1d0a4967c492af",
    ("tune-ramp", 7311): "d5ac6d9fcea6a83b17537cd12c5d1c02f0fb246657dfe3e7cbd2cb335ed00bdb",
    ("mvm-noisy", 7311): "c053208652099ed6e48e6d1bda36860c648ffdd54d3ea729389a3b18d869c469",
    ("diff-program", 7311): "ee8696178ddf407280441bd4a3cf94854c4bc803d8403074ddb59ce66b77e5de",
}
RUN_SECONDS = 30.0
# op seconds that pass every workload's checkpoint (256 mvm-noisy ops take about 2 s)
CHECKPOINT_SECONDS = 5.0
# ops replayed on the working tree and the parent at each PINNED seed: the
# tune-ramp checkpoint covers 16 ops, 16 of the 1,024 targets of an array;
# diff-program's 1,200 ops make 30,000 one-vector multiply calls
LONG_OPS = {"tune-ramp": 2500, "mvm-noisy": 60, "diff-program": 1200}
# every diff-program op seen failing its drift bound had w <= 0.1101
TAIL_W = 0.125
# the CLI multiply run compared with the parent's: 3 rows, 2 logical columns
CLI_WEIGHTS = "0.62,0.31\n0.15,0.88\n0.47,0.205\n"
CLI_INPUTS = "1e-8,5e-8,2e-9\n3e-8,1e-9,7e-8\n5e-9,5e-9,5e-9\n9e-8,2.5e-8,4e-9\n"
# the CLI tune runs compared with the parent's, as (campaign, config YAML or
# None for the built-in one): a 4x6 ramp over 16 cells; the same ramp under
# a floor at which erase draws every cell and program only the target's row
# and column, so the two kinds check their rings apart; and a 32x34 ramp over
# 1,024 cells, whose rings wrap and top up (about 3 s)
RAMP_4X6 = "rows: 4\ncols: 6\nbudget: 60\ntargets: {kind: ramp, lo: 1.0e-10, hi: 1.0e-6}\n"
CLI_TUNES = {
    "tune": (RAMP_4X6, None),
    "tune_floor2e-3": (RAMP_4X6, "inhibition: {floor: 2.0e-3}\n"),
    "tune32x34": ("rows: 32\ncols: 34\nbudget: 100\ntargets: {kind: ramp, lo: 1.0e-10, hi: 1.0e-6}\n",
                  None),
}


def bench(workload, seed, seconds):
    """(exit code, result record, provenance record) of one ``bench/run.py`` run."""
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    prov = next((json.loads(x[len("provenance "):]) for x in lines if x.startswith("provenance ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    return proc.returncode, result, prov


def replay_ops(seed, attempted, only=None):
    """[op, w, passed, digest] of diff-program ops at ``seed``: the ops
    listed in ``only``, or else each of the first ``attempted`` ops with
    w < ``TAIL_W``. Runs in this process on the ``flashvmm`` and
    ``workloads`` modules that ``sys.path`` finds.

    Every op's input is drawn in order, but only the chosen ops run (about
    2 s for a 30 s run's ops). Each op tunes a fresh array, so its result
    does not depend on the ops skipped; its digest is the workload's
    digest of that op alone.
    """
    import flashvmm
    from workloads import DiffProgram

    wl = DiffProgram(flashvmm, seed)
    out = []
    for i in range(attempted):
        inp = wl.next_input(i)
        if (i in only) if only is not None else inp[0] < TAIL_W:
            wl.outputs = hashlib.sha256()  # the digest of this op only
            passed = wl.check(inp, wl.op(inp))
            out.append([i, inp[0], passed, wl.digest()])
    return out


def replay_long(workload, seed, n_ops):
    """[workload digest, sha256 of the measurement-stream state after each
    op] of the first ``n_ops`` ops of ``workload`` at ``seed``, checked as
    the benchmark checks them. Runs in this process on the ``flashvmm``
    and ``workloads`` modules that ``sys.path`` finds."""
    import flashvmm
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](flashvmm, seed)
    states = hashlib.sha256()
    for i in range(n_ops):
        inp = wl.next_input(i)
        out = wl.op(inp)
        wl.check(inp, out)
        array = getattr(out, "array", None) or wl.array  # diff-program tunes a fresh array per op
        states.update(json.dumps(array.measure_rng.bit_generator.state, sort_keys=True).encode())
    return [wl.digest(), states.hexdigest()]


def in_tree(root, func, *args):
    """``func(*args)`` of this script in a fresh process, on the ``src``
    and ``bench`` of the tree at ``root``; its JSON result."""
    code = (
        "import json, sys; sys.path[:0] = sys.argv[1:4]; import gate; "
        f"print(json.dumps(gate.{func}(*json.loads(sys.argv[4]))))"
    )
    paths = [str(Path(root) / "src"), str(Path(root) / "bench"), str(ROOT / "scripts")]
    proc = subprocess.run(
        [sys.executable, "-c", code, *paths, json.dumps(args)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def parent_rev():
    """The commit a change is measured against: ``HEAD`` while ``src/``
    has uncommitted changes, ``HEAD~1`` otherwise."""
    status = subprocess.run(
        ["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
        capture_output=True, text=True, check=True,
    ).stdout
    return "HEAD" if status.strip() else "HEAD~1"


@contextlib.contextmanager
def parent_tree(rev):
    """A temporary directory holding ``src`` and ``bench`` of commit ``rev``."""
    archive = subprocess.run(
        ["git", "archive", rev, "src", "bench"], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tempfile.TemporaryDirectory() as parent:
        tarfile.open(fileobj=io.BytesIO(archive)).extractall(parent, filter="data")
        yield parent


def cli_outputs(root, work):
    """{file name: bytes} of every file the CLI writes from the ``src`` at
    ``root``: ``flashvmm multiply`` in single and differential mode, each
    with and without ``--noisy``, on ``CLI_WEIGHTS`` and the 4
    ``CLI_INPUTS`` vectors, with ``--plan-out`` and ``--state-out``;
    ``flashvmm tune`` of each of ``CLI_TUNES`` with ``--state-out`` and
    ``--disturb-out``; and ``flashvmm experiment`` of every id that tree
    lists, at the built-in config and seed (fig9 takes about 2 s)."""
    work = Path(work)
    inputs = {"w.csv": CLI_WEIGHTS, "x.csv": CLI_INPUTS}
    inputs.update({f"{tag}.yaml": campaign for tag, (campaign, _) in CLI_TUNES.items()})
    inputs.update({f"{tag}.config.yaml": config for tag, (_, config) in CLI_TUNES.items() if config})
    for name, text in inputs.items():
        (work / name).write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"))
    for tag, (_, config) in CLI_TUNES.items():
        tune = [sys.executable, "-m", "flashvmm", "tune", "--campaign", f"{tag}.yaml", "--seed", "5",
                "--results", f"{tag}.csv", "--state-out", f"{tag}.state",
                "--disturb-out", f"{tag}.disturb.csv",
                *(["--config", f"{tag}.config.yaml"] if config else [])]
        subprocess.run(tune, cwd=work, env=env, capture_output=True, check=True)
    for mode in ("single", "differential"):
        for noisy in ([], ["--noisy"]):
            tag = mode + "".join(noisy).replace("--", "_")
            cmd = [sys.executable, "-m", "flashvmm", "multiply", "--weights", "w.csv",
                   "--inputs", "x.csv", "--out", f"{tag}.csv", "--mode", mode, "--seed", "5",
                   "--samples", "64", "--temperature", "330", "--state-out", f"{tag}.state",
                   *noisy, *(["--plan-out", f"{tag}.plan.csv"] if mode == "differential" else [])]
            subprocess.run(cmd, cwd=work, env=env, capture_output=True, check=True)
    ids = subprocess.run(
        [sys.executable, "-c", "from flashvmm.experiments import EXPERIMENT_IDS; print(*EXPERIMENT_IDS)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    for eid in ids:
        cmd = [sys.executable, "-m", "flashvmm", "experiment", eid, "--out", "."]
        subprocess.run(cmd, cwd=work, env=env, capture_output=True, check=True)
    return {f.name: f.read_bytes() for f in sorted(work.iterdir()) if f.name not in inputs}


def cli_diff():
    """Names of the CLI ``multiply``, ``tune`` and ``experiment`` output
    files that differ from the parent commit's, byte for byte."""
    rev = parent_rev()
    with parent_tree(rev) as parent, tempfile.TemporaryDirectory() as here, \
            tempfile.TemporaryDirectory() as there:
        ours, theirs = cli_outputs(ROOT, here), cli_outputs(parent, there)
    return rev, len(ours), sorted(n for n in ours.keys() | theirs.keys() if ours.get(n) != theirs.get(n))


def label_tail(seed, attempted):
    """Prints each failing diff-program op with w < ``TAIL_W`` at ``seed``,
    labelled ``inherited`` when the parent commit fails it with the same
    digest and ``new`` otherwise."""
    failing = [r for r in in_tree(ROOT, "replay_ops", seed, attempted) if not r[2]]
    if not failing:
        print(f"{'':13s} replay: no op with w < {TAIL_W} fails, "
              "so the failure is not the known noise tail")
        return
    rev = parent_rev()
    with parent_tree(rev) as parent:
        there = in_tree(parent, "replay_ops", seed, attempted, [op for op, *_ in failing])
    at_parent = {op: (passed, digest) for op, _, passed, digest in there}
    for op, w, _, digest in failing:
        label = "inherited" if at_parent.get(op) == (False, digest) else "new"
        print(f"{'':13s} replay: op {op} fails at w = {w:.4f}, {label} (parent {rev})")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("seeds", type=int, nargs="+", help="two or more benchmark seeds")
    args = p.parse_args(argv)
    if len(set(args.seeds)) < 2:
        p.error("give two or more distinct seeds")

    faults = []
    for workload in WORKLOADS:
        for seed in args.seeds:
            code, result, _ = bench(workload, seed, RUN_SECONDS)
            failed, attempted = result.get("failed"), result.get("attempted")
            metrics = result.get("metrics", {})
            ops, p50, tail, rss = (metrics.get(k, {}).get("value", float("nan")) for k in
                                   ("ops_per_s", "op_ms_p50", "op_ms_tail", "peak_rss_mb"))
            print(f"{workload:13s} seed {seed:6d}: exit {code}, {failed}/{attempted} ops failed, "
                  f"{ops:.4g} ops/s, p50 {p50:.4g} ms, tail {tail:.4g} ms, peak RSS {rss:.4g} MB")
            if code != 0 or failed != 0:
                faults.append(f"{workload} seed {seed}: exit {code}, {failed} failed ops")
            if workload == "diff-program" and failed:
                label_tail(seed, attempted)
    for (workload, seed), pinned in PINNED.items():
        _, _, prov = bench(workload, seed, CHECKPOINT_SECONDS)
        digest = prov.get("checkpoint", {}).get("sha256")
        if digest is None:
            fault = f"checkpoint not reached in {CHECKPOINT_SECONDS:g} s"
        elif digest != pinned:
            fault = f"checkpoint {digest}, pinned {pinned}"
        else:
            fault = None
        print(f"{workload:13s} seed {seed:6d}: checkpoint {digest} {'FAIL' if fault else 'ok'}")
        if fault:
            faults.append(f"{workload} seed {seed}: {fault}")
    rev = parent_rev()
    with parent_tree(rev) as parent:
        for workload, n_ops in LONG_OPS.items():
            for seed in sorted({seed for _, seed in PINNED}):
                ours = in_tree(ROOT, "replay_long", workload, seed, n_ops)
                same = ours == in_tree(parent, "replay_long", workload, seed, n_ops)
                print(f"{workload:13s} seed {seed:6d}: {n_ops} ops, digest {ours[0][:16]} "
                      f"and stream states {'equal' if same else 'FAIL differ from'} {rev}")
                if not same:
                    faults.append(f"{workload} seed {seed}: {n_ops}-op replay differs from {rev}")
    rev, files, differ = cli_diff()
    print(f"{'cli':13s} {files} output files against {rev}: "
          + (f"FAIL {', '.join(differ)} differ" if differ else "byte-identical"))
    if differ:
        faults.append(f"cli: {', '.join(differ)} differ from {rev}")
    for fault in faults:
        print("FAIL " + fault)
    print("gate " + ("failed" if faults else "passed"))
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
