"""Tests of the benchmark's own code: ``python3 -m pytest bench -q``."""

from dataclasses import replace

import numpy as np
import pytest

import flashvmm as fv
from run import PROBES, RefClock, run_loop, tail_percentile
from tracing import Tracer, self_times
from workloads import DiffProgram, MvmNoisy, TuneRamp, check_mvm


# ------------------------------------------------------------ tail rule

@pytest.mark.parametrize(
    "n, p",
    [(1, 50.0), (19, 50.0), (99, 50.0), (100, 90.0), (199, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9), (10**6, 99.9)],
)
def test_tail_percentile_rule(n, p):
    assert tail_percentile(n) == p
    if p > 50.0:
        assert n * (100.0 - p) / 100.0 >= 10 - 1e-9


# ---------------------------------------------------------- host speed

def test_ref_clock_scales_by_the_probes_either_side(monkeypatch):
    probe_times = iter([4e-3, 2e-3, 4.4e-3])
    monkeypatch.setattr(RefClock, "time_probe", lambda self: next(probe_times))
    clock = RefClock("scalar")
    ref = PROBES["scalar"][1]
    assert clock.convert([1.0, 2.0]) == pytest.approx([ref / 3e-3, 2.0 * ref / 3e-3])
    assert clock.convert([1.0]) == pytest.approx([ref / 3.2e-3])
    assert clock.factors == pytest.approx([ref / 3e-3, ref / 3.2e-3])


@pytest.mark.parametrize("kind", sorted(PROBES))
def test_probes_return_finite_sums(kind):
    assert np.isfinite(PROBES[kind][0]())


# ----------------------------------------------------------- self time

def test_self_time_on_nested_spans():
    # root [0, 100] > a [10, 40] > b [15, 25]; root > c [50, 70] with 5 ns of leaves
    starts, ends = [0, 10, 15, 50], [100, 40, 25, 70]
    parents, leaves = [-1, 0, 1, 0], [0, 0, 0, 5]
    assert self_times(starts, ends, parents, leaves) == [50, 20, 10, 15]
    assert self_times(starts, ends, parents) == [50, 20, 10, 20]


def test_tracer_nests_spans_and_charges_leaves():
    class Layer:
        def outer(self, k):
            return sum(self.inner() for _ in range(k))

        def inner(self):
            return leaf()

    def leaf():
        return 1

    tracer = Tracer()
    layer = Layer()
    tracer.patch(Layer, "outer", tracer.span(Layer.outer, "outer", lambda a, kw, r: r))
    tracer.patch(Layer, "inner", tracer.span(Layer.inner, "inner"))
    leaf = tracer.leaf(leaf, "leaf")
    assert layer.outer(2) == 2  # outside an op: nothing recorded
    assert tracer.names == []
    tracer.begin_op(7)
    assert layer.outer(3) == 3
    tracer.end_op()
    tracer.uninstall()

    assert tracer.names == ["outer", "inner", "inner", "inner"]
    assert tracer.parents == [-1, 0, 0, 0]
    assert tracer.ops == [7, 7, 7, 7]
    assert tracer.sizes[0] == 3
    assert tracer.leaves["leaf"][0] == 3
    own = tracer.self_ns()
    root = tracer.ends[0] - tracer.starts[0]
    assert sum(own) + tracer.leaves["leaf"][1] == root
    assert all(x >= 0 for x in own)
    assert Layer.outer.__name__ == "outer"  # originals restored


def test_traced_replay_is_bit_identical():
    plain = run_loop(MvmNoisy(fv, 3), n_ops=3)
    tracer = Tracer()
    tracer.install(fv)
    try:
        traced = run_loop(MvmNoisy(fv, 3), n_ops=3, tracer=tracer)
    finally:
        tracer.uninstall()
    assert traced["digest"] == plain["digest"]
    assert tracer.names.count("vmm.multiply") == 3  # checks are not traced
    assert fv.vmm.multiply.__module__ == "flashvmm.vmm"


# ------------------------------------------------------------- checkers

def test_tune_check_rejects_perturbed_results():
    wl = TuneRamp(fv, 2)
    target = wl.next_input(0)
    result = wl.op(target)
    assert wl.check(target, result)
    bad = (
        replace(result, converged=False),
        replace(result, relative_error=1.2 * target.precision),
        replace(result, final_current=result.target_current * 1.06),
    )
    for r in bad:
        assert not wl.check(target, r)
    wl.array.v_th[target.row, target.col] += 0.05  # cell no longer at its target
    assert not wl.check(target, result)


def test_mvm_check_rejects_perturbed_outputs():
    wl = MvmNoisy(fv, 4)
    x = wl.next_input(0)
    noisy = wl.op(x)
    assert wl.check(x, noisy)
    for k, factor in ((0, 1.03), (17, 0.97)):
        bad = noisy.copy()
        bad[k] *= factor
        assert not wl.check(x, bad)
    bad = noisy.copy()
    bad[3] = np.nan
    assert not wl.check(x, bad)
    clean = fv.vmm.multiply(wl.array, x)
    dense = wl.dense.T @ x
    assert check_mvm(clean, dense, noisy)
    assert not check_mvm(clean * (1.0 + 1e-8), dense, noisy)


def test_diff_check_rejects_perturbed_outputs():
    wl = DiffProgram(fv, 5)
    inp = wl.next_input(0)
    out = wl.op(inp)
    assert wl.check(inp, out)
    drifted = out.outputs.copy()
    drifted[-1] = drifted[0] * 1.03
    assert not wl.check(inp, replace(out, outputs=drifted))
    unconverged = [replace(out.results[0], converged=False)] + out.results[1:]
    assert not wl.check(inp, replace(out, results=unconverged))
    plan = out.plan
    loose = replace(plan, predicted_drift=np.full_like(plan.predicted_drift, 0.011))
    assert not wl.check(inp, replace(out, plan=loose))
