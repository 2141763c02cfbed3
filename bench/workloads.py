"""The three benchmark workloads and their per-op correctness checks.

Each workload is built from a seed and the imported ``flashvmm`` package
and then driven one op at a time by ``run.py``:

- ``next_input(i)`` makes op ``i``'s input (untimed);
- ``op(inp)`` is the timed call into the simulator;
- ``check(inp, out)`` verifies the output (untimed), updates the counters
  and the digest, and returns True when the op is correct.

Workloads call the simulator through module attributes
(``fv.tuning.tune_cell``, ``fv.vmm.multiply``) so that the tracer's
wrappers in ``tracing.py`` see every call. Checks never touch the
measurement stream, so the simulated results do not depend on them.
"""

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np


# ------------------------------------------------------------- checkers

def check_tuned(result, true_current, precision, verify_sigma):
    """A tuned cell converged within its precision.

    ``result`` is the ``TuneResult``; ``true_current`` the cell's
    noiseless standard-bias current afterwards. The tuner decides on a
    128-sample read, so the noiseless current may sit up to a few of that
    read's sigmas (``verify_sigma``, relative) outside the precision.
    """
    goal = result.target_current
    return bool(
        result.converged
        and result.relative_error <= precision
        and abs(result.final_current / goal - 1.0) <= precision
        and abs(true_current / goal - 1.0) <= precision + 5.0 * verify_sigma
    )


def check_mvm(clean, dense, noisy, noise_tol=0.02, rtol=1e-9):
    """Noiseless outputs equal the dense oracle; noisy ones stay close.

    ``clean`` is the noiseless ``multiply``, ``dense`` is ``W.T @ x`` from
    ``weight_of`` (acceptance criterion 8), ``noisy`` the timed op's output
    (within 2% of noiseless per column, as in fig10).
    """
    clean = np.asarray(clean)
    return bool(
        np.all(np.isfinite(noisy))
        and np.all(np.abs(clean - dense) <= rtol * np.abs(dense))
        and np.all(np.abs(noisy / clean - 1.0) <= noise_tol)
    )


def measured_drift(outputs):
    """Worst relative change of a temperature sweep against its first point."""
    outputs = np.asarray(outputs)
    return float(np.max(np.abs(outputs / outputs[0] - 1.0)))


def check_diff(converged, outputs, predicted_drift, drift_tol=0.027, predicted_tol=0.01):
    """Differential flow of acceptance criterion 7 for one weight.

    All tuned cells converged, the noisy sweep drifts by at most 2.7% and
    the analytic optimum predicts under 1%.
    """
    return bool(
        all(converged)
        and np.all(np.isfinite(outputs))
        and measured_drift(outputs) <= drift_tol
        and predicted_drift < predicted_tol
    )


# ------------------------------------------------------------ workloads

class TuneRamp:
    """Write-verify tuning on a 32x34 array, one cell per op.

    Targets step through the 100 pA .. 1 uA ramp by a stride near the
    golden ratio of the cell count, from a seeded start, so every prefix
    of the run samples the whole ramp (0 to about 20 pulses a cell). Once
    every cell is tuned, the next op starts a fresh array.
    """

    name = "tune-ramp"
    probe = "scalar"  # host-speed probe of the same kind of work (run.py)
    rows, cols = 32, 34
    precision = 0.05
    budget = 100
    checkpoint = 16  # ops before the comparable digest is taken

    def __init__(self, fv, seed):
        self.fv = fv
        self.seed = int(seed)
        self.pulses = 0
        self.retired = hashlib.sha256()
        self.retired_draws = 0
        self._fresh_array(0)
        self.stride = self._stride(len(self.targets))
        self.start = int(np.random.default_rng((self.seed, 1)).integers(len(self.targets)))

    @staticmethod
    def _stride(n):
        s = int(round(n * (math.sqrt(5.0) - 1.0) / 2.0))
        while math.gcd(s, n) != 1:
            s += 1
        return s

    def _fresh_array(self, campaign):
        fv = self.fv
        cfg = replace(fv.DEFAULT_CONFIG, seed=self.seed + 1_000_003 * campaign)
        self.array = fv.array.ArrayState.fresh(cfg, rows=self.rows, cols=self.cols)
        self.targets = fv.tuning.ramp_targets(self.array, 1.0e-10, 1.0e-6, self.precision)

    @property
    def draws(self):
        return self.retired_draws + int(self.array.rng_counts.sum())

    def next_input(self, i):
        n = len(self.targets)
        if i and i % n == 0:
            self.retired.update(self._state_digest().encode())
            self.retired_draws += int(self.array.rng_counts.sum())
            self._fresh_array(i // n)
        return self.targets[(self.start + (i % n) * self.stride) % n]

    def op(self, target):
        return self.fv.tuning.tune_cell(self.array, target, self.budget)

    def check(self, target, result):
        fv = self.fv
        cfg = self.array.cfg
        self.pulses += result.pulses_total
        true = fv.cell.standard_current(float(self.array.v_th[target.row, target.col]), cfg)
        sigma = cfg.noise.sigma_at(target.target_current) / math.sqrt(fv.tuning.VERIFY_SAMPLES)
        return check_tuned(result, true, target.precision, sigma)

    def _state_digest(self):
        a = self.array
        h = hashlib.sha256()
        for block in (a.v_th, a.rng_counts, a.disturb.cumulative_dvth):
            h.update(np.ascontiguousarray(block).tobytes())
        for role in sorted(a.disturb.counts):
            h.update(np.ascontiguousarray(a.disturb.counts[role]).tobytes())
        return h.hexdigest()

    def digest(self):
        """v_th, draw counters and disturb log of every array tuned so far."""
        h = self.retired.copy()
        h.update(self._state_digest().encode())
        return h.hexdigest()


class MvmNoisy:
    """Noisy 128-sample multiply on a 64x66 array, one input vector per op.

    Setup places seeded weights in [0.02, 1] with ``set_cell_current``, so
    no tuning runs in the timed loop; inputs are seeded log-uniform
    vectors of 1 to 100 nA.
    """

    name = "mvm-noisy"
    probe = "bulk"  # host-speed probe of the same kind of work (run.py)
    rows, cols = 64, 66
    samples = 128
    checkpoint = 256

    def __init__(self, fv, seed):
        self.fv = fv
        self.seed = int(seed)
        self.pulses = 0
        self.draws = 0
        self.outputs = hashlib.sha256()
        cfg = replace(fv.DEFAULT_CONFIG, seed=self.seed)
        array = fv.array.ArrayState.fresh(cfg, rows=self.rows, cols=self.cols)
        weights = np.random.default_rng((self.seed, 1)).uniform(
            0.02, 1.0, size=(self.rows, len(array.array_cols))
        )
        i_ref = fv.vmm.reference_current(cfg)
        dense = np.empty_like(weights)
        for r in range(self.rows):
            pc = array.peripheral_col_for_row(r)
            array.set_cell_current(r, pc, i_ref)
            peripheral = array.cell_at(r, pc)
            for k, c in enumerate(array.array_cols):
                array.set_cell_current(r, c, i_ref * weights[r, k])
                dense[r, k] = fv.vmm.weight_of(
                    array.cell_at(r, c), peripheral, cfg.temperature_ref
                )
        self.array = array
        self.dense = dense
        self.inputs = np.random.default_rng((self.seed, 2))

    def next_input(self, i):
        return 10.0 ** self.inputs.uniform(-9.0, -7.0, size=self.rows)

    def op(self, x):
        return self.fv.vmm.multiply(self.array, x, noisy=True, samples=self.samples)

    def check(self, x, noisy):
        self.outputs.update(np.ascontiguousarray(noisy).tobytes())
        clean = self.fv.vmm.multiply(self.array, x)
        return check_mvm(clean, self.dense.T @ x, noisy)

    def digest(self):
        """Every noisy output vector so far, in op order."""
        return self.outputs.hexdigest()


@dataclass
class DiffOutput:
    array: object
    plan: object
    results: list
    outputs: np.ndarray


class DiffProgram:
    """Temperature-compensated differential weight, one weight per op.

    Each op plans w over 25-85 C on a fresh 1x4 array, tunes its three
    cells to 1% within 200 pulses and reads the noisy 128-sample output
    for a 100 nA input at the 25 temperatures of fig11. The weight is
    seeded in [0.1, 0.9], the range fig11 and criterion 7 cover.
    """

    name = "diff-program"
    probe = "scalar"  # host-speed probe of the same kind of work (run.py)
    input_current = 100e-9
    checkpoint = 128

    def __init__(self, fv, seed):
        self.fv = fv
        self.seed = int(seed)
        self.pulses = 0
        self.draws = 0
        self.outputs = hashlib.sha256()
        self.inputs = np.random.default_rng((self.seed, 3))
        c = fv.constants
        self.temp_range = (c.T_25C, c.T_85C)
        self.temps = tuple(float(t) for t in np.arange(c.T_25C, c.T_85C + 1e-9, 2.5))

    def next_input(self, i):
        w = float(self.inputs.uniform(0.1, 0.9))
        cell_seed = int(self.inputs.integers(2**31))
        return w, replace(self.fv.DEFAULT_CONFIG, seed=cell_seed)

    def op(self, inp):
        fv = self.fv
        w, cfg = inp
        array = fv.array.ArrayState.fresh(cfg, rows=1, cols=4)
        plan = fv.vmm.plan_differential(np.array([[w]]), self.temp_range, array)
        results, _ = fv.tuning.tune_array(array, plan.tune_targets(array, 0.01), 200)
        outputs = np.array([
            fv.vmm.differential_multiply(
                array, plan, [self.input_current], temperature=t, noisy=True, samples=128
            )[0]
            for t in self.temps
        ])
        return DiffOutput(array, plan, results, outputs)

    def check(self, inp, out):
        self.pulses += sum(r.pulses_total for r in out.results)
        self.draws += int(out.array.rng_counts.sum())
        for block in (out.plan.w_b, out.plan.predicted_drift, out.array.v_th, out.outputs):
            self.outputs.update(np.ascontiguousarray(block).tobytes())
        return check_diff(
            [r.converged for r in out.results],
            out.outputs,
            float(out.plan.predicted_drift[0, 0]),
        )

    def digest(self):
        """Plan, tuned thresholds and sweep outputs of every op so far."""
        return self.outputs.hexdigest()


WORKLOADS = {w.name: w for w in (TuneRamp, MvmNoisy, DiffProgram)}
