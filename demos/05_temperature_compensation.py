"""Differential weights with optimized bias weight suppress output drift.

Run: python3 demos/05_temperature_compensation.py
"""

import numpy as np

from flashvmm import ArrayState, DEFAULT_CONFIG, differential_multiply, plan_differential, tune_array
from flashvmm.constants import T_25C, T_85C
from flashvmm.vmm import optimize_bias_weight, weight_at_temperature

cfg = DEFAULT_CONFIG

print("=" * 64)
print("Single-ended vs differential drift over 25..85 C (analytic)")
print("=" * 64)
temps = np.arange(T_25C, T_85C + 0.5, 1.0)
print("   w     single-ended   optimized w_b   differential")
for w in (0.1, 0.3, 0.5, 0.7, 0.9):
    single = max(abs(weight_at_temperature(w, T_25C, t) / w - 1.0) for t in temps)
    w_b, drift = optimize_bias_weight(w, (T_25C, T_85C))
    print(f"  {w:4.1f}   {single*100:10.2f}%   {w_b:12.4f}   {drift*100:9.3f}%")

print("\nEnd to end with tuning and read noise: w = 0.5, 100 nA input")
array = ArrayState.fresh(cfg, rows=1, cols=4)
plan = plan_differential(np.array([[0.5]]), (T_25C, T_85C), array)
results, summary = tune_array(array, plan.tune_targets(array, 0.01), budget=200)
print(f"  tuned {summary['converged']}/{summary['targets']} cells "
      f"(w+ = {plan.w_plus[0,0]:.4f}, w- = {plan.w_minus[0,0]:.4f})")

print("   T [C]   output [A]     change vs 25 C")
sweep = np.arange(T_25C, T_85C + 0.1, 10.0)  # one read of the input at each temperature
outs = differential_multiply(array, plan, [100e-9], temperature=sweep, noisy=True, samples=128)[:, 0]
for t, out in zip(sweep, outs):
    print(f"  {t-273.15:6.1f}   {out:.4e}    {(out/outs[0]-1)*100:+6.2f}%")
print("\nThe same weight held single-ended would drift by more than 12%.")
