"""Gate-coupled vector-by-matrix multiplication against the ideal product.

Run: python3 demos/04_vector_multiply.py
"""

import numpy as np

from flashvmm import ArrayState, DEFAULT_CONFIG, WeightMatrix, multiply, tune_array

cfg = DEFAULT_CONFIG
rng = np.random.default_rng(4)

rows, cols = 4, 4  # logical outputs
weights = np.round(10 ** rng.uniform(-1, 0, size=(rows, cols)), 3)

print("=" * 64)
print("Tuning a 4x4 weight matrix (plus peripherals) at 1% precision")
print("=" * 64)
print("weights (row = input, column = output):")
print(weights)

array = ArrayState.fresh(cfg, rows=rows, cols=cols + 2)
targets = WeightMatrix(weights).tune_targets(array, 0.01)
results, summary = tune_array(array, targets, budget=200)
print(f"tuned {summary['converged']}/{summary['targets']} cells, "
      f"max error {summary['rel_error_max']*100:.2f}%")

print("\nnoiseless multiply vs ideal dot product:")
print("  idx   ideal [A]          measured [A]       rel err")
inputs = 10 ** rng.uniform(-8.7, -7.0, size=(5, rows))  # a batch of 5 vectors
for k, (out, ideal) in enumerate(zip(multiply(array, inputs), inputs @ weights)):
    worst = np.max(np.abs(out / ideal - 1.0))
    print(f"  {k:3d}   {ideal[0]:.4e} ...    {out[0]:.4e} ...    {worst*100:.2f}%")

print("\nwith per-cell read noise, averaged over 128 samples:")
inputs = np.full(rows, 5e-8)
noisy = multiply(array, inputs, noisy=True, samples=128)
ideal = weights.T @ inputs
for k, (o, i) in enumerate(zip(noisy, ideal)):
    print(f"  column {k}: measured {o:.4e} A, ideal {i:.4e} A "
          f"({(o/i-1)*100:+.2f}%)")
