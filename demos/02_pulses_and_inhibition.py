"""Program/erase pulses and half-select inhibition at array scale.

Run: python3 demos/02_pulses_and_inhibition.py
"""

from flashvmm import ArrayState, DEFAULT_CONFIG, PulseSpec
from flashvmm.cell import BiasCondition, apply_pulse, fresh_cell, standard_current
from flashvmm.cell import program_select_factor

cfg = DEFAULT_CONFIG

print("=" * 64)
print("Pulse staircase on a full-selected cell")
print("=" * 64)
cell = fresh_cell(cfg, seed=7, v_th=cfg.calibration.v_th_min)  # fully erased
bias = BiasCondition(v_wl=1.0, v_cg=0.0, v_d=0.5, v_s=4.5, v_eg=4.5)
print("  pulse   v_th [V]   I @ standard bias [A]")
for k in range(8):
    print(f"  {k:5d}   {cell.v_th:.4f}    {standard_current(cell.v_th, cfg):.3e}")
    cell = apply_pulse(cell, PulseSpec.program(cfg), bias, cfg)

print("\nRaising the bit line inhibits programming in a half-selected cell:")
print("  v_bl [V]   select factor")
for v_d in (0.5, 1.0, 1.375, 1.75, 2.25, 2.5):
    sf = program_select_factor(
        BiasCondition(1.0, 0.0, v_d, 4.5, 0.0), cfg.inhibition
    )
    print(f"  {v_d:7.3f}   {sf:.3e}")

print("\nArray-scale disturb accounting: 60 program pulses into one cell")
array = ArrayState.fresh(cfg, rows=4, cols=6, initial="center")
start = {(r, c): array.read_cell(r, c) for r in range(4) for c in range(6)}
for _ in range(60):
    array.pulse_cell(2, 3, PulseSpec.program(cfg))
print("  role            pulses   worst |dI/I|")
for role in ("row_half", "col_half", "unselected"):
    worst = 0.0
    for (r, c), i0 in start.items():
        if array.disturb.counts[role][r, c]:  # every pulse hit (r, c) in this role
            worst = max(worst, abs(array.read_cell(r, c) / i0 - 1.0))
    count = int(array.disturb.counts[role].max())
    print(f"  {role:<14}  {count:5d}    {worst:.2e}")
target_change = array.read_cell(2, 3) / start[(2, 3)]
print(f"  target cell current scaled by {target_change:.2e} (intended)")
