"""Physical constants and shared bias points (SI units)."""

# CODATA exact values
K_B = 1.380649e-23  # Boltzmann constant [J/K]
Q_E = 1.602176634e-19  # elementary charge [C]

T_25C = 298.15  # [K]
T_85C = 358.15  # [K]

# Standard readout bias: word line on, coupling gate at readout level,
# drain in saturation, source and erase gate grounded.
V_WL_READ = 2.5  # [V]
V_CG_READ = 2.5  # [V]
V_D_READ = 1.0  # [V]
V_S_READ = 0.0  # [V]
V_EG_READ = 0.0  # [V]

V_MAX_ABS = 12.0  # largest allowed terminal voltage magnitude [V]

TINY = 5e-324  # least positive float: the window [TINY, hi] is (0, hi] over the floats

T_MIN = 250.0  # model validity window [K]
T_MAX = 400.0


def thermal_voltage(temperature: float) -> float:
    """kT/q at the given temperature [V]."""
    return K_B * temperature / Q_E
