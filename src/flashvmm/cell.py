"""Compact behavioral model of a single modified floating-gate cell.

The cell is a value object (threshold voltage, stochastic stream seed and
draw count); the slope factor, prefactor and noise envelope are the
config's. Readout follows the subthreshold exponential law; program/erase
pulses shift the threshold voltage with a bias-dependent select factor and
a seeded lognormal per-pulse variability. All operations are pure: they
return currents or new ``CellState`` values.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .config import (
    DEFAULT_CONFIG,
    InhibitionParams,
    ModelConfig,
    require_count,
    require_positive,
)
from .constants import (
    K_B,
    Q_E,
    T_MAX,
    T_MIN,
    V_CG_READ,
    V_D_READ,
    V_EG_READ,
    V_MAX_ABS,
    V_S_READ,
    V_WL_READ,
    thermal_voltage,
)

# below this select factor a pulse is treated as deterministic residue:
# the shift is orders of magnitude under the noise floor, so no
# variability draw is consumed (keeps doubly-unselected pulses cheap)
SF_DRAW_MIN = 1.0e-6

_READ_STREAM_TAG = 0x5EAD


class PulseKind(Enum):
    PROGRAM = "program"
    ERASE = "erase"


@dataclass(frozen=True)
class BiasCondition:
    """The five terminal voltages applied to a cell [V]."""

    v_wl: float
    v_cg: float
    v_d: float
    v_s: float
    v_eg: float

    def __post_init__(self):
        for name in ("v_wl", "v_cg", "v_d", "v_s", "v_eg"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
            if abs(v) > V_MAX_ABS:
                raise ValueError(f"|{name}| = {abs(v):.3f} V exceeds {V_MAX_ABS} V")


READOUT_BIAS = BiasCondition(V_WL_READ, V_CG_READ, V_D_READ, V_S_READ, V_EG_READ)


@dataclass(frozen=True)
class PulseSpec:
    kind: PulseKind
    amplitude: float  # [V]
    duration: float  # [s]

    def __post_init__(self):
        for name in ("amplitude", "duration"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"pulse {name} must be finite")
        if self.duration < 0:
            raise ValueError("pulse duration must be >= 0")
        if not (0 < self.amplitude <= V_MAX_ABS):
            raise ValueError("pulse amplitude must be in (0, 12] V")

    @classmethod
    def program(cls, cfg: ModelConfig = DEFAULT_CONFIG, duration: float = None):
        d = cfg.pulse.program_duration if duration is None else duration
        return cls(PulseKind.PROGRAM, cfg.pulse.program_amplitude, d)

    @classmethod
    def erase(cls, cfg: ModelConfig = DEFAULT_CONFIG, duration: float = None):
        d = cfg.pulse.erase_duration if duration is None else duration
        return cls(PulseKind.ERASE, cfg.pulse.erase_amplitude, d)


@dataclass(frozen=True)
class CellState:
    """Analog state of one floating-gate transistor."""

    v_th: float  # threshold voltage [V]
    rng_seed: int  # per-cell stochastic stream seed
    rng_count: int = 0  # stochastic draws consumed so far

    def __post_init__(self):
        if not math.isfinite(self.v_th):
            raise ValueError("v_th must be finite")


def check_n_slope(n_slope: float) -> None:
    if not (5.0 <= n_slope <= 5.1):
        raise ValueError("n_slope must lie in [5.0, 5.1]")


def fresh_cell(
    cfg: ModelConfig = DEFAULT_CONFIG, seed: int = 0, v_th: float = None
) -> CellState:
    """New cell at the given threshold (default: fully programmed)."""
    cal = cfg.require_calibration()
    check_n_slope(cfg.n)
    if v_th is None:
        v_th = cal.v_th_max
    v_th = min(max(v_th, cal.v_th_min), cal.v_th_max)
    return CellState(v_th=v_th, rng_seed=int(seed))


# ------------------------------------------------------------- readout

def subthreshold_current(v_cg, v_th, n_slope, i0, temperature, i_sat):
    """Subthreshold drain current, clamped at the saturation ceiling [A].

    Takes floats or broadcasts over numpy arrays; the gate overdrive
    enters as exp(q (v_cg - v_th) / (n kB T)).
    """
    x = Q_E * (v_cg - v_th) / (n_slope * K_B * temperature)
    if isinstance(x, float):
        return min(i0 * float(np.exp(x)), i_sat)
    return np.minimum(i0 * np.exp(x), i_sat)


def gate_voltage(current, v_th, n_slope, i0, temperature):
    """Coupling-gate voltage carrying ``current`` [V]; ``subthreshold_current`` inverted."""
    return v_th + n_slope * thermal_voltage(temperature) * np.log(current / i0)


def check_temperature(temperature: float) -> None:
    if not (T_MIN <= temperature <= T_MAX):
        raise ValueError(
            f"temperature {temperature} K outside the model window "
            f"[{T_MIN}, {T_MAX}] K"
        )


def readout(v_th, bias, temperature, cfg, samples=1, rng=None):
    """Readout current [A] of a cell at ``v_th``: the one scalar readout law.

    Without ``rng`` the deterministic subthreshold current, zero when the
    word line is off. With it, the mean of ``samples`` draws from ``rng``,
    each the deterministic current times (1 + eps), eps zero-mean Gaussian
    at the relative sigma of the config's noise envelope.
    """
    if rng is not None:
        require_count("samples", samples)
    check_temperature(temperature)
    if bias.v_wl < cfg.wl_on_threshold:
        return 0.0
    ideal = float(subthreshold_current(bias.v_cg, v_th, cfg.n, cfg.i0, temperature, cfg.i_sat))
    if rng is None or ideal == 0.0:
        return ideal
    sigma = cfg.noise.sigma_at(ideal)
    if sigma == 0.0:
        return ideal
    mean = ideal * ((1.0 + sigma * rng.standard_normal(samples)).sum() / samples)  # as .mean()
    return max(mean, 1.0e-6 * ideal)


def drain_current(
    cell: CellState,
    bias: BiasCondition,
    temperature: float,
    cfg: ModelConfig = DEFAULT_CONFIG,
) -> float:
    """Deterministic readout current [A]; zero when the word line is off."""
    return readout(cell.v_th, bias, temperature, cfg)


def readout_noisy(
    cell: CellState,
    bias: BiasCondition,
    temperature: float,
    samples: int,
    rng: np.random.Generator = None,
    cfg: ModelConfig = DEFAULT_CONFIG,
) -> float:
    """Mean of ``samples`` noisy current draws [A] (see ``readout``).

    Without an explicit generator the draws come from a stream derived
    from the cell's seed and draw counter, so repeated calls on an
    unchanged cell repeat; pass a live generator for evolving
    measurements.
    """
    if rng is None:
        rng = np.random.default_rng((cell.rng_seed, _READ_STREAM_TAG, cell.rng_count))
    return readout(cell.v_th, bias, temperature, cfg, samples, rng)


# ------------------------------------------------------------- pulses

def _logistic_select(v: float, v_full: float, v_inh: float, floor: float) -> float:
    """Normalized logistic pinned to 1 at ``v_full`` and ``floor`` at ``v_inh``."""
    span = math.log(1.0 / floor)
    s = (v_inh - v_full) / (2.0 * span)
    vm = v_full + s * span
    t = (v - vm) / s
    if t > 700.0:
        return 0.0
    return min((1.0 + floor) / (1.0 + math.exp(t)), 1.0)


def program_select_factor(bias: BiasCondition, inh: InhibitionParams) -> float:
    """Hot-electron injection efficiency under the given bias, in [0, 1].

    Injection needs a raised source line and a low bit line; raising the
    drain inhibits a half-selected cell.
    """
    f_bl = _logistic_select(bias.v_d, inh.program_bl_full, inh.program_bl_inhibit, inh.floor)
    f_sl = _logistic_select(bias.v_s, inh.program_sl_full, inh.program_sl_off, inh.floor)
    return f_bl * f_sl


def erase_select_factor(bias: BiasCondition, inh: InhibitionParams) -> float:
    """Tunneling-erase efficiency under the given bias, in [0, 1].

    Erase needs the high erase-gate voltage; a positive coupling-gate
    bias inhibits it in half-selected cells.
    """
    f_eg = _logistic_select(bias.v_eg, inh.erase_eg_full, inh.erase_eg_off, inh.floor)
    f_cg = _logistic_select(bias.v_cg, inh.erase_cg_full, inh.erase_cg_inhibit, inh.floor)
    return f_eg * f_cg


def select_factor(kind: PulseKind, bias: BiasCondition, inh: InhibitionParams) -> float:
    """Select factor of a pulse of ``kind`` under ``bias``, in [0, 1]."""
    if kind is PulseKind.PROGRAM:
        return program_select_factor(bias, inh)
    return erase_select_factor(bias, inh)


def pulse_law(pulse: PulseSpec, cfg: ModelConfig):
    """Per-kind constants of the pulse response: (step, sign, limit).

    ``step`` is the shift [V] of this pulse at select factor 1: the
    nominal per-pulse shift scaled linearly by duration and amplitude
    relative to the configured nominals. Program pulses raise v_th up to
    the window top, erase pulses lower it down to the window bottom.
    """
    cal = cfg.require_calibration()
    p = cfg.pulse
    if pulse.kind is PulseKind.PROGRAM:
        scale = (pulse.duration / p.program_duration) * (
            pulse.amplitude / p.program_amplitude
        )
        return cal.dv_program_nominal * scale, 1.0, cal.v_th_max
    scale = (pulse.duration / p.erase_duration) * (pulse.amplitude / p.erase_amplitude)
    return cal.dv_erase_nominal * scale, -1.0, cal.v_th_min


# -------------------------------------------------- variability stream

# NumPy's SeedSequence hash (pool size 4), PCG64 seeding and first output,
# and its normal ziggurat's fast path, restated over arrays so
# ``stream_normals`` can draw many (seed, count) normals at once
_XSHIFT = np.uint32(16)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_M32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """(xor, multiply) constants of ``n`` successive hash steps, shape (2, n, 1).

    A hash step XORs its value with the running constant, advances the
    constant by ``mult`` and multiplies by the advanced one.
    """
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array([consts[:-1], consts[1:]], dtype=np.uint32)[:, :, None]


def _mix_rounds(steps: np.ndarray) -> list:
    """Per source word, the (2, 4, 1) constants hashing it for each pool word.

    mix_entropy mixes source word ``src`` into the other three, one hash
    step each in order; the source's own row is a placeholder whose
    result is discarded.
    """
    rounds = []
    for src in range(4):
        consts = np.zeros((2, 4, 1), dtype=np.uint32)
        consts[:, [d for d in range(4) if d != src]] = steps[:, 3 * src : 3 * src + 3]
        rounds.append(consts)
    return rounds


def _limb_rows(const: int) -> np.ndarray:
    """(4, 4) uint64: row i, column k holds 32-bit limb k - i of ``const``
    (0 if k < i), so row 0 is its limbs, least significant first.

    Limb i of x times row i puts each partial product x_i * c_j in column
    i + j, the limb of x * const it adds to (mod 2**128).
    """
    c = [const >> (32 * j) & 0xFFFFFFFF for j in range(4)]
    return np.array([[c[k - i] if k >= i else 0 for k in range(4)] for i in range(4)], np.uint64)


# mix_entropy: 4 hashes of the entropy words, then 12 in the mixing rounds
_ENTROPY_STEPS = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_ENTROPY_HASH = _ENTROPY_STEPS[:, :4]
_MIX_HASH = _mix_rounds(_ENTROPY_STEPS[:, 4:])
# generate_state(4, uint64): 8 hashed 32-bit words, cycling over the pool
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
# pcg64_set_seed(init, seq) leaves state (inc + init) * M + inc with
# inc = 2 * seq + 1, so the first output's state is
# init * M**2 + seq * 2 * (M**2 + M + 1) + (M**2 + M + 1): limb rows for
# init, then for seq, and the constant term
_M2 = _PCG_MULT * _PCG_MULT & _MASK128
_M2_M_1 = (_M2 + _PCG_MULT + 1) & _MASK128
_FIRST_STATE = np.concatenate([_limb_rows(_M2), _limb_rows(2 * _M2_M_1 & _MASK128)])[:, :, None]
_FIRST_STATE_ADD = _limb_rows(_M2_M_1)[0, :, None]

_STREAM_BITGEN = np.random.PCG64(0)
_STREAM_GEN = np.random.Generator(_STREAM_BITGEN)
_ZIGGURAT = None  # (ki, wi), probed on first use


def _hashed(values, consts):
    """One SeedSequence hash step per row of ``consts``: xor, multiply, xorshift."""
    out = values ^ consts[0]  # uint32 array arithmetic wraps silently
    out *= consts[1]
    out ^= out >> _XSHIFT
    return out


def _ziggurat() -> tuple:
    """(ki, wi) of NumPy's normal ziggurat, probed through the public API.

    A PCG64 with increment 1 at state (r - 1) * M**-1 mod 2**128 outputs
    ``r`` first, so each probe feeds the ziggurat a chosen word: idx in the
    low byte, the sign in bit 8, rabs from bit 9. Its fast path alone
    leaves the state one step on; it accepts iff rabs < ki[idx] and
    returns rabs * wi[idx]. wi stays 0 where ki <= 1: an accepted rabs is
    then 0.
    """
    global _ZIGGURAT
    if _ZIGGURAT is None:
        bitgen = np.random.PCG64(0)
        gen = np.random.Generator(bitgen)
        inv = pow(_PCG_MULT, -1, 1 << 128)
        state = {"bit_generator": "PCG64", "state": {"inc": 1}, "has_uint32": 0, "uinteger": 0}

        def fast(idx, rabs):
            r = rabs << 9 | idx
            state["state"]["state"] = (r - 1) * inv & _MASK128
            bitgen.state = state
            x = gen.standard_normal()
            return bitgen.state["state"]["state"] == r, x

        ki, wi = np.zeros(256, dtype=np.uint64), np.zeros(256)
        for idx in range(256):
            lo, hi = 0, 1 << 52  # least rabs the fast path rejects
            while lo < hi:
                mid = (lo + hi) // 2
                lo, hi = (mid + 1, hi) if fast(idx, mid)[0] else (lo, mid)
            ki[idx] = lo
            if lo > 1:
                wi[idx] = fast(idx, 1)[1]
        _ZIGGURAT = ki, wi
    return _ZIGGURAT


def _ziggurat_fast(r: np.ndarray) -> tuple:
    """NumPy's normal ziggurat fast path on first outputs ``r`` (uint64):
    the normals, and the indices of the outputs it rejects."""
    ki, wi = _ziggurat()
    idx = (r & np.uint64(0xFF)).astype(np.intp)
    rabs = r >> np.uint64(9) & np.uint64(2**52 - 1)
    out = rabs.astype(np.float64) * wi[idx]
    np.negative(out, out=out, where=(r & np.uint64(0x100)).astype(bool))
    return out, np.flatnonzero(rabs >= ki[idx])


def stream_normals(seeds, counts) -> np.ndarray:
    """``default_rng((seed, count)).standard_normal()`` for each pair, bit for bit.

    ``seeds`` and ``counts`` are equal-length integer arrays in [0, 2**64).
    The SeedSequence hash, the PCG64 seeding and first output and the
    ziggurat's fast path run over all pairs at once. The few pairs the fast
    path rejects are drawn by NumPy's own ziggurat from one shared PCG64
    set to the pair's state (held under the generator's lock).
    """
    seeds = np.asarray(seeds).ravel()
    counts = np.asarray(counts).ravel()
    if seeds.shape != counts.shape:
        raise ValueError("seeds and counts must have the same length")
    if seeds.size == 0:
        return np.empty(0)
    if seeds.dtype.kind not in "iu" or counts.dtype.kind not in "iu":
        raise ValueError("seeds and counts must be integer arrays")
    if seeds.min() < 0 or counts.min() < 0:
        raise ValueError("seeds and counts must be >= 0")
    seeds = seeds.astype(np.uint64)
    counts = counts.astype(np.uint64)

    # entropy: the 32-bit words of the seed, then of the count, least
    # significant first (a value below 2**32 is one word), zero-padded to 4
    s_hi = (seeds >> 32).astype(np.uint32)
    c_lo, c_hi = counts.astype(np.uint32), (counts >> 32).astype(np.uint32)
    two = s_hi != 0
    entropy = np.stack(
        [seeds.astype(np.uint32), np.where(two, s_hi, c_lo), np.where(two, c_lo, c_hi), c_hi * two]
    )

    # mix_entropy; the source word is fixed while it is mixed into the other three
    pool = _hashed(entropy, _ENTROPY_HASH)
    for src, consts in enumerate(_MIX_HASH):
        mixed = _MIX_MULT_L * pool
        mixed -= _MIX_MULT_R * _hashed(pool[src], consts)
        mixed ^= mixed >> _XSHIFT
        mixed[src] = pool[src]
        pool = mixed
    # generate_state(4, uint64): 64-bit word k is 32-bit words 2k (low), 2k + 1
    words = _hashed(np.concatenate([pool, pool]), _STATE_HASH).astype(np.uint64)
    w = words[0::2] | (words[1::2] << _S32)

    # first output: init = w0:w1 and seq = w2:w3 in 32-bit limbs, low
    # first; the partial products are summed per limb before the carries
    halves = w[[1, 0, 3, 2]]
    x = np.stack([halves & _M32, halves >> _S32], axis=1).reshape(8, -1)
    prod = x[:, None] * _FIRST_STATE
    limb = (prod & _M32).sum(axis=0) + _FIRST_STATE_ADD
    limb[1:] += (prod[:, :-1] >> _S32).sum(axis=0)
    for k in range(3):
        limb[k + 1] += limb[k] >> _S32
    hi = limb[3] << _S32 | limb[2] & _M32
    xsl = hi ^ (limb[1] << _S32 | limb[0] & _M32)
    rot = hi >> np.uint64(58)
    r = xsl >> rot | xsl << (np.uint64(64) - rot & np.uint64(63))

    out, rejected = _ziggurat_fast(r)
    if rejected.size:
        state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
        pcg = state["state"]
        with _STREAM_BITGEN.lock:
            for k, (w0, w1, w2, w3) in zip(rejected.tolist(), w[:, rejected].T.tolist()):
                # pcg64_set_seed: initstate w0:w1, increment (w2:w3 << 1) | 1,
                # then two LCG steps from state 0
                inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
                pcg["state"] = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
                pcg["inc"] = inc
                _STREAM_BITGEN.state = state
                out[k] = _STREAM_GEN.standard_normal()
    return out


def pulse_shift(
    v_th: float,
    rng_seed: int,
    rng_count: int,
    pulse: PulseSpec,
    bias: BiasCondition,
    cfg: ModelConfig,
):
    """Core pulse response shared by cell- and array-level operations.

    Returns (new v_th, new draw counter, applied signed shift). The shift
    is the pulse's ``pulse_law`` step times the bias select factor, times
    a seeded lognormal variability factor when the select factor is at
    least ``SF_DRAW_MIN``.
    """
    if pulse.duration == 0.0:
        return v_th, rng_count, 0.0
    sf = select_factor(pulse.kind, bias, cfg.inhibition)
    step, sign, limit = pulse_law(pulse, cfg)

    magnitude = step * sf
    sigma = cfg.pulse.variability_sigma
    if sf >= SF_DRAW_MIN and sigma > 0.0:
        z = np.random.default_rng((rng_seed, rng_count)).standard_normal()
        magnitude *= math.exp(sigma * z)
        rng_count += 1

    new_vth = v_th + sign * magnitude
    if sign > 0:
        new_vth = min(new_vth, limit)
    else:
        new_vth = max(new_vth, limit)
    return new_vth, rng_count, new_vth - v_th


def apply_pulse(
    cell: CellState,
    pulse: PulseSpec,
    bias: BiasCondition,
    cfg: ModelConfig = DEFAULT_CONFIG,
) -> CellState:
    """Shift v_th by the inhibition-weighted step of ``pulse``: a program
    pulse raises it (readout current drops), an erase pulse lowers it."""
    if pulse.duration == 0.0:
        return cell
    v_th, count, _ = pulse_shift(cell.v_th, cell.rng_seed, cell.rng_count, pulse, bias, cfg)
    return replace(cell, v_th=v_th, rng_count=count)


def retention_hold(
    cell: CellState,
    duration: float,
    temperature: float,
    cfg: ModelConfig = DEFAULT_CONFIG,
) -> CellState:
    """Hold the cell for ``duration`` seconds at ``temperature``.

    The default model has no deterministic drift: the stored state is
    stable over a one-day bake within the read-noise floor. When the
    random-walk option is configured, v_th performs a seeded walk sized
    so the per-day relative current deviation tracks the noise envelope.
    """
    if duration < 0:
        raise ValueError("duration must be >= 0")
    check_temperature(temperature)
    if duration == 0.0 or not cfg.retention.random_walk:
        return cell
    cal = cfg.require_calibration()
    current = drain_current(cell, READOUT_BIAS, temperature, cfg)
    sigma_rel = (
        cfg.retention.sigma_scale
        * cfg.noise.sigma_at(current)
        * math.sqrt(duration / 86400.0)
    )
    dv_sigma = sigma_rel * cfg.n * thermal_voltage(temperature)
    z = np.random.default_rng((cell.rng_seed, cell.rng_count)).standard_normal()
    v_th = min(max(cell.v_th + dv_sigma * z, cal.v_th_min), cal.v_th_max)
    return replace(cell, v_th=v_th, rng_count=cell.rng_count + 1)


# ------------------------------------------------------- state helpers

def vth_for_standard_current(
    current: float, cfg: ModelConfig = DEFAULT_CONFIG, temperature: float = None
) -> float:
    """Threshold voltage that reads ``current`` at the standard bias [V]."""
    require_positive("current", current)
    t = cfg.temperature_ref if temperature is None else temperature
    return V_CG_READ - cfg.n * thermal_voltage(t) * math.log(current / cfg.i0)


def standard_current(
    v_th: float, cfg: ModelConfig = DEFAULT_CONFIG, temperature: float = None
) -> float:
    """Readout current at the standard bias for a threshold voltage [A]."""
    t = cfg.temperature_ref if temperature is None else temperature
    return float(
        subthreshold_current(V_CG_READ, v_th, cfg.n, cfg.i0, t, cfg.i_sat)
    )
