"""Predictive channel profile along the patrol trajectory.

Builds the per-(base station, resource block, slot) large-scale gain and
Gamma-fading shape tensors from scenario geometry (3GPP UMi path loss,
elevation-dependent LOS blockage, spatially correlated log-normal
shadowing), precomputes the effective channel floor used by the
water-filling solver, and samples small-scale fading realizations for
Monte Carlo evaluation.

The deterministic capacity surrogate used throughout the planner is

    rate(p) = log2(1 + beta(kappa) * p * g / noise)

where ``beta(kappa) = exp(psi(kappa)) / kappa`` discounts the mean SNR for
fading severity (psi is the digamma function).  The surrogate lower-bounds
the fading-averaged capacity and becomes tight at high SNR or high kappa.
"""

from __future__ import annotations

import operator
import zipfile
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ScenarioValidationError
from .scenario import Scenario

__all__ = [
    "ChannelProfile",
    "pathloss_db",
    "los_probability",
    "digamma",
    "fading_severity",
    "capacity_lower_bound",
    "build_profile",
    "sample_fading",
    "replica_generators",
    "save_profile",
    "load_profile",
]


# ----------------------------------------------------------------------
# Scalar channel maths
# ----------------------------------------------------------------------

def pathloss_db(distance_m, fc_ghz, is_los):
    """3GPP UMi path loss in dB.

    LOS:  22.0 + 28.0 log10(d) + 20 log10(f_c)
    NLOS: 22.7 + 36.7 log10(d) + 26 log10(f_c)

    ``distance_m`` must be strictly positive.
    """
    d = np.asarray(distance_m, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("distance_m must be > 0")
    fc = np.asarray(fc_ghz, dtype=float)
    if np.any(fc <= 0.0):
        raise ValueError("fc_ghz must be > 0")
    los = 22.0 + 28.0 * np.log10(d) + 20.0 * np.log10(fc)
    nlos = 22.7 + 36.7 * np.log10(d) + 26.0 * np.log10(fc)
    out = np.where(is_los, los, nlos)
    return float(out) if out.ndim == 0 else out


def los_probability(elevation_deg):
    """Line-of-sight probability vs. elevation angle (degrees).

    P = 1 / (1 + 6 exp(-0.15 (theta - 6))); monotone increasing, in (0, 1).
    """
    theta = np.asarray(elevation_deg, dtype=float)
    arg = np.clip(-0.15 * (theta - 6.0), -700.0, 700.0)
    out = 1.0 / (1.0 + 6.0 * np.exp(arg))
    return float(out) if out.ndim == 0 else out


_ASYMPTOTIC_SHIFT = 10.0
# Bernoulli-number coefficients of the asymptotic expansion
_PSI_SERIES = (
    (2, 1.0 / 12.0),
    (4, -1.0 / 120.0),
    (6, 1.0 / 252.0),
    (8, -1.0 / 240.0),
    (10, 1.0 / 132.0),
)


def digamma(x):
    """Digamma function for positive arguments.

    Recurrence shifts the argument above 10, then an asymptotic series in
    1/x^2 is applied; accurate to ~1e-12 over [1e-3, 1e6].
    """
    z = np.asarray(x, dtype=float)
    if np.any(z <= 0.0):
        raise ValueError("digamma requires positive arguments")
    z = np.atleast_1d(z.copy())
    acc = np.zeros_like(z)
    # at most ceil(10 - 1e-3) shifts are ever needed
    for _ in range(10):
        low = z < _ASYMPTOTIC_SHIFT
        if not low.any():
            break
        acc[low] -= 1.0 / z[low]
        z[low] += 1.0
    result = acc + np.log(z) - 0.5 / z
    inv2 = 1.0 / (z * z)
    term = np.ones_like(z)
    for _, coeff in _PSI_SERIES:
        term = term * inv2
        result -= coeff * term
    out = result.reshape(np.shape(x))
    return float(out) if out.ndim == 0 else out


def fading_severity(kappa):
    """Severity factor beta = exp(psi(kappa)) / kappa in (0, 1).

    Strictly increasing in kappa: ~0.56 for unit shape (Rayleigh-like),
    tending to 1 as the line-of-sight component dominates.
    """
    k = np.asarray(kappa, dtype=float)
    if np.any(k <= 0.0):
        raise ValueError("kappa must be > 0")
    out = np.exp(digamma(k)) / k
    return float(out) if np.ndim(out) == 0 else out


def capacity_lower_bound(power, gain, kappa, noise):
    """Deterministic surrogate log2(1 + beta * p * g / noise); 0 at p = 0."""
    p = np.asarray(power, dtype=float)
    if np.any(p < 0.0):
        raise ValueError("power must be >= 0")
    snr = fading_severity(kappa) * p * np.asarray(gain, dtype=float) / noise
    out = np.log2(1.0 + snr)
    return float(out) if np.ndim(out) == 0 else out


# ----------------------------------------------------------------------
# Profile construction
# ----------------------------------------------------------------------

@dataclass
class ChannelProfile:
    """Predicted channel along the trajectory.

    gain, shape, iota are (N, K, T) tensors; ``iota = noise / (beta * gain)``
    is the per-entry water-filling floor.  ``inv_shape = 1 / shape`` is
    derived once at construction for :func:`sample_fading`; it takes no
    part in equality or the repr and is not saved.  Arrays are frozen
    (read-only) after construction, so no solve or replica that shares a
    profile can alter it for the others.
    """

    gain: np.ndarray
    shape: np.ndarray
    iota: np.ndarray
    noise_power: float
    seed: int | None = None
    inv_shape: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("gain", "shape", "iota"):
            arr = getattr(self, name)
            if arr.ndim != 3:
                raise ValueError(f"{name} must be an (N, K, T) tensor")
            if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
                raise ValueError(f"{name} entries must be finite and > 0")
        if self.gain.shape != self.shape.shape or self.gain.shape != self.iota.shape:
            raise ValueError("gain, shape, iota dimensions disagree")
        if not 0.0 < self.noise_power < np.inf:
            raise ValueError(f"noise_power must be finite and > 0, got {self.noise_power}")
        self.inv_shape = 1.0 / self.shape
        for name in ("gain", "shape", "iota", "inv_shape"):
            getattr(self, name).setflags(write=False)

    @property
    def dims(self):
        return self.gain.shape

    @classmethod
    def from_arrays(cls, gain, shape, noise_power, seed=None) -> "ChannelProfile":
        gain = np.ascontiguousarray(gain, dtype=float)
        shape = np.ascontiguousarray(shape, dtype=float)
        if gain.ndim != 3 or np.any(gain <= 0.0):
            raise ValueError("gain must be an (N, K, T) tensor of positives")
        iota = _channel_floor(gain, shape, noise_power)
        return cls(gain=gain, shape=shape, iota=iota, noise_power=float(noise_power), seed=seed)


def _channel_floor(gain, shape, noise_power):
    """Water-filling floor noise / (beta(shape) * gain); inf where the
    severity of a very low shape is too small for a float floor."""
    with np.errstate(divide="ignore", over="ignore"):
        return noise_power / (fading_severity(shape) * gain)


def _correlated_shadowing(rng, sigma_db, step_dist_m, corr_dist_m, num_bs, horizon):
    """Per-BS log-normal shadowing with exponential spatial correlation.

    AR(1) over trajectory arc steps reproduces the kernel
    cov(s, s') = sigma^2 exp(-|arc|/corr_dist) exactly on a 1-D path.
    """
    draws = rng.standard_normal((num_bs, horizon))
    if sigma_db == 0.0:
        return np.zeros((num_bs, horizon))
    field = np.empty((num_bs, horizon))
    field[:, 0] = sigma_db * draws[:, 0]
    if corr_dist_m > 0.0:
        rho = np.exp(-step_dist_m / corr_dist_m)  # length T-1
    else:
        rho = np.zeros(max(horizon - 1, 0))
    innov = sigma_db * np.sqrt(1.0 - rho**2)
    for t in range(1, horizon):
        field[:, t] = rho[t - 1] * field[:, t - 1] + innov[t - 1] * draws[:, t]
    return field


def build_profile(scenario: Scenario, seed: int) -> ChannelProfile:
    """Predict {gain, shape} along the trajectory; deterministic per seed.

    Draw order (fixed): blockage uniforms (N, T), shadowing normals (N, T),
    then Gamma shapes.  Blockage and shadowing are shared across resource
    blocks; the Gamma shape is drawn once per (BS, RB) and held over time
    unless the scenario requests per-slot redraws.  Raises
    :class:`ScenarioValidationError` when the shapes are so low that the
    channel floors overflow.
    """
    rng = np.random.default_rng(seed)
    traj = scenario.trajectory_array()      # (T, 3)
    bs = scenario.bs_array()                # (N, 3)
    N, K, T = scenario.num_bs_N, scenario.num_rb_K, scenario.horizon_T

    diff = traj[None, :, :] - bs[:, None, :]          # (N, T, 3)
    dist = np.linalg.norm(diff, axis=2)               # (N, T)
    if np.any(dist <= 0.0):
        raise ValueError("UAV trajectory passes through a BS position")
    elev = np.degrees(np.arcsin(np.clip(diff[:, :, 2] / dist, -1.0, 1.0)))

    p_los = los_probability(elev)
    is_los = rng.random((N, T)) < p_los

    step = np.linalg.norm(np.diff(traj, axis=0), axis=1) if T > 1 else np.zeros(0)
    shadow_db = _correlated_shadowing(
        rng, scenario.shadowing_sigma_db, step, scenario.shadowing_corr_dist_m, N, T
    )

    pl = pathloss_db(dist, scenario.carrier_freq_ghz, is_los)
    gain_nt = 10.0 ** ((-pl + shadow_db) / 10.0)       # (N, T)
    gain = np.repeat(gain_nt[:, None, :], K, axis=1)   # (N, K, T)

    lo, hi = scenario.kappa_range
    if scenario.kappa_per_slot:
        shape = rng.uniform(lo, hi, size=(N, K, T))
    else:
        shape = np.repeat(rng.uniform(lo, hi, size=(N, K))[:, :, None], T, axis=2)

    iota = _channel_floor(gain, shape, scenario.noise_power_delta2)
    if not np.isfinite(iota).all():
        raise ScenarioValidationError([
            f"kappa_range {tuple(scenario.kappa_range)} is too low: the fading severity "
            "exp(psi(kappa))/kappa of its Gamma shapes is so small that channel floors "
            "overflow to infinity"
        ])
    return ChannelProfile(gain=gain, shape=shape, iota=iota,
                          noise_power=float(scenario.noise_power_delta2), seed=seed)


def sample_fading(profile: ChannelProfile, seed) -> np.ndarray:
    """Independent unit-mean Gamma fading per (BS, RB, slot) entry.

    Draws from ``numpy.random.default_rng(seed)``, where ``seed`` is an int,
    a sequence of ints or a ``Generator`` (drawn from as it stands), so one
    seed always gives the same array.  :func:`replica_generators` builds
    replica r's generator, whose stream is ``default_rng([seed, r])``'s.
    Draws at small shapes can underflow to exactly 0, a deep fade.

    The stream and bits are those of ``rng.gamma(shape, scale=1/shape)``:
    numpy computes that draw as ``scale * standard_gamma(shape)`` entry by
    entry, so scaling the standard draw afterwards by the profile's
    ``inv_shape`` gives the same array with one argument check instead of
    two.
    """
    rng = np.random.default_rng(seed)
    return rng.standard_gamma(profile.shape) * profile.inv_shape


# numpy.random.SeedSequence's entropy hash (numpy/random/bit_generator.pyx),
# a documented stable stream: a pool of four uint32 words, hashed and mixed
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _uint32_words(n: int) -> list:
    """SeedSequence's entropy words of a non-negative int: its 32-bit
    words, least significant first, and one word for 0."""
    return [(n >> s) & _MASK32 for s in range(0, max(n.bit_length(), 1), 32)]


def _pcg64_seed_words(entropy: list) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for every row of
    the entropy matrix whose columns (equal-length uint32 arrays) are
    ``entropy``; returns an (R, 4) uint64 array.

    The hash constants advance independently of the data, so one pass of
    numpy's per-word steps over whole columns hashes every row at once;
    uint32 array arithmetic wraps modulo 2**32 as the C code does.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))

    hash_const = _INIT_B
    state = np.empty((len(zero), 8), dtype=np.uint64)
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> _XSHIFT)
    # pairs of uint32 words, low word first, make each uint64 word
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)


class _SeedWords(ISeedSequence):
    """Hands a bit generator its precomputed seed words."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def replica_generators(seed: int, start: int, stop: int) -> list:
    """Replica r's generator for r in ``range(start, stop)``: the stream of
    ``numpy.random.default_rng([seed, r])``.

    Instead of one ``SeedSequence`` per replica, the entropy hash runs in
    one pass over numpy uint32 arrays (split only where the replica index
    gains an entropy word), and numpy's own PCG64 seeding takes each
    replica's four words.  The first generator's state is checked against
    ``default_rng([seed, start])``, which also rejects a seed numpy would
    reject; a mismatch raises ``RuntimeError``.
    """
    seed, start, stop = operator.index(seed), operator.index(start), operator.index(stop)
    if start >= stop:
        return []
    ref = np.random.default_rng([seed, start])
    seed_words = _uint32_words(seed)
    gens = []
    first = start
    while first < stop:
        # replicas of one pass have the same number of entropy words
        width = len(_uint32_words(first))
        last = min(stop, 1 << (32 * width))
        reps = np.arange(first, last, dtype=object)  # Python ints: indices of any size
        entropy = [np.full(last - first, w, dtype=np.uint32) for w in seed_words]
        entropy += [(reps >> s & _MASK32).astype(np.uint32) for s in range(0, 32 * width, 32)]
        gens += [np.random.Generator(np.random.PCG64(_SeedWords(words)))
                 for words in _pcg64_seed_words(entropy)]
        first = last
    if gens[0].bit_generator.state != ref.bit_generator.state:
        raise RuntimeError(f"replica generator for [{seed}, {start}] differs from "
                           "numpy.random.default_rng's: the vectorised SeedSequence "
                           "hash no longer matches numpy's")
    return gens


# ----------------------------------------------------------------------
# Profile persistence (bit-exact binary dump)
# ----------------------------------------------------------------------

def save_profile(profile: ChannelProfile, path) -> None:
    """Write the profile as an .npz tensor dump (lossless round trip)."""
    np.savez(
        path,
        gain=profile.gain,
        shape=profile.shape,
        iota=profile.iota,
        noise_power=np.float64(profile.noise_power),
        seed=np.int64(-1 if profile.seed is None else profile.seed),
        dims=np.asarray(profile.dims, dtype=np.int64),
    )


def load_profile(path) -> ChannelProfile:
    """Load a profile written by :func:`save_profile`.

    A file that is not such a profile raises :class:`ScenarioValidationError`
    naming it; a missing or unreadable file raises ``OSError``.
    """
    try:
        with np.load(path) as data:
            dims = tuple(int(d) for d in data["dims"])
            gain = data["gain"]
            if gain.shape != dims:
                raise ValueError(f"profile header dims {dims} disagree with tensor {gain.shape}")
            seed = int(data["seed"])
            return ChannelProfile(
                gain=gain,
                shape=data["shape"],
                iota=data["iota"],
                noise_power=float(data["noise_power"]),
                seed=None if seed < 0 else seed,
            )
    except (ValueError, TypeError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise ScenarioValidationError([f"profile file {path} is malformed: {exc}"]) from exc
