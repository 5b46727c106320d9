"""Pulsed photon counting: emitter Monte Carlo, g2 estimation, spectral statistics.

All randomness is drawn from counter-based Philox streams keyed by
(master seed, stream id), and work is split into fixed-size chunks that
depend only on the parameters. Results are therefore bit-identical for a
given seed no matter how many workers evaluate the chunks. Each uniform
stream of the emitter is drawn chunk by chunk, every chunk starting the
stream's Philox counter at its own offset; the emitter's Poisson background
is one draw, since the Poisson sampler takes a variable number of uniforms.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .errors import FitError, ValidationError
from .spectral import line_fit
from .trace import TimeTrace

CHUNK = 65536

# Fixed stream ids for the emitter draw layout.
_STREAM_EXCITE = 0
_STREAM_DETECT = 1
_STREAM_SHELVE = 2
_STREAM_RECOVER = 3
_STREAM_BACKGROUND = 4


def _stream(seed: int, stream_id: int, blocks: int = 0) -> Generator:
    """Independent deterministic generator for (seed, stream_id), `blocks` Philox blocks in."""
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must lie in [0, 2^64), got {seed}")
    return Generator(Philox(key=np.array([seed, stream_id], dtype=np.uint64)).advance(blocks))


def _uniform_below(seed: int, stream_id: int, p: float, n: int, workers: int) -> np.ndarray:
    """`random(n) < p` of stream (seed, stream_id), drawn in CHUNK pieces on `workers` threads."""
    below = np.empty(n, dtype=bool)

    def draw(chunk):
        _, start, stop = chunk  # CHUNK % 4 == 0: every chunk starts on a block boundary
        np.less(_stream(seed, stream_id, start // 4).random(stop - start), p, out=below[start:stop])

    _run_chunks(draw, _chunked_indices(n), workers)
    return below


@dataclass(frozen=True)
class EmitterLevelScheme:
    """Effective multilevel emitter for per-pulse Monte Carlo.

    An active ion is excited by a pulse with probability p_excite and then
    emits one photon (the Purcell-shortened lifetime is far below the pulse
    period), detected with probability p_detect. Each emission shelves the
    ion with probability p_shelve into a dark state that recovers at rate
    shelf_recovery (Hz) between pulses.
    """

    p_excite: float
    p_detect: float
    p_shelve: float = 0.0
    shelf_recovery: float = 1.0  # Hz

    def __post_init__(self):
        for name in ("p_excite", "p_detect", "p_shelve"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1]")
        if self.shelf_recovery <= 0.0:
            raise ValidationError("shelf recovery rate must be positive")


@dataclass(frozen=True)
class BackgroundModel:
    """Pulse-synchronous Poissonian background, counts per pulse."""

    mean_per_pulse: float = 0.0

    def __post_init__(self):
        if self.mean_per_pulse < 0.0:
            raise ValidationError("background counts per pulse must be non-negative")


@dataclass(frozen=True)
class CountRecord:
    """Detected photon counts for every excitation pulse of one run."""

    counts: np.ndarray  # integer counts per pulse
    period: float       # s
    seed: int

    def __post_init__(self):
        if self.counts.ndim != 1 or self.counts.size == 0:
            raise ValidationError("counts must be a non-empty 1-d array")
        if np.any(self.counts < 0):
            raise ValidationError("counts must be non-negative")

    @property
    def mean_rate(self) -> float:
        """Mean detected count rate in counts/s."""
        return float(np.mean(self.counts)) / self.period


def _shelf_activity(
    emitted: np.ndarray, shelve_draw: np.ndarray, recover_draw: np.ndarray
) -> np.ndarray:
    """Active/shelved state walk over precomputed per-pulse event draws.

    A shelving emission at pulse j makes pulses j+1 .. k-1 dark, where k is
    the first later pulse whose preceding period contained a recovery.
    Every candidate inside a dark run shares that run's k, so the first
    candidate per distinct k starts each run.
    """
    n = emitted.size
    candidates = np.flatnonzero(emitted & shelve_draw)
    recoveries = np.append(np.flatnonzero(recover_draw), n)  # n: dark to the end
    ends = recoveries[np.searchsorted(recoveries, candidates, side="right")]
    first = np.ones(ends.size, dtype=bool)
    np.not_equal(ends[1:], ends[:-1], out=first[1:])
    edges = np.zeros(n + 1, dtype=np.int8)
    edges[candidates[first] + 1] = 1
    edges[ends[first]] -= 1  # an empty run (k = j + 1) nets 0
    np.cumsum(edges, dtype=np.int8, out=edges)
    return ~edges[:n].view(bool)


def simulate_emitter_stream(
    scheme: EmitterLevelScheme,
    background: BackgroundModel,
    n_pulses: int,
    period: float,
    seed: int,
    workers: int = 1,
) -> CountRecord:
    """Per-pulse Monte Carlo of the shelving emitter plus background.

    Fully determined by (parameters, seed): every random decision comes from
    a fixed Philox stream, so reruns and any worker count reproduce the
    record bit for bit.
    """
    if n_pulses < 1:
        raise ValidationError("need at least one pulse")
    if period <= 0.0:
        raise ValidationError("pulse period must be positive")
    signal = _uniform_below(seed, _STREAM_EXCITE, scheme.p_excite, n_pulses, workers)
    if scheme.p_shelve > 0.0:
        q_recover = -math.expm1(-scheme.shelf_recovery * period)
        signal &= _shelf_activity(
            signal,
            _uniform_below(seed, _STREAM_SHELVE, scheme.p_shelve, n_pulses, workers),
            _uniform_below(seed, _STREAM_RECOVER, q_recover, n_pulses, workers),
        )
    signal &= _uniform_below(seed, _STREAM_DETECT, scheme.p_detect, n_pulses, workers)
    b = background.mean_per_pulse
    if b > 0.0:
        counts = _stream(seed, _STREAM_BACKGROUND).poisson(b, n_pulses)
        counts += signal
    else:
        counts = signal.astype(np.int64)
    return CountRecord(counts=counts, period=period, seed=seed)


def g2_zero_analytic(signal_fraction: float) -> float:
    """Zero-lag autocorrelation of one emitter over Poissonian background.

    With a signal fraction rho = S/(S+B), g2(0) = 1 - rho^2.
    """
    if not 0.0 <= signal_fraction <= 1.0:
        raise ValidationError("signal fraction must lie in [0, 1]")
    return 1.0 - signal_fraction**2


# Occupancy (share of pulses holding a count) above which g2 takes the
# per-lag dot product instead of the sparse pair sum. On 2M-pulse Poisson
# records (numpy 2.4, 2-core x86-64) sparse/dense time was 0.4-0.8 at 0.1
# for lags 100-1000, about 1 at 0.12 for lag 100 and 4-6 at 0.3.
SPARSE_MAX_OCCUPANCY = 0.1


def _coincidences(counts: np.ndarray, max_lag: int) -> np.ndarray:
    """sum_i n_i n_{i+m} for m = 1 .. max_lag and sum_i n_i (n_i - 1) at m = 0.

    Sparse records pair up their nonzero pulses: pass k adds the products of
    every k-th neighbour pair into the bin of its lag, and stops once no such
    pair lies within max_lag. Dense records take one dot product per lag. The
    sums are integers below 2^53, so both paths give the same floats, and
    every 64th pulse is enough to pick the faster one: a full count would
    add a pass over the record to the dense path.
    """
    sample = counts[::64]
    if np.count_nonzero(sample) > SPARSE_MAX_OCCUPANCY * sample.size:
        c = counts.astype(np.float64)
        out = np.empty(max_lag + 1)
        out[0] = float(np.dot(c, c) - c.sum())
        for m in range(1, max_lag + 1):
            out[m] = float(np.dot(c[:-m], c[m:]))
        return out
    idx = np.flatnonzero(counts)
    w = counts[idx]
    out = np.zeros(max_lag + 1)
    out[0] = float(np.dot(w, w) - w.sum())
    for k in range(1, idx.size):
        lag = idx[k:] - idx[:-k]
        close = lag <= max_lag
        if not close.any():
            break
        out += np.bincount(lag[close], (w[k:] * w[:-k])[close], minlength=max_lag + 1)
    return out


def g2_estimator(
    record: CountRecord, max_lag: int, min_norm_coincidences: float = 1e4
) -> TimeTrace:
    """Pulsed intensity autocorrelation g2 versus lag.

    g2(m) = <n_i n_{i+m}> / norm for m > 0 and <n_i (n_i - 1)> / norm at
    m = 0, with norm the mean pair rate over the last quarter of the
    computed lags, where correlations have died out.
    The 'sigma' column is the 1-sigma statistical error from Poisson
    counting of coincidences.
    """
    counts = record.counts
    if max_lag < 4:
        raise ValidationError("max_lag must be at least 4")
    if max_lag >= counts.size:
        raise ValidationError("max_lag must be smaller than the record length")
    n = counts.size
    lags = np.arange(max_lag + 1)
    coincidences = _coincidences(counts, max_lag)
    pairs = (n - lags).astype(np.float64)
    rates = coincidences / pairs
    lo = int(math.ceil(0.75 * max_lag))
    window = slice(lo, max_lag + 1)
    window_coincidences = float(np.sum(coincidences[window]))
    if window_coincidences < min_norm_coincidences:
        raise FitError(
            f"normalization window holds {window_coincidences:.0f} coincidences "
            f"(< {min_norm_coincidences:.0f}); use a longer record"
        )
    norm = float(np.mean(rates[window]))
    g2 = rates / norm
    sigma = np.sqrt(np.maximum(coincidences, 1.0)) / pairs / norm
    return TimeTrace(
        x=lags * record.period,
        y=g2,
        x_name="lag",
        x_unit="s",
        y_name="g2",
        y_unit="dimensionless",
        metadata={
            "n_pulses": n,
            "period_s": record.period,
            "seed": record.seed,
            "norm_window": (lo, max_lag),
            "norm_rate": norm,
        },
        extra={"sigma": sigma, "lag_pulses": lags.astype(float)},
    )


def bunching_lag_constant(trace: TimeTrace) -> float:
    """Decay lag of the bunching shoulder: exponential fit to g2 - 1, in seconds.

    Only the leading run of lags whose excess stays above 5% of its peak
    enters the fit; beyond it the excess is statistical noise around zero,
    and later noise lags that cross the threshold would flatten the fit.
    """
    excess = trace.y[1:] - 1.0
    usable = np.logical_and.accumulate(excess > 0.05 * np.max(excess))
    if np.count_nonzero(usable) < 4:
        raise FitError("no bunching shoulder to fit")
    slope = line_fit(trace.x[1:][usable], np.log(excess[usable]))[0]
    if slope >= 0.0:
        raise FitError("bunching excess does not decay")
    return -1.0 / slope


def _chunked_indices(total: int) -> list[tuple[int, int, int]]:
    """(chunk_id, start, stop) partition with fixed chunk size."""
    return [
        (cid, start, min(start + CHUNK, total))
        for cid, start in enumerate(range(0, total, CHUNK))
    ]


def _run_chunks(task, chunks, workers: int):
    if workers <= 1:
        return [task(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, chunks))


def sfs_generate(
    amplitude: float,
    exponent: float,
    detuning_min: float,
    detuning_max: float,
    bin_width: float,
    seed: int,
    workers: int = 1,
) -> TimeTrace:
    """Statistical fine structure of the inhomogeneous line tail.

    Each bin draws an ion count from Poisson(A * Delta^-p), Delta being the
    bin-center detuning in the same unit the amplitude was calibrated in.
    The 'shot_noise' column carries the projected sqrt(N) envelope and
    'expected' the model mean.
    """
    if amplitude < 0.0 or exponent <= 0.0:
        raise ValidationError("amplitude must be non-negative and exponent positive")
    if not (detuning_min > 0.0 and detuning_min < detuning_max < math.inf and bin_width > 0.0):
        raise ValidationError("need 0 < detuning_min < detuning_max < inf and positive bin width")
    n_bins = int(math.floor((detuning_max - detuning_min) / bin_width))
    if n_bins < 1:
        raise ValidationError("detuning range shorter than one bin")
    centers = detuning_min + bin_width * (np.arange(n_bins) + 0.5)
    expected = amplitude * centers ** (-exponent)
    if not expected.max() < 1e18:  # numpy's Poisson sampler draws int64 counts
        raise ValidationError(f"expected ion count per bin {expected.max():.3g} is not below 1e18")

    def draw(chunk):
        cid, start, stop = chunk
        return _stream(seed, cid).poisson(expected[start:stop])

    pieces = _run_chunks(draw, _chunked_indices(n_bins), workers)
    observed = np.concatenate(pieces).astype(float)
    return TimeTrace(
        x=centers,
        y=observed,
        x_name="detuning",
        x_unit="GHz",
        y_name="ion_count",
        y_unit="ions/bandwidth",
        metadata={
            "amplitude": amplitude,
            "exponent": exponent,
            "bin_width": bin_width,
            "seed": seed,
        },
        extra={"expected": expected, "shot_noise": np.sqrt(expected)},
    )


def coupling_histogram(samples: int, seed: int, bins: int = 25, workers: int = 1) -> TimeTrace:
    """Distribution of relative emission rate over random ion positions.

    Ions are placed uniformly in a surrogate standing-wave mode: relative
    coupling |cos(2 pi x/lambda_eff)| * exp(-(y^2+z^2)/w^2) over one axial
    period and a transverse box of one waist. The relative photoluminescence
    follows the Purcell rate map, PL ~ (g/g_max)^2. Returns bin-center
    fractions; 'count' holds the raw histogram.
    """
    if samples < 1000:
        raise ValidationError("need at least 1000 samples for a stable histogram")
    if bins < 2:
        raise ValidationError("need at least 2 bins")
    edges = np.linspace(0.0, 1.0, bins + 1)

    def draw(chunk):
        cid, start, stop = chunk
        m = stop - start
        rng = _stream(seed, cid)
        x = rng.random(m)  # axial position in units of lambda_eff, one period
        y = rng.uniform(-1.0, 1.0, m)  # transverse, units of the waist
        z = rng.uniform(-1.0, 1.0, m)
        g_rel = np.abs(np.cos(2.0 * math.pi * x)) * np.exp(-(y**2 + z**2))
        pl = g_rel**2
        hist, _ = np.histogram(pl, bins=edges)
        return hist

    pieces = _run_chunks(draw, _chunked_indices(samples), workers)
    hist = np.sum(pieces, axis=0)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return TimeTrace(
        x=centers,
        y=hist / samples,
        x_name="relative_pl",
        x_unit="dimensionless",
        y_name="fraction_of_ions",
        y_unit="dimensionless",
        metadata={"samples": samples, "seed": seed, "bins": bins},
        extra={"count": hist.astype(float)},
    )
