"""Pulsed photon counting: emitter Monte Carlo, g2 estimation, spectral statistics.

All randomness is drawn from counter-based Philox streams keyed by
(master seed, stream id), so a seed fixes every output bit. The emitter
draws its uniform streams in CHUNK-pulse pieces, each from a generator set
to the piece's counter, so a piece holds the same bits as that slice of one
serial draw; the pieces run on a thread pool, and a serial pass carries the
shelving state across their boundaries. The pieces draw raw 64-bit words
and compare them with integer thresholds: numpy's `random` is
(word >> 11) * 2^-53, so the thresholds give the bools that comparing those
doubles gives, without making them. Below STITCH_MAX_BACKGROUND the pieces
also draw the Poisson background's words, and a serial stitch turns them
into the counts of one `poisson` draw; above it that one draw overlaps the
pieces. On the same pool, g2 sums the pairs that start in one range of
pulses per thread, exactly while the squared counts sum below 2^53. The SFS
and the histogram draw one stream per fixed-size chunk of bins or samples,
the histogram's on the pool, each of its chunks in one draw. The histogram
screens each sample's bin with a float32 cos and bins the samples within
SCREEN_MARGIN of an edge again from the float64 cos, so its counts are
those of the float64 PL. Every output is the same for any thread count.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.random import Generator, Philox

from .errors import FitError, ValidationError
from .spectral import line_fit
from .trace import TimeTrace

CHUNK = 65536  # a multiple of 4: every piece starts on a Philox counter step

# Fixed stream ids for the emitter draw layout.
_STREAM_EXCITE = 0
_STREAM_DETECT = 1
_STREAM_SHELVE = 2
_STREAM_RECOVER = 3
_STREAM_BACKGROUND = 4


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must lie in [0, 2^64), got {seed}")


def _stream(seed: int, stream_id: int, start: int = 0) -> Generator:
    """Generator at draw `start` of the Philox stream (seed, stream_id).

    Philox4x64 turns each counter step into four 64-bit words and `random`
    takes one word per double, so for `start` a multiple of 4 the generator
    draws the doubles that one draw from 0 holds from index `start` on.
    """
    key = np.array([seed, stream_id], dtype=np.uint64)
    return Generator(Philox(key=key, counter=start // 4))


def _below(words: np.ndarray, p: float) -> np.ndarray:
    """`random() < p` for the raw Philox words `random()` would turn into doubles.

    `random` takes one word per double, (word >> 11) * 2^-53, which is
    exact. That is below p exactly when word >> 11 < ceil(p 2^53), that is
    word < ceil(p 2^53) << 11. At p = 1 that bound is 2^64, past uint64.
    numpy before 2.0 compares uint64 with a Python int as float64, so the
    bound is a uint64.
    """
    if p >= 1.0:
        return np.ones(words.size, dtype=bool)
    return words < np.uint64(math.ceil(p * 2**53) << 11)


def _hot(words: np.ndarray, enlam: float) -> tuple[np.ndarray, np.ndarray]:
    """Positions and doubles of the words whose double exceeds enlam.

    (word >> 11) * 2^-53 > enlam exactly when word >> 11 > floor(enlam 2^53).
    Where enlam rounds to 1 no word is hot; capping the floor at 2^53 - 1,
    the largest value of word >> 11, keeps it so and keeps the threshold
    within uint64.
    """
    top = min(math.floor(enlam * 2**53), 2**53 - 1)
    i = np.flatnonzero(words > np.uint64(top << 11 | 2047))
    return i, (words[i] >> np.uint64(11)) * 2.0**-53


def _chunked_indices(total: int) -> list[tuple[int, int, int]]:
    """(chunk_id, start, stop) partition with fixed chunk size."""
    return [
        (cid, start, min(start + CHUNK, total))
        for cid, start in enumerate(range(0, total, CHUNK))
    ]


def _cpu_count() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_jobs(jobs: list, workers: int) -> list:
    """Results of the argument-free `jobs`, in order, on up to `workers` threads.

    The pool starts one thread per queued job up to its size, and more
    threads than CPUs gain nothing, so it holds at most `_cpu_count()`. At
    size 1 the jobs run inline and no thread starts.
    """
    size = min(workers, _cpu_count())
    if size == 1:
        return [job() for job in jobs]
    with ThreadPoolExecutor(max_workers=size) as pool:
        return list(pool.map(lambda job: job(), jobs))


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
        if not self.shelf_recovery > 0.0:  # not `<= 0.0`, which NaN passes
            raise ValidationError("shelf recovery rate must be positive")


@dataclass(frozen=True)
class CountRecord:
    """Detected photon counts for every excitation pulse of one run."""

    counts: np.ndarray  # integer counts per pulse
    period: float       # s
    seed: int

    def __post_init__(self):
        if self.counts.ndim != 1 or self.counts.size == 0:
            raise ValidationError("counts must be a non-empty 1-d array")
        if not np.issubdtype(self.counts.dtype, np.integer):
            raise ValidationError(f"counts must be integers, got dtype {self.counts.dtype}")
        if self.counts.min() < 0:
            raise ValidationError("counts must be non-negative")

    @property
    def mean_rate(self) -> float:
        """Mean detected count rate in counts/s."""
        return float(np.mean(self.counts)) / self.period


def _shelf_activity(candidates: np.ndarray, recoveries: np.ndarray, n: int) -> np.ndarray:
    """Active/shelved state walk over n pulses, from sorted event indices.

    A shelving emission (a candidate) at pulse j makes pulses j+1 .. k-1
    dark, where k is the first later pulse whose preceding period contained
    a recovery. Every candidate inside a dark run shares that run's k, so the
    first candidate per distinct k starts each run. The next run's candidate
    lies at or after k, so that run starts at k + 1 or later: runs neither
    overlap nor touch, and a toggle at each start and end, accumulated by
    XOR, marks them.
    """
    ends = np.append(recoveries, n)[np.searchsorted(recoveries, candidates, side="right")]
    first = np.ones(ends.size, dtype=bool)
    np.not_equal(ends[1:], ends[:-1], out=first[1:])
    starts, ends = candidates[first] + 1, ends[first]
    full = starts < ends  # an empty run (k = j + 1) darkens nothing
    toggles = np.zeros(n + 1, dtype=bool)
    toggles[0] = True  # active before the first run, which starts at 1 or later
    toggles[starts[full]] = True
    toggles[ends[full]] = True
    return np.logical_xor.accumulate(toggles, out=toggles)[:n]


# Mean background per pulse below which the emitter pieces draw the
# background's doubles and `_background_pulses` stitches them into counts;
# at or above it one serial `poisson` call draws them. numpy takes means below
# 10 by Knuth's product of uniforms, so it must lie below 10; the stitch's
# serial part grows with the share of doubles above exp(-mean). On 5M pulses
# (numpy 2.4, 2-core x86-64, medians of 7) stitch/poisson time was, for the
# background alone on one thread, 39/76 ms at 0.01, 62/92 ms at 0.05,
# 86/83 ms at 0.1 and 501/192 ms at 1; for the whole plain emitter on two
# threads, 75/92 ms at 0.02, 94/121 ms at 0.05 and 129/98 ms at 0.1.
STITCH_MAX_BACKGROUND = 0.05


def _pulse_bounds(
    positions: np.ndarray, values: np.ndarray, enlam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Which hot doubles start a background pulse, and which end one.

    numpy draws a mean below 10 by Knuth's product of uniforms: each pulse
    multiplies doubles into a product that starts at 1, counts one per
    factor that leaves it above enlam = exp(-mean), and ends at the first
    that does not. A "hot" double, above enlam, therefore starts a pulse
    after a cold one, and a cold double always ends one; inside a run of
    consecutive hot doubles the running product, multiplied left to right
    as numpy does, ends pulses. `positions` and `values` hold the hot
    doubles of the stream in order.
    """
    starts = np.ones(positions.size, dtype=bool)
    np.not_equal(positions[1:], positions[:-1] + 1, out=starts[1:])
    ends = np.zeros(positions.size, dtype=bool)
    first = np.flatnonzero(starts)
    length = np.diff(first, append=positions.size)
    first, length = first[length > 1], length[length > 1]
    prod = values[first]
    for k in range(1, int(length.max(initial=1))):
        alive = length > k
        first, length, prod = first[alive], length[alive], prod[alive]
        prod *= values[first + k]
        end = prod <= enlam
        ends[first[end] + k] = True
        prod[end] = 1.0
    starts[1:] |= ends[:-1]
    return starts, ends


def _background_pulses(
    seed: int, mean: float, n: int, hot: list
) -> tuple[np.ndarray, np.ndarray]:
    """Pulse indices and counts of the nonzero pulses of the background draw.

    They equal those of `_stream(seed, 4).poisson(mean, n)` for a mean below
    10. `hot` holds the positions and values of the hot doubles (see
    `_pulse_bounds`) among the stream's first n, piece by piece in order.
    The draw takes one double per pulse plus one per count, so the stream
    goes on from n until n pulses have ended.
    """
    enlam = math.exp(-mean)
    extension = _stream(seed, _STREAM_BACKGROUND, n).bit_generator
    extension.random_raw(n % 4)  # the counter steps four words at a time
    hot, drawn = list(hot), n
    short = n * mean  # the doubles the counts take, on average
    while True:
        size = math.ceil(short + 6.0 * math.sqrt(short)) + 16
        i, values = _hot(extension.random_raw(size), enlam)
        hot.append((i + drawn, values))
        drawn += size
        positions, values = (np.concatenate(part) for part in zip(*hot))
        starts, ends = _pulse_bounds(positions, values, enlam)
        counted = np.cumsum(~ends)  # a pulse's first double counts, an ending one not
        ended = drawn - int(counted[-1]) if counted.size else drawn
        if ended >= n:
            break
        short = (n - ended) * (1.0 + mean)
    # the doubles before a pulse are its index plus the counts before it
    first = np.flatnonzero(starts)
    before = counted[first] - 1
    index = positions[first] - before
    count = np.diff(before, append=counted[-1:])
    kept = index < n  # pulse n and later may be cut off at the end of the draw
    return index[kept], count[kept]


def simulate_emitter_stream(
    scheme: EmitterLevelScheme,
    background: float,
    n_pulses: int,
    period: float,
    seed: int,
) -> CountRecord:
    """Per-pulse Monte Carlo of the shelving emitter plus background.

    ``background`` is the mean of a pulse-synchronous Poissonian background,
    in counts per pulse. Fully determined by (parameters, seed): every random
    decision comes from a fixed Philox stream, so reruns reproduce the record
    bit for bit.
    """
    if n_pulses < 1:
        raise ValidationError("need at least one pulse")
    if not period > 0.0:
        raise ValidationError("pulse period must be positive")
    if not 0.0 <= background < 1e18:  # numpy's Poisson sampler draws int64 counts
        raise ValidationError(
            f"background counts per pulse must lie in [0, 1e18), got {background:.3g}")
    _check_seed(seed)
    shelving = scheme.p_shelve > 0.0
    q_recover = -math.expm1(-scheme.shelf_recovery * period)
    stitch = 0.0 < background < STITCH_MAX_BACKGROUND
    enlam = math.exp(-background)  # the libm exp numpy's sampler calls
    counts = np.empty(n_pulses, dtype=np.int64)
    chunks = _chunked_indices(n_pulses)

    def piece(start, stop):
        """Draw counts[start:stop] as if the ion entered the piece active.

        With shelving, the walk is the piece's shelving candidates and
        recoveries, relative to start; with a stitched background, the hot
        doubles are the positions and values of the piece's background
        doubles above enlam.
        """

        def words(stream_id):
            return _stream(seed, stream_id, start).bit_generator.random_raw(stop - start)

        emitted = _below(words(_STREAM_EXCITE), scheme.p_excite)
        walk = None
        if shelving:
            shelves = np.flatnonzero(_below(words(_STREAM_SHELVE), scheme.p_shelve))
            recoveries = np.flatnonzero(_below(words(_STREAM_RECOVER), q_recover))
            walk = shelves[emitted[shelves]], recoveries
            emitted &= _shelf_activity(*walk, stop - start)
        emitted &= _below(words(_STREAM_DETECT), scheme.p_detect)
        counts[start:stop] = emitted
        hot = None
        if stitch:
            i, values = _hot(words(_STREAM_BACKGROUND), enlam)
            hot = i + start, values
        return walk, hot

    jobs = [partial(piece, start, stop) for _, start, stop in chunks]
    serial = background >= STITCH_MAX_BACKGROUND
    if serial:
        jobs.insert(0, partial(_stream(seed, _STREAM_BACKGROUND).poisson, background, n_pulses))
    results = _run_jobs(jobs, _cpu_count())
    drawn = results.pop(0) if serial else None
    walks, hots = zip(*results)
    if shelving:
        # the ion enters a piece dark when the last shelving candidate before
        # it is at or after the last recovery, and stays dark to its first one
        last_candidate, last_recovery = -1, 0
        for (_, start, stop), (candidates, recoveries) in zip(chunks, walks):
            if last_candidate >= last_recovery:
                counts[start:(start + recoveries[0] if recoveries.size else stop)] = 0
            if candidates.size:
                last_candidate = start + candidates[-1]
            if recoveries.size:
                last_recovery = start + recoveries[-1]
    if serial:
        counts += drawn
    elif stitch:
        index, count = _background_pulses(seed, background, n_pulses, hots)
        counts[index] += count
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


def _pair_sums(counts: np.ndarray, start: int, stop: int, max_lag: int) -> tuple[np.ndarray, float]:
    """Coincidences over first pulses start <= i < stop, sum n_i^2 at lag 0, and sum n_i.

    Pass k adds the products of every k-th neighbour event pair into the bin
    of its lag, and stops once no such pair lies within max_lag. Pass 0 sums
    n_i^2 in numpy's own loop: a BLAS dot's threads would contend with the pool's.
    """
    window = counts[start:stop + max_lag]  # every pair's second pulse lies in it
    # numpy's nonzero has a fast loop for bools only, and CHUNK pieces keep them small
    idx = np.concatenate([np.flatnonzero(window[a:a + CHUNK] != 0) + a
                          for a in range(0, window.size, CHUNK)])
    w = window[idx].astype(np.float64)  # no product wraps in the counts' dtype
    own = int(np.searchsorted(idx, stop - start))
    out = np.zeros(max_lag + 1)
    for k in range(idx.size):
        left = min(own, idx.size - k)
        lag = idx[k:k + left] - idx[:left]
        close = lag <= max_lag
        if not close.any():
            break
        out += np.bincount(lag[close], (w[k:k + left] * w[:left])[close], minlength=max_lag + 1)
    return out, w[:own].sum()


def _coincidences(counts: np.ndarray, max_lag: int) -> np.ndarray:
    """sum_i n_i n_{i+m} for m = 1 .. max_lag and sum_i n_i (n_i - 1) at m = 0.

    Sparse records pair up their nonzero pulses: each thread takes one
    contiguous range of pulses and sums the pairs that start in it. Dense
    records take one dot product per lag. Every 64th pulse is enough to pick
    the faster path: a full count would add a pass over the record to the
    dense path. The counts are integers and sum_i n_i^2, which bounds every
    sum (Cauchy-Schwarz), must lie below 2^53, so every partial sum is an
    exact integer and both paths and any split give the same floats.
    """
    sample = counts[::64]
    dense = np.count_nonzero(sample) > SPARSE_MAX_OCCUPANCY * sample.size
    if dense:
        c = counts.astype(np.float64)
        out = np.empty(max_lag + 1)
        out[0], total = np.dot(c, c), c.sum()
    else:
        step = -(-counts.size // _cpu_count())  # one range per thread
        jobs = [partial(_pair_sums, counts, start, start + step, max_lag)
                for start in range(0, counts.size, step)]
        parts, totals = zip(*_run_jobs(jobs, len(jobs)))
        out, total = np.sum(parts, axis=0), sum(totals)
    if not out[0] < 2**53:
        raise ValidationError(f"g2 needs the sum of squared counts per pulse below 2^53 "
                              f"to count coincidences exactly, got {out[0]:.3g}")
    out[0] -= total
    if dense:  # after the check: each lag takes a pass over the record
        for m in range(1, max_lag + 1):
            out[m] = float(np.dot(c[:-m], c[m:]))
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
        raise FitError(f"normalization window, lags {lo}-{max_lag}, holds "
                       f"{window_coincidences:.0f} coincidences (< {min_norm_coincidences:.0f}); "
                       "use a longer record or a larger max_lag")
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


def shelving_lag_analytic(
    p_excite: float, p_shelve: float, shelf_recovery: float, period: float
) -> float:
    """Decay lag of g2 - 1 for the shelving emitter, in seconds.

    Pulse to pulse the ion is a two-state (active/shelved) Markov chain. An
    active ion goes dark with p = p_excite p_shelve and a dark ion stays dark
    with exp(-R T), so the chain's second eigenvalue is
    lambda = (1 - p) exp(-R T) and g2 - 1 decays as lambda^k, that is with
    the lag -T / ln lambda = T / (R T - ln(1 - p)).
    """
    if not (0.0 <= p_excite <= 1.0 and 0.0 <= p_shelve <= 1.0):
        raise ValidationError("p_excite and p_shelve must lie in [0, 1]")
    if not (shelf_recovery > 0.0 and period > 0.0):
        raise ValidationError("shelf recovery rate and pulse period must be positive")
    p = p_excite * p_shelve
    if p == 1.0:
        return 0.0  # lambda = 0: the chain forgets its state in one pulse
    return period / (shelf_recovery * period - math.log1p(-p))


def sfs_generate(
    amplitude: float,
    exponent: float,
    detuning_min: float,
    detuning_max: float,
    bin_width: float,
    seed: int,
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
    if n_bins >= 2**59:  # as the CLI's count flags: numpy raises ValueError at 2^60 doubles
        raise ValidationError(f"detuning range holds {n_bins:.3g} bins, not below 2^59")
    _check_seed(seed)
    centers = detuning_min + bin_width * (np.arange(n_bins) + 0.5)
    expected = amplitude * centers ** (-exponent)
    if not expected.max() < 1e18:  # numpy's Poisson sampler draws int64 counts
        raise ValidationError(f"expected ion count per bin {expected.max():.3g} is not below 1e18")
    pieces = [
        _stream(seed, cid).poisson(expected[start:stop])
        for cid, start, stop in _chunked_indices(n_bins)
    ]
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


# `coupling_histogram` screens each sample's bin in float32, from the cos of
# the float32 phase. On [0, 2 pi) that cos errs from numpy's float64 cos by
# at most 2.56e-7 (measured over 80M random angles and around every zero and
# extremum of cos; a test holds it below SCREEN_MARGIN / 8 on each numpy),
# so with e <= 1 and the float32 rounding of the products the screened PL
# (|cos| e)^2 lies within 8.1e-7 of the float64 one, 12 times inside this
# margin. A sample whose screened PL lies within SCREEN_MARGIN of a bin edge
# is binned again from the float64 cos, so every count is that of the
# float64 PL: about 0.5% of the samples at 25 bins, and all of them from
# bins * SCREEN_MARGIN >= 0.5 on.
SCREEN_MARGIN = 1e-5


def _edge_bins(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin of each value in [edges[0], edges[-1]] as `np.histogram` counts it.

    Bin i holds edges[i] <= v < edges[i + 1], and the last bin also holds
    v = edges[-1].
    """
    return np.minimum(np.searchsorted(edges, values, "right") - 1, edges.size - 2)


def coupling_histogram(samples: int, seed: int, bins: int = 25, workers: int | None = None) -> TimeTrace:
    """Distribution of relative emission rate over random ion positions.

    Ions are placed uniformly in a surrogate standing-wave mode: relative
    coupling |cos(2 pi x/lambda_eff)| * exp(-(y^2+z^2)/w^2) over one axial
    period and a transverse box of one waist. The relative photoluminescence
    follows the Purcell rate map, PL ~ (g/g_max)^2. Returns bin-center
    fractions; 'count' holds the raw histogram. The chunks run on up to
    `workers` threads, by default one per CPU this process may use; the
    counts are the same for any number of them.

    Each chunk takes x, y and z from one draw of its stream. A float32 cos
    screens each sample's bin, and the samples it leaves within
    SCREEN_MARGIN of a bin edge are binned from the float64 cos, so the
    counts are those of binning the float64 PL with `np.histogram`.
    """
    if samples < 1000:
        raise ValidationError("need at least 1000 samples for a stable histogram")
    if bins < 2:
        raise ValidationError("need at least 2 bins")
    _check_seed(seed)
    integral = isinstance(workers, (int, np.integer)) and not isinstance(workers, bool)
    if workers is not None and not (integral and workers >= 1):
        raise ValidationError(f"workers must be a positive integer, got {workers!r}")
    edges = np.linspace(0.0, 1.0, bins + 1)
    tol = bins * SCREEN_MARGIN

    def draw(chunk):
        cid, start, stop = chunk
        m = stop - start
        # random(m) and two uniform(-1, 1, m) in one draw: uniform is -1 + 2 r,
        # exact for every r = k 2^-53, so the scaled draw holds the same bits
        u = _stream(seed, cid).random(3 * m)
        x, y, z = u[:m], u[m:2 * m], u[2 * m:]
        yz = u[m:]
        yz *= 2.0
        yz -= 1.0
        x *= 2.0 * math.pi  # axial phase: x in units of lambda_eff, one period
        np.square(y, out=y)  # transverse, units of the waist
        y += np.square(z, out=z)
        e = np.exp(np.negative(y, out=y), out=y)
        # the screen: the float32 PL in units of a bin, plus tol, so that a
        # value within tol of an edge, on either side, leaves s - trunc(s)
        # below 2 tol
        s = x.astype(np.float32)
        np.abs(np.cos(s, out=s), out=s)
        np.multiply(s, e, out=s, casting="same_kind")
        np.square(s, out=s)
        s *= bins
        s += tol
        k = z.view(np.int64)  # z is spent: the bins go in its place
        k[:] = s
        # exact in float32, as k truncates a float32
        np.subtract(s, k, out=s, dtype=np.float32, casting="unsafe")
        near = np.flatnonzero(s < 2.0 * tol)
        if near.size:
            g = np.abs(np.cos(x[near]))
            g *= e[near]
            k[near] = _edge_bins(np.square(g, out=g), edges)
        return np.bincount(k, minlength=bins)

    jobs = [partial(draw, chunk) for chunk in _chunked_indices(samples)]
    hist = np.sum(_run_jobs(jobs, _cpu_count() if workers is None else workers), axis=0)
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
