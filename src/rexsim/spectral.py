"""Numpy-only numerics shared by the fitters: spectra, peak finding, line fit."""

import math

import numpy as np

from .errors import FitError, ValidationError


def modulation_spectrum(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-sided amplitude spectrum of a uniformly sampled signal.

    Subtracts the mean and applies a Hann window (sidelobes of a strong line
    then stay below a few percent, so thresholded peak sets are
    meaningful). Returns (frequencies, amplitudes).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 8:
        raise ValidationError("need at least 8 aligned samples")
    steps = np.diff(x)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValidationError("spectrum requires a uniform grid")
    signal = (y - np.mean(y)) * np.hanning(y.size)
    amplitude = np.abs(np.fft.rfft(signal))
    frequency = np.fft.rfftfreq(signal.size, steps[0])
    return frequency, amplitude


def interior_maxima(a: np.ndarray) -> np.ndarray:
    """Indices of interior local maxima of a 1-d array, ascending.

    A sample counts when it rises above its left neighbour and does not fall
    below its right one, so a plateau counts once, at its left end. The two
    boundary samples never count.
    """
    a = np.asarray(a)
    idx = np.arange(1, a.size - 1)
    return idx[(a[idx] > a[idx - 1]) & (a[idx] >= a[idx + 1])]


def spectral_peaks(
    frequency: np.ndarray, amplitude: np.ndarray, rel_threshold: float = 0.1
) -> np.ndarray:
    """Frequencies of interior local maxima above a fraction of the strongest.

    Excluding the boundary bins discards the DC foot of decaying baselines.
    """
    local_max = interior_maxima(amplitude)
    if local_max.size == 0:
        raise FitError("spectrum has no interior peaks")
    keep = amplitude[local_max] >= rel_threshold * np.max(amplitude[local_max])
    return frequency[local_max[keep]]


def dominant_beat(x: np.ndarray, y: np.ndarray) -> float:
    """Frequency of the strongest interior spectral peak of a signal."""
    return float(spectral_peaks(*modulation_spectrum(x, y), rel_threshold=1.0)[0])


def line_fit(
    x: np.ndarray, y: np.ndarray, through_origin: bool = False
) -> tuple[float, float, float, float]:
    """Least-squares line y = slope x + intercept.

    Returns (slope, intercept, slope standard error, residual rms). With
    ``through_origin`` the intercept is fixed at 0. The standard error uses
    the residual variance over n minus the number of fitted parameters.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.vstack([x] if through_origin else [x, np.ones_like(x)]).T
    coeffs = np.linalg.lstsq(design, y, rcond=None)[0]
    residuals = y - design @ coeffs
    variance = float(np.sum(residuals**2)) / max(x.size - design.shape[1], 1)
    spread = x if through_origin else x - x.mean()
    sxx = float(np.dot(spread, spread))
    slope_se = math.sqrt(variance / sxx) if sxx > 0.0 else math.inf
    intercept = 0.0 if through_origin else float(coeffs[1])
    rms = float(np.sqrt(np.mean(residuals**2)))
    return float(coeffs[0]), intercept, slope_se, rms
