"""Spectral utilities on the unit 2-torus grid.

Conventions used throughout the package:

* the N x N grid samples ``x = i/N`` in each coordinate, ``meshgrid`` with
  ``indexing='ij'`` so axis 0 is x1 and axis 1 is x2;
* all sampled fields are 1-periodic in both coordinates (metric coefficients,
  frames, and the stored *periodic representatives* of twisted spinor
  components are all periodic by construction);
* derivatives of grid data are spectral (FFT); pointwise derivatives of
  callables use central differences elsewhere.

Periodic antiderivatives split off the mean: for f(s, y) periodic in s,
``int_0^x f(s, y) ds = x * mean_s f(., y) + P(x, y) - P(0, y)`` with P the
zero-mean Fourier antiderivative.  This is exact for band-limited data and
spectrally accurate for smooth data, which is what keeps downstream residual
checks at the 1e-6 tolerance honest (grid-scale quadrature noise would be
amplified by the spectral derivative in those checks).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

TWO_PI_I = 2j * np.pi
PHASE_BLOCK = 1 << 16     # entries of a series' phase matrix per block
TRIM = 1e-13              # series drop modes below TRIM * their largest


def grid_points(n: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.arange(n) / n
    return np.meshgrid(x, x, indexing="ij")


def _frequency_bins(freqs: np.ndarray, n: int) -> np.ndarray:
    """FFT bin of each integer frequency on an n-point grid."""
    return np.rint(freqs).astype(int) % n


def _in_blocks(evaluate, n_modes: int, *xs: np.ndarray) -> np.ndarray:
    """evaluate(*xs) when its phase matrix has at most PHASE_BLOCK entries;
    otherwise evaluate on flat runs of the broadcast points that each stay
    within that bound, reassembled in the broadcast shape."""
    shape = np.broadcast_shapes(*(x.shape for x in xs))
    rows = max(1, PHASE_BLOCK // max(1, n_modes))
    if math.prod(shape) <= rows:
        return evaluate(*xs)
    flat = [np.broadcast_to(x, shape).ravel() for x in xs]
    parts = [evaluate(*(f[i:i + rows] for f in flat))
             for i in range(0, flat[0].size, rows)]
    return np.concatenate(parts).reshape(shape)


def _constant_derivative(values: np.ndarray) -> Optional[np.ndarray]:
    """Exact zeros, untransformed, for constant values; else None."""
    if not np.all(values == values.flat[0]):
        return None
    return np.zeros(values.shape, float if np.isrealobj(values) else complex)


def _axis_derivative(values: np.ndarray, axis: int) -> np.ndarray:
    """d/dx along ``axis``: one rfft/irfft (fft/ifft) pair, scaled in place."""
    n, real = values.shape[axis], np.isrealobj(values)
    k = np.fft.rfftfreq(n, 1.0 / n) if real else np.fft.fftfreq(n, 1.0 / n)
    if n % 2 == 0:
        k[n // 2] = 0.0
    k = TWO_PI_I * k.reshape((-1,) + (1,) * (values.ndim - 1 - axis))
    spectrum = (np.fft.rfft if real else np.fft.fft)(values, axis=axis)
    spectrum *= k
    if real:
        return np.fft.irfft(spectrum, n, axis=axis)
    return np.fft.ifft(spectrum, axis=axis, out=spectrum)


def spectral_derivatives(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d/dx1, d/dx2) of a periodic grid field, spectrally, each along its
    own axis (exact zeros for a constant field)."""
    zero = _constant_derivative(values)
    if zero is not None:
        return zero, zero.copy()
    return _axis_derivative(values, 0), _axis_derivative(values, 1)


def spectral_derivative(values: np.ndarray, axis: int) -> np.ndarray:
    """d/dx1 (axis 0) or d/dx2 (axis 1) alone, the matching output of
    ``spectral_derivatives``; d/dy of periodic samples v(m/n) on axis 0."""
    zero = _constant_derivative(values)
    return _axis_derivative(values, axis) if zero is None else zero


def _guarded_divide(num, den):
    """num / den, and 0 where den is 0."""
    return np.true_divide(num, den, out=np.zeros_like(den), where=den != 0)


def simpson(y, x) -> float:
    """Composite Simpson rule for samples y at the points x (any spacing).

    The arithmetic is scipy.integrate.simpson's, step for step, so both give
    the same bits: the non-uniform three-point rule on the first N - 1 points
    when N is even (on all N when odd), then Cartwright's correction for the
    last interval; the trapezoid when N = 2.
    """
    y = np.asarray(y)
    h = np.diff(np.asarray(x, dtype=float))
    n = len(y)
    # the 0.0 terms are scipy's zero start value: they turn -0.0 into 0.0
    if n == 2:
        return 0.0 + 0.5 * h[-1] * (y[-1] + y[-2])
    m = n - 1 + n % 2           # points under the three-point rule
    h0, h1 = h[0:m - 2:2], h[1:m - 1:2]
    hsum, hprod = h0 + h1, h0 * h1
    ratio = _guarded_divide(h0, h1)
    total = np.sum(hsum / 6.0 * (
        y[0:m - 2:2] * (2.0 - _guarded_divide(1.0, ratio))
        + y[1:m - 1:2] * (hsum * _guarded_divide(hsum, hprod))
        + y[2:m:2] * (2.0 - ratio)))
    if n % 2:
        return total
    a, b = h[-2, ...], h[-1, ...]   # 0-d arrays: b ** 3 takes numpy's power
    alpha = _guarded_divide(2 * b ** 2 + 3 * a * b, 6 * (b + a))
    beta = _guarded_divide(b ** 2 + 3.0 * a * b, 6 * a)
    eta = _guarded_divide(b ** 3, 6 * a * (a + b))
    return total + (alpha * y[-1] + beta * y[-2] - eta * y[-3]) + 0.0


class TrigSeries1:
    """Finite Fourier series on the circle, evaluable at arbitrary points."""

    def __init__(self, coeffs: np.ndarray, freqs: np.ndarray):
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.freqs = np.asarray(freqs)

    @classmethod
    def from_samples(cls, values: np.ndarray) -> "TrigSeries1":
        n = len(values)
        c = np.fft.fft(np.asarray(values, dtype=complex)) / n
        f = np.fft.fftfreq(n, 1.0 / n)
        keep = np.abs(c) > TRIM * max(np.abs(c).max(), 1e-300)
        keep[0] = True
        return cls(c[keep], f[keep])

    def __call__(self, x) -> np.ndarray:
        """Values at x, in blocks of at most PHASE_BLOCK phase entries."""
        return _in_blocks(self._values, len(self.freqs),
                          np.asarray(x, dtype=float))

    def _values(self, x):
        return np.exp(TWO_PI_I * np.multiply.outer(x, self.freqs)) @ self.coeffs

    def on_grid(self, n: int) -> np.ndarray:
        """Values at x = j/n by one inverse FFT: each coefficient lands on
        its frequency mod n (aliased modes add up, as the samples do)."""
        spectrum = np.zeros(n, dtype=complex)
        np.add.at(spectrum, _frequency_bins(self.freqs, n), self.coeffs)
        return np.fft.ifft(spectrum, norm="forward")

    def antiderivative(self) -> tuple[complex, "TrigSeries1"]:
        """Return (mean, P) with  int_0^x f = mean*x + P(x) - P(0)."""
        mean = complex(self.coeffs[self.freqs == 0].sum())
        osc = self.freqs != 0
        return mean, TrigSeries1(self.coeffs[osc] / (TWO_PI_I * self.freqs[osc]),
                                 self.freqs[osc])


def resolved_series(values: np.ndarray, level: float):
    """(series, |tail|) of n periodic samples, the tail its modes at
    |m| >= n/4, or None (unresolved) where one passes level max|values|."""
    series = TrigSeries1.from_samples(values)
    tail = np.abs(series.coeffs[np.abs(series.freqs) >= len(values) // 4])
    resolved = tail.max(initial=0.0) <= level * np.max(np.abs(values))
    return (series, tail) if resolved else None


class TrigSeries2:
    """Finite 2D Fourier series; modes kept sparse after trimming."""

    def __init__(self, coeffs: np.ndarray, k1: np.ndarray, k2: np.ndarray):
        self.coeffs = np.asarray(coeffs, dtype=complex)   # (M,)
        self.k1 = np.asarray(k1)
        self.k2 = np.asarray(k2)

    @classmethod
    def from_samples(cls, values: np.ndarray) -> "TrigSeries2":
        n0, n1 = values.shape
        c = np.fft.fft2(np.asarray(values, dtype=complex)) / (n0 * n1)
        f0 = np.fft.fftfreq(n0, 1.0 / n0)
        f1 = np.fft.fftfreq(n1, 1.0 / n1)
        K1, K2 = np.meshgrid(f0, f1, indexing="ij")
        keep = np.abs(c) > TRIM * max(np.abs(c).max(), 1e-300)
        keep[0, 0] = True
        return cls(c[keep], K1[keep], K2[keep])

    def __call__(self, x1, x2) -> np.ndarray:
        """Values at broadcast (x1, x2), in blocks of at most PHASE_BLOCK
        phase entries."""
        return _in_blocks(self._values, len(self.coeffs),
                          np.asarray(x1, dtype=float),
                          np.asarray(x2, dtype=float))

    def _values(self, x1, x2):
        shape = np.broadcast_shapes(x1.shape, x2.shape)
        x1 = np.broadcast_to(x1, shape).ravel()
        x2 = np.broadcast_to(x2, shape).ravel()
        phase = np.exp(TWO_PI_I * (np.multiply.outer(x1, self.k1)
                                   + np.multiply.outer(x2, self.k2)))
        return (phase @ self.coeffs).reshape(shape)

    def on_grid(self, n: int) -> np.ndarray:
        """Values on the n x n grid by one inverse FFT (``TrigSeries1.on_grid``
        per axis)."""
        spectrum = np.zeros((n, n), dtype=complex)
        np.add.at(spectrum, (_frequency_bins(self.k1, n),
                             _frequency_bins(self.k2, n)), self.coeffs)
        return np.fft.ifft2(spectrum, norm="forward")

    def antiderivative_x1(self) -> tuple["TrigSeries1", "TrigSeries2"]:
        """(m, P) with  int_0^{x1} f(s, x2) ds = x1*m(x2) + P(x1,x2) - P(0,x2)."""
        zero = self.k1 == 0
        mean = TrigSeries1(self.coeffs[zero], self.k2[zero])
        osc = ~zero
        P = TrigSeries2(self.coeffs[osc] / (TWO_PI_I * self.k1[osc]),
                        self.k1[osc], self.k2[osc])
        return mean, P


def _bisect(inside, out: float, inn: float, tol: float) -> float:
    """Boundary of a predicate between a point where it fails and one where
    it holds, halved until the bracket is narrower than tol."""
    for _ in range(200):
        if abs(inn - out) < tol:
            break
        mid = 0.5 * (out + inn)
        if inside(mid):
            inn = mid
        else:
            out = mid
    return 0.5 * (out + inn)


def circular_zeros(values, level: float, fun, tol: float
                   ) -> tuple[list[tuple[float, float]], list[float]]:
    """Runs of |f| < level and isolated zeros of the 1-periodic ``fun`` f,
    from values[i] = f(i/n).

    A run is a maximal circular stretch of samples below the level, as an
    arc (lo, hi) with hi possibly past 1 ((0, 1) when every sample is
    below), each end bisected on f to ``tol``.  Isolated zeros are exact
    zero samples outside the runs, single samples below the level whose
    neighbours have opposite signs, and sign flips between neighbours
    outside the runs, bisected on f; they come back sorted, in [0, 1).
    """
    f = np.asarray(values, dtype=float)
    n = len(f)
    h = 1.0 / n
    nxt = np.roll(f, -1)
    below = np.abs(f) < level
    # one sample below the level between a sign flip is a transversal zero
    # at (or next to) that sample, not a run
    below &= ~((np.roll(f, 1) * nxt < 0.0) & ~np.roll(below, 1)
               & ~np.roll(below, -1))
    if below.all():
        return [(0.0, 1.0)], []

    def in_run(x):
        return abs(fun(x % 1.0)) < level

    runs: list[tuple[float, float]] = []
    zeros = [float(i / n) for i in np.flatnonzero((f == 0.0) & ~below)]
    for start in np.flatnonzero(below & ~np.roll(below, 1)):
        stop = start + 1
        while below[stop % n]:
            stop += 1
        lo, hi = float(start / n), float((stop - 1) % n / n)
        hi += 1.0 if hi < lo else 0.0
        runs.append((_bisect(in_run, lo - h, lo, tol),
                     _bisect(in_run, hi + h, hi, tol)))
    for i in np.flatnonzero((f * nxt < 0.0) & ~below & ~np.roll(below, -1)):
        a, lo = f[i], float(i / n)
        z = _bisect(lambda x: a * fun(x % 1.0) <= 0, lo, lo + h, tol)
        zeros.append(float(z % 1.0))
    return runs, sorted(zeros)


def mollifier(t) -> np.ndarray:
    """Standard bump exp(-1/(1-t^2)) on |t|<1, rescaled to peak value 1."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


def wrap_unit(x) -> np.ndarray:
    """Representative in [0, 1)."""
    return np.asarray(x, dtype=float) % 1.0


def torus_delta(x, center) -> np.ndarray:
    """Signed distance x - center wrapped to [-1/2, 1/2)."""
    return (np.asarray(x, dtype=float) - center + 0.5) % 1.0 - 0.5
