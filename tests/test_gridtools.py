"""Grid utilities: the circular zero/run finder shared by the flow and
certificate code, trig series, spectral derivatives and the Simpson rule."""

import math

import numpy as np
import pytest

from conftest import count_transforms
from nulltorus import catalog
from nulltorus.gridtools import (PHASE_BLOCK, TrigSeries1, TrigSeries2,
                                 circular_zeros, grid_points, simpson,
                                 spectral_derivative, spectral_derivatives)


@pytest.mark.parametrize("n", (63, 64))
@pytest.mark.parametrize("value", (1.0, -2.7, 0.3 + 0.4j))
def test_constant_grids_differentiate_to_exact_zeros(n, value, monkeypatch):
    """No FFT for a constant grid: exact zeros of the input's kind, where a
    transform leaves rounding noise unless n is a power of two."""
    calls = count_transforms(monkeypatch)
    grid = np.full((n, n), value)
    d1, d2 = spectral_derivatives(grid)
    alone = spectral_derivative(grid, 1)
    assert not calls
    for d in (d1, d2, alone):
        assert d.shape == grid.shape and not np.any(d)
        assert np.iscomplexobj(d) == np.iscomplexobj(grid)
    assert d1 is not d2
    grid[0, 0] += 1e-3
    spectral_derivatives(grid)
    pair = ("fft", "ifft") if np.iscomplexobj(grid) else ("rfft", "irfft")
    assert calls == {**dict.fromkeys(pair, 2), "plane": 4}


def _samples(f, n):
    return f(np.arange(n) / n)


def test_zeros_on_sample_points():
    """analex_sanchez (c = 2) has its G-zeros exactly on the samples."""
    spec = catalog.analex_sanchez()
    G = _samples(spec.G, 8192)
    runs, zeros = circular_zeros(G, 0.0, spec.G, 1e-10)
    assert runs == []
    assert zeros == list(spec.zeros) == [0.0, 0.25, 0.5, 0.75]


def test_sign_flips_bisected():
    f = lambda x: np.cos(2 * np.pi * x)
    runs, zeros = circular_zeros(_samples(f, 10), 0.0, f, 1e-12)
    assert runs == []
    assert zeros == pytest.approx([0.25, 0.75], abs=1e-11)


def test_transversal_zero_on_a_sample_is_not_a_run():
    f = lambda x: np.sin(2 * np.pi * (x - 0.25))
    runs, zeros = circular_zeros(_samples(f, 64), 1e-3, f, 1e-12)
    assert runs == []
    assert zeros == pytest.approx([0.25, 0.75], abs=1e-11)
    g = lambda x: f(x) + 1e-5        # below the level, but not exactly zero
    runs, zeros = circular_zeros(_samples(g, 64), 1e-3, g, 1e-13)
    edge = math.asin(1e-5) / (2 * np.pi)
    assert runs == []
    assert zeros == pytest.approx([0.25 - edge, 0.75 + edge], abs=1e-12)


def test_tangential_zero():
    """A double zero has no sign flip: found on a sample, else only as a run."""
    on = lambda x: np.sin(np.pi * (x - 0.25)) ** 2
    assert circular_zeros(_samples(on, 64), 0.0, on, 1e-12) == ([], [0.25])
    off = lambda x: np.sin(np.pi * (x - 0.3)) ** 2
    assert circular_zeros(_samples(off, 64), 0.0, off, 1e-12) == ([], [])
    runs, zeros = circular_zeros(_samples(off, 64), 1e-2, off, 1e-12)
    assert zeros == []
    edge = math.asin(0.1) / math.pi          # |sin(pi d)|^2 = 1e-2
    assert runs == [pytest.approx((0.3 - edge, 0.3 + edge), abs=1e-11)]


def test_run_wrapping_across_zero():
    f = lambda x: 1.0 - np.cos(2 * np.pi * x)
    edge = math.acos(0.9) / (2 * math.pi)     # f = 0.1
    runs, zeros = circular_zeros(_samples(f, 128), 0.1, f, 1e-12)
    (lo, hi), = runs
    assert lo < 1.0 < hi
    assert runs == [pytest.approx((1 - edge, 1 + edge), abs=1e-11)]
    assert zeros == []


def test_all_true_and_all_false_masks():
    flat = np.full(32, 1e-14)
    assert circular_zeros(flat, 1e-10, lambda x: 1e-14, 1e-10) == (
        [(0.0, 1.0)], [])
    away = lambda x: 2.0 + np.sin(2 * np.pi * x)
    assert circular_zeros(_samples(away, 32), 1e-10, away, 1e-10) == ([], [])


def test_trig_series_blocks_match_one_shot():
    rng = np.random.default_rng(3)
    series = TrigSeries1.from_samples(rng.standard_normal(2048))
    x = rng.random(3 * PHASE_BLOCK // len(series.freqs) + 5)
    one_shot = np.exp(2j * np.pi * np.multiply.outer(x, series.freqs)) \
        @ series.coeffs
    assert np.array_equal(series(x), one_shot)
    assert series(x.reshape(-1, 1)).shape == (x.size, 1)
    # a series with no terms (the oscillating part of a constant) is zero
    _, empty = TrigSeries1.from_samples(np.ones(8)).antiderivative()
    assert np.array_equal(empty(np.linspace(0, 1, 5)), np.zeros(5))


#: (points, modes): one block, then point counts that end mid-block
SERIES2_SIZES = [(7, 5), (5000, 317), (3000, 64), (4097, 200)]


@pytest.mark.parametrize("n_points, n_modes", SERIES2_SIZES)
def test_trig_series2_blocks_match_one_shot(n_points, n_modes):
    rng = np.random.default_rng(n_points)
    k1, k2 = rng.integers(-20, 21, (2, n_modes))
    series = TrigSeries2(rng.standard_normal(n_modes)
                         + 1j * rng.standard_normal(n_modes), k1, k2)
    x1, x2 = rng.random((2, n_points))
    one_shot = np.exp(2j * np.pi * (np.multiply.outer(x1, k1)
                                    + np.multiply.outer(x2, k2))) \
        @ series.coeffs
    rows = PHASE_BLOCK // n_modes
    assert n_points <= rows or n_points % rows != 0
    assert np.array_equal(series(x1, x2), one_shot)
    # broadcast points keep their shape and give the same values
    X1, X2 = grid_points(67)
    grid = series(X1, X2)
    assert grid.shape == X1.shape
    assert np.array_equal(series(X1, X2[0]), grid)
    assert np.array_equal(series(X1.ravel(), X2.ravel()), grid.ravel())


@pytest.mark.parametrize("dtype", (float, complex))
def test_spectral_derivative_is_the_matching_output(dtype):
    rng = np.random.default_rng(5)
    values = rng.standard_normal((24, 21)).astype(dtype)
    if dtype is complex:
        values += 1j * rng.standard_normal((24, 21))
    both = spectral_derivatives(values)
    for axis in (0, 1):
        assert np.array_equal(spectral_derivative(values, axis), both[axis])


def _fft2_derivatives(values):
    """(d/dx1, d/dx2) by one fft2 and an ifft2 per axis, Nyquist zeroed."""
    vhat = np.fft.fft2(values)
    out = []
    for axis in (0, 1):
        n = values.shape[axis]
        k = np.fft.fftfreq(n, 1.0 / n)
        if n % 2 == 0:
            k[n // 2] = 0.0
        d = np.fft.ifft2(vhat * (2j * np.pi * (k[:, None] if axis == 0
                                               else k[None, :])))
        out.append(d.real if np.isrealobj(values) else d)
    return out


@pytest.mark.parametrize("n", (63, 64, 256))
@pytest.mark.parametrize("dtype", (float, complex))
def test_axis_derivatives_match_the_fft2_formula(n, dtype):
    """Each partial by a transform pair along its own axis (rfft/irfft for
    real input) against one fft2 and an ifft2 per partial: within a few
    ulps of pi n max|v|, the size of the derivative of the highest
    resolved mode (measured at most 2.4 ulps, at 256)."""
    X1, X2 = grid_points(n)
    values = np.exp(np.sin(2 * np.pi * X1)
                    + 0.5 * np.cos(2 * np.pi * (X1 + 2 * X2)))
    if dtype is complex:
        values = values * np.exp(2j * np.pi * (3 * X1 - X2))
    got = spectral_derivatives(values)
    scale = np.spacing(np.pi * n * float(np.max(np.abs(values))))
    for g, want in zip(got, _fft2_derivatives(values)):
        assert g.dtype == want.dtype
        assert np.max(np.abs(g - want)) <= 8 * scale


def test_simpson_is_scipys_bitwise():
    """scipy is the reference here only: every odd and even point count,
    on uniform and non-uniform points, gives scipy's bits."""
    from scipy.integrate import simpson as reference
    rng = np.random.default_rng(11)
    differ = []
    for n in range(2, 42):
        y = rng.standard_normal(n)
        uniform = np.linspace(-0.3, 1.7, n)
        ragged = np.cumsum(rng.uniform(0.01, 1.0, n))
        for x in (uniform, ragged):
            ours, theirs = float(simpson(y, x)), float(reference(y, x=x))
            if ours.hex() != theirs.hex():
                differ.append((n, ours, theirs))
    assert not differ


@pytest.mark.parametrize("n", [7, 8, 64])
def test_series_on_grid_is_the_pointwise_sum(n):
    """``on_grid`` sums each series by inverse FFT at x = j/n; modes past
    the grid's band alias onto their bins mod n, as the samples do."""
    rng = np.random.default_rng(5)
    freqs = np.array([0, 1, -3, n - 1, n + 2, -2 * n + 1])
    s1 = TrigSeries1(rng.normal(size=6) + 1j * rng.normal(size=6), freqs)
    x = np.arange(n) / n
    assert np.max(np.abs(s1.on_grid(n) - s1(x))) < 1e-12
    s2 = TrigSeries2(rng.normal(size=6) + 1j * rng.normal(size=6), freqs,
                     np.roll(freqs, 2))
    X1, X2 = grid_points(n)
    assert np.max(np.abs(s2.on_grid(n) - s2(X1, X2))) < 1e-12
