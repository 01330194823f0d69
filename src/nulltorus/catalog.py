"""Built-in example metrics and the config/shorthand loaders the CLI uses.

``FAMILIES`` maps each family name to its constructor for both spellings
of a metric: the shorthand ``name:1,2,key=value`` and the JSON config
``{"family": name, "params": {...}, "grid_n": n}``.  Text values go through
``_num`` ('3/2', 'sqrt2'); counts must be integers (``integer``) and reals
numbers (``real``).  An argument the constructor rejects (unknown, missing,
stray or non-numeric) is a ConfigError naming the family.  A caller's
``grid_n`` beats the document's; a nested ``inner`` keeps its own.  Every
spec built here is a value, its profiles frozen dataclasses too: equal
parameters in either spelling give equal specs, which share every cache.

Everything here is constructed from a handful of closed-form ingredients so
tests have exact reference values:

* ``analex(c)`` — the closed diagonal metric with
  lam1 = 1 - cos(2*pi*(x1 - x2 + 1/4))/10 and lam2 = lam1 - c.  For c = 2 the
  mean coefficients are exactly (1, -1), lam2 < 0 (the canonical frame's
  signed-slope convention handles this), the X-lines are all closed with
  winding (1, -1), and the Y-family carries two isolated closed lines along
  which null geodesics are incomplete.
* ``analex_sanchez(c)`` — the same surface presented in Sanchez form via
  x = (x1 - x2)/2, y = (x1 + x2)/2 (so E, F, G are functions of x alone and
  G has simple zeros).
* ``rosatau_window(...)`` — tau supported in [0.15, 0.45] with a single
  transverse zero at 0.3; the complement of the support is a resonant strip
  of closed vertical lines, and the line at 0.3 is a closed incomplete
  geodesic.
* ``closed_diagonal_wave(...)`` — lam1 = b1 + a*cos(2*pi*(k x1 + l x2)),
  lam2 = b2 - a*(l/k)*cos(2*pi*(k x1 + l x2)); closed for every (k != 0, l),
  with mean coefficients exactly (b1, b2).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import ConfigError
from .geometry import (ConformalRescale, LeftInvariant, MetricSpec, RosaTau,
                       Sanchez, _DiagonalMetric)
from .gridtools import mollifier, torus_delta

TWO_PI = 2.0 * math.pi


def flat(*, grid_n: int = 256) -> LeftInvariant:
    return LeftInvariant(1, 1, grid_n=grid_n)


def left_invariant(lam1, lam2, *, grid_n: int = 256) -> LeftInvariant:
    for key, lam in (("lam1", lam1), ("lam2", lam2)):
        real(key, lam)          # a number, not a bool; int/Fraction stay exact
    return LeftInvariant(lam1, lam2, grid_n=grid_n)


def _analex_profile(u):
    return np.cos(TWO_PI * (u + 0.25)) / 10.0 - 1.0


@dataclass(frozen=True)
class Analex(_DiagonalMetric):
    """lam1 = -_analex_profile(x1 - x2) and lam2 = lam1 - c: one profile
    evaluation per call serves both coefficients."""

    c: float
    grid_n: int = 256

    def lambdas(self, x1, x2):
        l1 = -_analex_profile(x1 - x2)
        return l1, l1 - self.c

    def lambda_partials(self, x1, x2):
        d = -TWO_PI * np.sin(TWO_PI * (x1 - x2 + 0.25)) / 10.0
        return -d, d, -d, d

    def phase(self):
        return 1, -1


def analex(c: float = 2.0, *, grid_n: int = 256) -> Analex:
    return Analex(real("c", c), grid_n=grid_n)


@dataclass(frozen=True)
class SanchezProfile:
    """E, F or G (``which``) of analex(c) in Sanchez form."""

    c: float
    which: str

    def __call__(self, x):
        fv = _analex_profile(2.0 * x)
        if self.which == "F":
            return -(fv * fv + (fv + self.c) ** 2)
        e = 2.0 * self.c * fv + self.c * self.c
        return e if self.which == "E" else -e


def analex_sanchez(c: float = 2.0, *, grid_n: int = 256) -> Sanchez:
    c = real("c", c)
    # G(x) = 0 where the profile at 2x is -c/2, i.e. where
    # cos(2 pi (2x + 1/4)) = 10(1 - c/2): 2x + 1/4 = +-t (mod 1).
    rhs = 10.0 * (1.0 - c / 2.0)
    ts = (math.acos(rhs) / TWO_PI,) if abs(rhs) < 1 else ()
    zeros = tuple(sorted({round(((sign * t - 0.25 + k) / 2.0) % 1.0, 12)
                          for t in ts for sign in (1, -1) for k in range(4)}))
    return Sanchez(*(SanchezProfile(c, which) for which in "EFG"),
                   zeros=zeros, grid_n=grid_n)


@dataclass(frozen=True)
class WindowProfile:
    """amplitude * window(x) * torus_delta(x, zero), the window being the
    mollifier on mid +- half; with ``derivative``, its x-derivative."""

    mid: float
    half: float
    zero: float
    amplitude: float
    derivative: bool = False

    def __call__(self, x):
        t = np.asarray(torus_delta(x, self.mid) / self.half, dtype=float)
        window, offset = mollifier(t), torus_delta(x, self.zero)
        if not self.derivative:
            return self.amplitude * window * offset
        inside = np.abs(t) < 1.0
        ti, dwindow = t[inside], np.zeros_like(t)
        dwindow[inside] = (window[inside] * (-2.0 * ti / (1.0 - ti * ti) ** 2)
                           / self.half)
        return self.amplitude * (dwindow * offset + window)


def rosatau_window(*, support: tuple[float, float] = (0.15, 0.45),
                   zero: float = 0.3, amplitude: float = 1.0,
                   grid_n: int = 256) -> RosaTau:
    lo, hi = (real("support", end) for end in support)
    args = (0.5 * (lo + hi), 0.5 * (hi - lo), real("zero", zero),
            real("amplitude", amplitude))
    return RosaTau(WindowProfile(*args),
                   dtau=WindowProfile(*args, derivative=True), grid_n=grid_n)


@dataclass(frozen=True)
class Wave(_DiagonalMetric):
    """lam1 = base1 + amp*cos(phase), lam2 = base2 - amp*(l/k)*cos(phase)
    with phase = 2*pi*(k x1 + l x2), evaluated once per call."""

    base1: float
    base2: float
    amp: float
    k: int
    l: int
    grid_n: int = 256

    def lambdas(self, x1, x2):
        c = np.cos(TWO_PI * (self.k * x1 + self.l * x2))
        return (self.base1 + self.amp * c,
                self.base2 - self.amp * (self.l / self.k) * c)

    def lambda_partials(self, x1, x2):
        s = np.sin(TWO_PI * (self.k * x1 + self.l * x2))
        a1, a2 = -self.amp * TWO_PI, self.amp * (self.l / self.k) * TWO_PI
        return (a1 * self.k * s, a1 * self.l * s,
                a2 * self.k * s, a2 * self.l * s)

    def phase(self):
        g = math.gcd(self.k, self.l)
        return self.k // g, self.l // g


def closed_diagonal_wave(base1: float, base2: float, amp: float = 0.1,
                         k: int = 1, l: int = 1, *, grid_n: int = 256) -> Wave:
    k, l = integer("k", k), integer("l", l)
    if k == 0:
        raise ConfigError("closed_diagonal_wave needs k != 0")
    return Wave(real("base1", base1), real("base2", base2), real("amp", amp),
                k, l, grid_n=grid_n)


@dataclass(frozen=True)
class ExpSineFactor:
    """The conformal factor exp(amp * sin(2*pi*(k x1 + l x2) + phase))."""

    amp: float
    k: int
    l: int
    phase: float

    def __call__(self, x1, x2):
        return np.exp(self.amp * np.sin(TWO_PI * (self.k * x1 + self.l * x2)
                                        + self.phase))


def exp_sine_factor(amp: float = 0.3, k: int = 1, l: int = 1,
                    phase: float = 0.0) -> ExpSineFactor:
    return ExpSineFactor(real("amp", amp), integer("k", k), integer("l", l),
                         real("phase", phase))


def conformal(inner: MetricSpec, factor: Callable,
              grid_n: int | None = None) -> ConformalRescale:
    return ConformalRescale(inner, factor, grid_n=grid_n or inner.grid_n)


def conformal_rescale(inner: dict, factor: dict | None = None, *,
                      grid_n: int = 256) -> ConformalRescale:
    """The JSON family: ``inner`` is a metric config, which keeps its own
    ``grid_n``, and ``factor`` holds the keywords of ``exp_sine_factor``."""
    return conformal(from_config(inner), exp_sine_factor(
        **{key: _num(val) for key, val in dict(factor or {}).items()}),
        grid_n=grid_n)


FAMILIES = {"flat": flat, "left_invariant": left_invariant, "analex": analex,
            "analex_sanchez": analex_sanchez, "rosatau": rosatau_window,
            "closed_diagonal": closed_diagonal_wave,
            "conformal_rescale": conformal_rescale}


# ---------------------------------------------------------------------------
# config / shorthand parsing


def _num(value):
    """Parse '3', '3/2', '1.5', 'sqrt2' — exact types where possible; a
    value that is not text (a JSON number) passes through."""
    if not isinstance(value, str):
        return value
    text = value.strip()
    if text == "sqrt2":
        return math.sqrt(2.0)
    if "/" in text:
        return Fraction(text)
    try:
        return int(text)
    except ValueError:
        return float(text)


def integer(key: str, value) -> int:
    """``value`` as an int: an integral number or integer text; a bool or a
    fraction is a ValueError naming ``key``."""
    if isinstance(value, bool) or (isinstance(value, (float, Fraction))
                                   and value % 1):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def real(key: str, value) -> float:
    """``value`` as a float: a number or numeric text; a bool or other text
    is a ValueError naming ``key``."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{key} must be a number, got {value!r}")


def _build(family: str, args, kwargs, grid_n) -> MetricSpec:
    """The table's constructor on parsed values; bad arguments, or a grid
    that is not an integer in [1, 4096], name the family in a ConfigError."""
    try:
        grid_n = integer("grid_n", grid_n)
        if not 1 <= grid_n <= 4096:
            raise ValueError(f"grid_n must lie in [1, 4096], got {grid_n}")
        return FAMILIES[family](
            *map(_num, args), grid_n=grid_n,
            **{key: _num(val) for key, val in dict(kwargs).items()})
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad arguments for metric {family!r}: {exc}") from exc


def from_shorthand(text: str, grid_n: int = 256) -> MetricSpec:
    """Parse CLI shorthand like 'flat', 'left_invariant:1,2', 'analex:c=2'."""
    name, _, argstr = text.partition(":")
    if name not in FAMILIES:
        raise ConfigError(f"unknown metric shorthand {text!r}")
    args, kwargs = [], {}
    for piece in argstr.split(",") if argstr else ():
        key, sep, val = piece.partition("=")
        if sep:
            kwargs[key.strip()] = val
        else:
            args.append(piece)
    return _build(name, args, kwargs, grid_n)


def from_config(config: dict, grid_n: int | None = None) -> MetricSpec:
    """Build a metric from the JSON config schema {family, params, grid_n};
    a given ``grid_n`` overrides the document's."""
    if not isinstance(config, dict) or "family" not in config:
        raise ConfigError("metric config must be an object with a 'family' key")
    family = config["family"]
    if not isinstance(family, str) or family not in FAMILIES:
        raise ConfigError(f"unknown metric family {family!r}")
    return _build(family, (), config.get("params", {}),
                  grid_n or config.get("grid_n", 256))


def load_metric(source: str | dict, grid_n: int | None = None) -> MetricSpec:
    """Accept shorthand text, a JSON object, or a path to a JSON file;
    ``grid_n`` overrides a JSON document's own."""
    if isinstance(source, dict):
        return from_config(source, grid_n)
    if not isinstance(source, str):
        raise ConfigError(f"metric must be text or an object, got {source!r}")
    text = source.strip()
    try:
        if text.startswith("{"):
            return from_config(json.loads(text), grid_n)
        if text.endswith(".json"):
            with open(text) as fh:
                return from_config(json.load(fh), grid_n)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read metric {text!r}: {exc}") from exc
    return from_shorthand(text, grid_n=grid_n or 256)
