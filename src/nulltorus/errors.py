"""Exception taxonomy shared across the package.

Every error carries a human-readable message with the offending values;
``Inconclusive`` additionally carries the measured quantity so callers (and
the CLI, which maps it to exit code 2) can report it as data.
"""


class NullTorusError(Exception):
    """Base class for all package-specific errors."""


class DegenerateMetric(NullTorusError):
    """Metric coefficients fail ``AC - B^2 < 0`` (or a sampled λ vanishes)."""


class WrongFamily(NullTorusError):
    """An operation was applied to a metric family outside its contract."""


class UnsupportedFamily(WrongFamily):
    """The operation is well-defined but not implemented for this family."""


class NotTransverse(NullTorusError):
    """The requested null family is nowhere transverse to both axes."""


class StepTooLarge(NullTorusError):
    """Fixed-step integration became unstable (per-step displacement > 0.25)."""


class DenseFlow(NullTorusError):
    """A closed-line-only operation met a certified-dense line."""


class NotClosed(NullTorusError):
    """Holonomy of a closed line was requested on a non-closed curve."""


class FrameUndefined(NullTorusError):
    """No smooth orthonormal frame is available at the requested point."""


class NotXTrivial(NullTorusError):
    """Spin transport around the cylinder's closed lines is nontrivial."""


class NotHarmonic(NullTorusError):
    """The field's kernel residual exceeds tolerance for the claimed equation."""


class NotSCF(NullTorusError):
    """No semi-conformal-flatness certificate is available for the family.

    ``obstruction`` is the worst offending loop integral of the divergence
    along a closed null line (infinite where the lines off a flat zero
    accumulate on it); ``location`` a point (x1, x2) of that line, when
    known.
    """

    def __init__(self, message: str, obstruction: float | None = None,
                 location: tuple[float, float] | None = None):
        super().__init__(message)
        self.obstruction = obstruction
        self.location = location


class ConfigError(NullTorusError):
    """Malformed CLI/JSON configuration."""


class Inconclusive(NullTorusError):
    """A numeric test landed between its accept and reject thresholds.

    Carries ``measured`` and the ``(accept, reject)`` band so reports can
    embed the evidence instead of a bare failure.
    """

    def __init__(self, message: str, measured: float | None = None,
                 band: tuple[float, float] | None = None):
        super().__init__(message)
        self.measured = measured
        self.band = band
