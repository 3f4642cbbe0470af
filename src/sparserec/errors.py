"""Exception types shared across the toolkit.

Everything raised on purpose derives from SparserecError so the CLI can
turn any declared failure into a nonzero exit with a one-line message.
"""


class SparserecError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(SparserecError):
    """Vectors or models with incompatible feature dimensions."""


class NonFiniteValue(SparserecError):
    """A NaN or infinity, or values too large to square and sum in float64,
    where finite data is required."""


class EmptyDataset(SparserecError):
    """An operation that needs samples received none."""


class MissingClass(SparserecError):
    """An enrolment class index has no samples."""


class ZeroNormSample(SparserecError):
    """A zero vector cannot be l2-normalized."""


class InsufficientSamples(SparserecError):
    """Too few samples to fit the requested model."""


class KTooLarge(SparserecError):
    """Requested component count exceeds what the data can support."""


class DegenerateData(SparserecError):
    """Data carries no variance to decompose."""


class SingularSystem(SparserecError):
    """The unregularized collaborative system is rank-deficient."""


class DegenerateAugmentation(SparserecError):
    """Both coefficient vectors vanished; no representation exists."""


class UnknownClass(SparserecError):
    """A class index outside the enrolled class space."""


class DegenerateScoreSet(SparserecError):
    """Metrics need at least one genuine and one impostor score."""


class InvalidParameters(SparserecError):
    """Parameter values outside their documented domain."""


class ConfigError(SparserecError):
    """Malformed configuration file or bundle manifest, or a bad configuration key or value."""


class MalformedLine(SparserecError):
    """A CSV line that does not parse."""


class InconsistentBundle(SparserecError):
    """A model bundle whose files disagree with its manifest or each other."""


class FeatureFileError(SparserecError):
    """Base class for binary feature/model file problems."""


class BadMagic(FeatureFileError):
    """File does not start with the expected magic bytes."""


class VersionMismatch(FeatureFileError):
    """File format version is not supported."""


class TruncatedFile(FeatureFileError):
    """File ended before the declared payload was complete."""


class TrailingData(FeatureFileError):
    """File holds bytes beyond the declared payload."""


class BadEncoding(FeatureFileError):
    """Bytes that are not valid UTF-8 where text is expected (a stored sample
    id, a CSV, a config file or a bundle manifest)."""
