"""Exception types shared across the toolkit.

Everything raised for malformed user input derives from :class:`InputError`
so the CLI can map it to exit code 2; anything else is an internal failure.
"""


class PvsevalError(Exception):
    """Base class for all toolkit errors."""


class InputError(PvsevalError):
    """Bad user-supplied input (files, parameters, schemas)."""


# nifti parsing / writing

class TooShortError(InputError):
    """Fewer bytes than a complete header."""


class BadHeaderError(InputError):
    """Header fields violate the format (sizeof_hdr, dim, pixdim, vox_offset)."""


class BadMagicError(InputError):
    """Magic bytes are neither 'n+1' nor 'ni1'."""


class UnsupportedFormatError(InputError):
    """Recognized but out-of-scope format (NIfTI-2, dual-file pairs, dim > 3)."""


class UnsupportedDatatypeError(InputError):
    """Datatype code outside the supported set."""


class InconsistentBitpixError(InputError):
    """bitpix does not match the datatype code."""


class TruncatedDataError(InputError):
    """File ends before dim[1..3] voxels worth of data."""


class RangeOverflowError(InputError):
    """Voxel value not representable in the requested on-disk datatype."""


# mask algebra / metrics

class DimMismatchError(InputError):
    """Two volumes do not share a grid."""


class LengthMismatchError(InputError):
    """Paired sequences differ in length."""


class EmptyInputError(InputError):
    """An operation that needs at least one element got none."""


class EmptyMaskError(InputError):
    """Mask has no foreground voxels."""


class EmptyShellError(InputError):
    """Dilation ring is empty (mask saturates the grid)."""


# statistics

class AllZeroDifferencesError(PvsevalError):
    """Every paired difference is zero; the signed-rank test is undefined."""


class OutOfRangeError(InputError):
    """A p-value outside (0, 1]."""


class ZeroRankSumError(PvsevalError):
    """w_plus + w_minus == 0; rank-biserial is undefined."""


class NoCommonSubjectsError(InputError):
    """The two per-subject reports share no subject ids."""


# harness

class TooFewSitesError(InputError):
    """Leave-one-site-out needs at least two sites."""


class EmptyManifestError(InputError):
    """Manifest contains no subjects."""


# phantom

class InfeasiblePackingError(InputError):
    """Could not place the requested tubes with the required clearance."""


class BadParameterError(InputError):
    """Perturbation or generator parameter outside its valid range."""
