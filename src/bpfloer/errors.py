"""Exception types shared across the package."""


class BPFloerError(Exception):
    """Base class for all package errors."""


class NonRationalResult(BPFloerError):
    """A cyclotomic reduction left a nonrational value (corrupted table data)."""


class DecompositionFailure(BPFloerError):
    """A tensor product failed to decompose with nonnegative integer multiplicities."""


class GraphShapeError(BPFloerError):
    """An adjacency matrix is not of the expected extended Dynkin shape."""


class Unsolvable(BPFloerError):
    """No integral solution of the representation-ring equation exists."""


class NotDynkin(BPFloerError):
    """A graph component is not of simply-laced ADE type."""


class LabelMismatch(BPFloerError):
    """An edge label 2*dim/|G'| came out nonintegral, or the graphical
    deletion oracle's H differs from the algebraic solution."""


class OracleMismatch(BPFloerError):
    """The literal bar construction disagrees with the double-complex model."""


class TriangleViolation(BPFloerError):
    """The cone long exact sequence failed in a safe interior degree."""


class WrongFlavor(BPFloerError):
    """An operation was invoked for a flavor it does not apply to."""


class NonDegeneration(BPFloerError):
    """A spectral sequence kept producing differentials past the guard page."""


class FreenessFailure(BPFloerError):
    """An E-infinity column has U-torsion, so the extension step is invalid."""


class SplittingViolation(BPFloerError):
    """The norm-vanishing / splitting accounting failed."""
