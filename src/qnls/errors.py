"""Exception types shared across the verification toolkit."""


class QnlsError(Exception):
    """Base class for all toolkit errors."""


class DegenerateRapidities(QnlsError):
    """Two rapidities coincide; the plane-wave construction degenerates."""


class SizeLimit(QnlsError):
    """Requested object exceeds the configured desk-scale budget."""


class DomainError(QnlsError):
    """Parameter outside the repulsive / convergent domain."""


class SolverDiverged(QnlsError):
    """Newton iteration failed to converge within the iteration budget."""


class PoleAtRapidity(QnlsError):
    """Spectral parameter hit a rapidity pole of the eigenvalue product."""


class RMatrixPole(QnlsError):
    """Intertwiner evaluated at coinciding spectral parameters."""


class CutoffTooSmall(QnlsError):
    """Per-site occupation cutoff too small for a sector-exact check."""


class ConvergenceDomain(QnlsError):
    """Spectral parameter outside the half-plane of convergent integrals."""
