"""Exception hierarchy. Every failure mode the kernels can signal has a
dedicated class so callers can react without string matching."""


class DulacKitError(Exception):
    """Base class for all library errors."""


# --- series -----------------------------------------------------------------

class OrderExhausted(DulacKitError):
    """A truncated series ran out of coefficients for the requested operation."""


class DivisionByNonUnit(DulacKitError):
    """Series division requires the divisor to have a nonzero constant term."""


class NonpositiveLambda(DulacKitError):
    """The scale derivative is only defined for positive lambda."""


# --- family -----------------------------------------------------------------

class NoRealRoot(DulacKitError):
    """Root tracking found no real root on the probe grid."""


class BranchAmbiguous(DulacKitError):
    """Two real root branches coincide to the computed truncation order,
    or the symbolic branch disagrees with numeric tracking."""


class BranchNotFound(DulacKitError):
    """The Newton-polygon iteration stalled, produced no real branch, or
    left the float range."""


class NotDivisible(DulacKitError):
    """The shifted family is not divisible by s: the branch is not a root."""


class DegenerateQ(DulacKitError):
    """Q(0, e) vanishes identically; the tracked root is not a simple one."""


class Inconclusive(DulacKitError):
    """Grid positivity certificate margin not met; retry with a larger grid."""

    def __init__(self, msg, theta=None, min_value=None, margin=None):
        super().__init__(msg)
        self.theta = theta
        self.min_value = min_value
        self.margin = margin


# --- expansion --------------------------------------------------------------

class NonUnitV(DulacKitError):
    """Some shifted V_j has a vanishing constant term; the coefficient
    kernel divides by it."""


class ContinuityViolation(DulacKitError):
    """Left/right coefficient limits at eps=0 differ beyond tolerance."""


class TailUnbounded(DulacKitError):
    """Mode summation has no decay certificate and the mode list is not finite."""


# --- oracle -----------------------------------------------------------------

class QuadratureFailure(DulacKitError):
    """Adaptive quadrature exhausted its subdivision budget above tolerance."""


class StepSizeUnderflow(DulacKitError):
    """ODE integrator could not advance."""


class ToleranceNotMet(DulacKitError):
    """ODE integrator finished without reaching the requested tolerance."""


# --- loud -------------------------------------------------------------------

class OnSection(DulacKitError):
    """Chart transform evaluated on its singular section (v=0 or w=0)."""


class BranchCut(DulacKitError):
    """Fractional power evaluated at a non-positive base."""


class NegativeG(DulacKitError):
    """Normal coordinates need g(z,w) > 0."""


class PoleAtNonPositiveInteger(DulacKitError):
    """Gamma function evaluated at a pole."""


class EscapedAnnulus(DulacKitError):
    """Orbit left the period annulus; the starting point was invalid."""


class EventMissed(DulacKitError):
    """Section crossing not detected within the integration budget."""


class OutsideAtlas(DulacKitError):
    """The period integration would start past a chart switch of its atlas."""
