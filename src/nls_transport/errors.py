"""Exception types shared across the package."""


class NlsTransportError(Exception):
    """Base class for all package errors."""


class GridTooSmall(NlsTransportError):
    """Collocation grid cannot represent the requested product exactly."""


class TruncationExceedsAmbient(NlsTransportError):
    """Requested frequency cutoff exceeds the state's ambient truncation."""


class NonFiniteState(NlsTransportError):
    """A coefficient became NaN or Inf during evolution."""


class MissingCutoff(NlsTransportError):
    """Operation requires a cutoff radius but none was configured."""


class BoundViolated(NlsTransportError):
    """A monitored a-priori bound failed; signals integrator trouble."""


class ConfigInvalid(NlsTransportError):
    """Experiment configuration failed validation; message names the key."""
