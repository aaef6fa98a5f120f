"""Exception hierarchy shared by all snrloss modules.

Every exception carries a short machine-readable ``code`` so the CLI can
surface failures in reports without parsing messages.
"""


class SnrLossError(Exception):
    code = "error"


class NotPositiveDefinite(SnrLossError):
    code = "not_positive_definite"


class NoConvergence(SnrLossError):
    code = "no_convergence"


class DegenerateQ(SnrLossError):
    code = "degenerate_q"


class InsufficientSamples(SnrLossError):
    code = "insufficient_samples"


class NonPositiveCumulant(SnrLossError):
    code = "non_positive_cumulant"


class DegenerateCumulants(SnrLossError):
    code = "degenerate_cumulants"


class InvalidFit(SnrLossError):
    code = "invalid_fit"


class OutOfSupport(SnrLossError):
    code = "out_of_support"


class SingularSCM(SnrLossError):
    code = "singular_scm"


class TooFewSamples(SnrLossError):
    code = "too_few_samples"


class ConfigError(SnrLossError):
    code = "config_error"
