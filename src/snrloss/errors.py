"""Exception hierarchy shared by all snrloss modules.

Every exception carries a short machine-readable ``code`` so the CLI can
surface failures in reports without parsing messages.

A check made on a stack (matrices, vectors or numbers with a leading
realization axis) passes its mask of failing rows as ``failed``, and the
error's ``rows`` holds their indices, flattened over the stack axes.
``rows`` is None for a failure every row shares, such as
:class:`InsufficientSamples` from (N, K), and for a check on a single item
(a 0-d mask).
"""

import numpy as np


class SnrLossError(Exception):
    code = "error"

    def __init__(self, *args, failed=None):
        super().__init__(*args)
        self.rows = np.flatnonzero(failed) if np.ndim(failed) else None


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
