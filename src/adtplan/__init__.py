"""Optimal measurement-time planning for accelerated degradation tests.

Degradation paths follow a linear mixed-effects model with a product
structure between a stress basis and a time basis, both on standardized
[0, 1] regions.  The package computes failure-time quantiles induced by the
paths, c-optimal repeated-measures time plans on a uniform grid with a cap
on the weight each time point may carry, closed-form product designs for
destructive (single measurement) testing, and sensitivity sweeps of those
plans against misspecified parameters.

Each library module declares its public names in its own ``__all__``; the
package re-exports all of them.
"""

from . import criteria, destructive, errors, failure_time, model, scenario, sweeps, timeplan
from .criteria import *
from .destructive import *
from .errors import *
from .failure_time import *
from .model import *
from .scenario import *
from .sweeps import *
from .timeplan import *

__version__ = "0.1.0"

__all__ = [
    *criteria.__all__,
    *destructive.__all__,
    *errors.__all__,
    *failure_time.__all__,
    *model.__all__,
    *scenario.__all__,
    *sweeps.__all__,
    *timeplan.__all__,
]
