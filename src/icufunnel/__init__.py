"""Feedback-controlled epidemic intervention toolkit.

Simulates a five-compartment outbreak model with a population-response
state under a two-threshold relay intervention policy, verifies the
admissibility and feasibility conditions behind the ICU-capacity
guarantee, and probes their robustness to scenario perturbations.
"""

from . import analysis, constants, controller, model, simulator
from .analysis import *
from .constants import *
from .controller import *
from .model import *
from .simulator import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += model.__all__
__all__ += constants.__all__
__all__ += controller.__all__
__all__ += simulator.__all__
__all__ += analysis.__all__
