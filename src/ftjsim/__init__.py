"""Compact-model simulator for a self-rectifying ferroelectric memristor.

The package splits into six layers:

* conduction: static two-channel I-V model, calibration to figures of merit
* device: polarization state, pulse updates, DC hysteresis, retention
* extraction: channel fits, mechanism discrimination, level statistics
* crossbar: passive-array network solve, read/write schemes, sneak margins
* inference: differential weight mapping and analog matrix products
* cli / config: reproducible command-line studies driven by INI files

Each layer's __all__ is its public list, and the package re-exports it.
"""

from .conduction import *
from .config import *
from .crossbar import *
from .device import *
from .extraction import *
from .inference import *

__version__ = "0.1.0"
