"""Compact-model simulator for a self-rectifying ferroelectric memristor.

The package splits into six layers:

* conduction: static two-channel I-V model, calibration to figures of merit
* device: polarization state, pulse updates, DC hysteresis, retention
* extraction: channel fits, mechanism discrimination, level statistics
* crossbar: passive-array network solve, read/write schemes, sneak margins
* inference: differential weight mapping and analog matrix products
* cli / config: reproducible command-line studies driven by INI files

Each layer's __all__ is its public list, and the package re-exports it.

Layers load on first use. ``import ftjsim`` binds each layer as a lazy
module (``importlib.util.LazyLoader``) and runs a layer's code on the first
attribute access to it, so a process that only reads arrays never runs
``config``, ``extraction`` or ``inference``. Each lazy layer is in
``sys.modules`` from the start, so code that looks a layer up there, as the
benchmark's tracer (perfbench/tracer.py) does, finds it before its first
use. No name is in two layers' __all__. A re-exported name,
``ftjsim.build_crossbar``, is searched for in import order, so a name of
conduction, device, crossbar or inference loads that layer and the layers
it imports alone. ``dir(ftjsim)``, ``from ftjsim import *`` and the tracer
read every layer's __all__ and so load every layer.
"""

import os as _os
import sys as _sys
from importlib import util as _util

__version__ = "0.1.0"

# The import graph's order: each of the first four imports every layer
# before it, so searching for one of their names loads no other layer.
_LAYERS = ("conduction", "device", "crossbar", "inference", "extraction",
           "config")


def _lazy(layer: str):
    spec = _util.find_spec(f"{__name__}.{layer}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


conduction, device, crossbar, inference, extraction, config = map(_lazy,
                                                                  _LAYERS)


def _public() -> list[str]:
    """Every layer's __all__, in layer order."""
    return [name for layer in _LAYERS for name in globals()[layer].__all__]


def __getattr__(name: str):
    if name == "__all__":
        # what `from ftjsim import *` binds: the layers and their names
        return [*_LAYERS, "constants", *_public()]
    # `from ftjsim import cli` asks here before it imports a submodule,
    # which no layer exports: answer without loading the layers
    if not _os.path.isfile(_os.path.join(__path__[0], f"{name}.py")):
        for layer in _LAYERS:
            module = globals()[layer]
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    public = _public()  # loads every layer, and so binds constants
    return sorted({*globals(), *public})
