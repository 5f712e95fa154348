"""Squeezed-light simulation toolkit.

Single-mode Gaussian states in shot-noise units, cavity squeezing
spectra, loss and phase-jitter decoherence with parameter fitting,
photon-counting and homodyne detection with seeded sampling, and
interferometer quantum noise budgets.

The package exports the ``__all__`` names of its model modules.  It imports
those modules, and numpy with them, on first use of one of the names, of
``__all__`` or of a submodule, so ``import sqzlab`` alone loads no numpy and
``sqzlab.cli`` can start numpy itself.
"""

import importlib

__version__ = "0.1.0"

_MODELS = ("budget", "decoherence", "detection", "gaussian", "opo")
# Submodules load on attribute access, so ``from sqzlab import cli`` imports
# only the CLI and not the model exports first.
_SUBMODULES = (*_MODELS, "cli", "io")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    # No exported name starts with "_", so a probe for one such as
    # ``__wrapped__`` loads nothing.
    if name == "__all__" or not name.startswith("_"):
        _export()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    _export()
    return sorted({*globals(), *_SUBMODULES})


def _export():
    """Bind the model modules' ``__all__`` names, and ``__all__``, here."""
    models = [importlib.import_module(f".{model}", __name__) for model in _MODELS]
    exports = {name: getattr(model, name) for model in models for name in model.__all__}
    globals().update(exports, __all__=list(exports))
