"""numpy, imported at its first use rather than with the package.

The package's modules take ``np`` from here, and quadrature the array type
of its dispatch, ``ndarray``, so that ``import atomdecoh`` and the work
that needs no array (``check_conditions``, ``atomdecoh conditions``) never
import numpy, about two thirds of a cold import. Both names start as
stand-ins. The first attribute read from ``np`` imports numpy and rebinds,
in every loaded module of the package, each global bound to a stand-in to
the real object: ``np`` to the numpy module and ``ndarray`` to
numpy.ndarray. From then on ``np.x`` is a plain global lookup, as after
``import numpy as np``. No value is of the stand-in ``ndarray``, so an
exact type test against it is false until then.
"""

from __future__ import annotations

import sys


class ndarray:
    """numpy.ndarray's place until numpy is loaded; no value is of it."""


class _Deferred:
    """numpy's place until its first use."""

    __slots__ = ()

    def __getattr__(self, name: str):
        return getattr(load(), name)


np = _Deferred()


def load():
    """Import numpy, rebind the stand-ins wherever a module of the package
    bound them, this one included, and return numpy. Rebinding is
    idempotent, so a second call changes nothing."""
    import numpy

    stand_in, stand_in_array = np, ndarray
    prefix = __package__ + "."
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith(prefix):
            continue
        names = vars(module)
        for key, value in list(names.items()):
            if value is stand_in:
                names[key] = numpy
            elif value is stand_in_array:
                names[key] = numpy.ndarray
    return numpy


def bind_if_imported() -> None:
    """load(), if numpy is imported but the stand-ins are still in place: a
    caller may pass an array made before the package first used numpy."""
    if type(np) is _Deferred and "numpy" in sys.modules:
        load()
