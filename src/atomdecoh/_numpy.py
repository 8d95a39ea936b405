"""numpy, imported at its first use rather than with the package.

The package's modules take ``np`` from here, so that ``import atomdecoh``
and the work that needs no array (``check_conditions``,
``atomdecoh conditions``) never import numpy, about two thirds of a cold
import. ``np`` starts as a stand-in. The first attribute read from it
imports numpy and rebinds, in every loaded module of the package, each
global bound to the stand-in to the numpy module. From then on ``np.x`` is
a plain global lookup, as after ``import numpy as np``.
"""

from __future__ import annotations

import sys


class _Deferred:
    """numpy's place until its first use."""

    __slots__ = ()

    def __getattr__(self, name: str):
        return getattr(load(), name)


np = _Deferred()


def load():
    """Import numpy, rebind the stand-in wherever a module of the package
    bound it, this one included, and return numpy. Rebinding is
    idempotent, so a second call changes nothing."""
    import numpy

    stand_in = np
    prefix = __package__ + "."
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith(prefix):
            continue
        names = vars(module)
        for key, value in list(names.items()):
            if value is stand_in:
                names[key] = numpy
    return numpy
