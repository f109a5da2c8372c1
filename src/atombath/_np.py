"""numpy, imported on the first attribute read (``from . import _np as np``).

Importing the package therefore loads no numpy: only an oracle or a
state-matrix call does.  Each attribute read is kept in this module's
globals, so later reads are plain module-dict hits.
"""


def __getattr__(name: str):
    # dunders (an import's __path__ probe, inspect's __wrapped__) are refused unimported
    if name.startswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy

    value = globals()[name] = getattr(numpy, name)
    return value
