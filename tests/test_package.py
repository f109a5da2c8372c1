"""Package namespace: ``atombath`` exports exactly its modules' ``__all__`` lists."""

import collections

import atombath
from atombath import coefficients, correlations, dynamics, entanglement, specfun

MODULES = (coefficients, correlations, dynamics, entanglement, specfun)


def test_package_exports_each_module_name_once_and_as_that_module_object():
    # a name listed by two modules would be silently shadowed by the later
    # star import, so the concatenation must not repeat any name
    counts = collections.Counter(name for mod in MODULES for name in mod.__all__)
    assert [name for name, k in counts.items() if k > 1] == []
    assert atombath.__all__ == [name for mod in MODULES for name in mod.__all__]
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(atombath, name) is getattr(mod, name), (mod.__name__, name)
