"""Package namespace: ``atombath`` exports exactly its modules' ``__all__`` lists,
and the README's library example runs against them."""

import collections
import contextlib
import io
from pathlib import Path

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


def test_readme_library_example_runs_and_prints_the_direct_calls_values():
    # the fenced python block under "## Library example", run as written
    text = (Path(__file__).parent.parent / "README.md").read_text()
    section = text.split("## Library example\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    detector = atombath.DetectorParams(
        omega=1.0, lam=1.0, velocity=0.5, coupling=atombath.Coupling.DERIVATIVE
    )
    coeffs = atombath.lindblad_coefficients(detector, atombath.BathParams(beta=1.0))
    assert out.getvalue().splitlines() == [
        str(atombath.concurrence_closed_form(coeffs, 0.5)),
        str(atombath.concurrence_closed_form(coeffs, [0.0, 0.5, 1.0])),
        str(atombath.sudden_death_time(coeffs)),
    ]
