"""The span tracer of bench/tracing.py against the entry points of ncham.

The tracer patches classes and modules by attribute name, so a method a
class inherits (every derivation type's `apply` comes from `Derivation`)
must still be wrapped on the class named, and put back by `restore`.
"""

import importlib.util
from pathlib import Path

from ncham.bigraded import BigradedForm, MixedDerivation
from ncham.cartan import PresentedDerivation
from ncham.matrixcalc import MatrixDerivation, TensorForm
from ncham.models import torus_calculus
from ncham.polynomials import Poly


def _load_tracing():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def test_every_entry_point_resolves():
    for entry in tracing.ENTRY_POINTS:
        for target in entry.targets:
            owner, attr = tracing._resolve(target)
            assert callable(getattr(owner, attr, None)), target


def test_apply_is_traced_on_the_presented_derivation_only():
    classes = (PresentedDerivation, MatrixDerivation, MixedDerivation)
    before = [cls.apply for cls in classes]
    calc = torus_calculus(2)
    calls = [
        (PresentedDerivation(calc, {"u": calc.gen("u")}), calc.gen("u")),
        (MatrixDerivation.ad([[0, 1], [-1, 0]]), TensorForm.unit(2, 0, 1)),
        (MixedDerivation(1, 0, Poly.x()),
         BigradedForm.from_matrix([[1, 0], [0, 2]])),
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        for theta, a in calls:
            theta.apply(a)
        tracer.active = False
    finally:
        tracer.restore()
    # cartan.apply wraps PresentedDerivation.apply alone, not the
    # Derivation.apply the three types share
    assert tracer.metrics()["cartan.apply.calls"] == 1
    assert all(cls.apply is fn for cls, fn in zip(classes, before))
