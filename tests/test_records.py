"""The plain record types: constructors, defaults, value semantics, and an
import of the command line that generates no classes."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ncham
from ncham.algebra import (ConfluenceReport, CriticalPair, GeneratorSymbol,
                           Letter, RewriteRule, RuleSpec)
from ncham.cartan import ConsistencyCheck, ConsistencyReport
from ncham.symplectic import (FlowSeries, HamiltonianSolution, KernelReport,
                              NotHamiltonian, SymplecticForm)


def test_fresh_interpreter_import_loads_no_dataclasses_or_inspect():
    """Measured against the modules the interpreter had loaded before the
    import, so that a `site` which loads either does not fail the test."""
    code = ("import sys\n"
            "bare = set(sys.modules)\n"
            "import ncham.cli\n"
            "print(' '.join(sorted(set(sys.modules) - bare)))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(ncham.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "ncham.cli" in out
    assert "dataclasses" not in out and "inspect" not in out


VALUES = [(GeneratorSymbol, ("u",), {"invertible": True}),
          (Letter, ("u", -1), {"diff": False}),
          (RuleSpec, (((("v", 1), ("u", 1)),),), {"rhs": ()})]


@pytest.mark.parametrize("cls, args, kwargs", VALUES,
                         ids=[c.__name__ for c, _, _ in VALUES])
def test_value_types_compare_and_hash_by_their_fields(cls, args, kwargs):
    a, b = cls(*args, **kwargs), cls(*args, *kwargs.values())
    assert a == b and hash(a) == hash(b) and a is not b
    assert {a: 1}[b] == 1 and len({a, b}) == 1
    assert a != cls(*args[:-1], "other", *kwargs.values())
    assert a != tuple(args) + tuple(kwargs.values())
    field = cls.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(a, field, "w")
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b == copy.deepcopy(a) == pickle.loads(pickle.dumps(a))


def test_value_types_keep_their_defaults_and_repr():
    assert GeneratorSymbol("u") == GeneratorSymbol("u", False)
    assert Letter("u", 1) == Letter(base="u", exp=1, diff=False)
    assert repr(Letter("u", 1)) == "Letter(base='u', exp=1, diff=False)"
    assert repr(GeneratorSymbol("s1*", invertible=False)) \
        == "GeneratorSymbol(name='s1*', invertible=False)"
    spec = RuleSpec.make([("v", 1), ("u", 1)], [(1, [("u", 1), ("v", 1)])])
    assert spec == RuleSpec(lhs=(("v", 1), ("u", 1)),
                            rhs=((1, (("u", 1), ("v", 1))),))
    assert repr(spec) == ("RuleSpec(lhs=(('v', 1), ('u', 1)), "
                          "rhs=((1, (('u', 1), ('v', 1))),))")


def test_every_record_constructs_positionally_and_by_keyword(torus2):
    rule = RewriteRule((0, 1), {})
    pair = CriticalPair((0, 1), rule, rule, True)
    assert vars_of(pair) == vars_of(CriticalPair(
        word=(0, 1), rule_a=rule, rule_b=rule, joinable=True))
    assert pair.joinable and pair.rule_a is rule
    # a list default is a fresh list per instance
    r1, r2 = ConfluenceReport(), ConsistencyReport()
    assert r1.pairs == [] and r1.pairs is not ConfluenceReport().pairs
    assert r2.checks == [] and r2.checks is not ConsistencyReport().checks
    assert ConfluenceReport([pair]).pairs == [pair]
    assert ConfluenceReport(pairs=[pair]).pairs == [pair]
    check = ConsistencyCheck("apply on v u", 0, True)
    assert vars_of(check) == vars_of(ConsistencyCheck(
        description="apply on v u", residual=0, ok=True))
    assert ConsistencyReport(checks=[check]).ok

    omega = torus2.omega.omega
    form = SymplecticForm(torus2.backend, omega)
    assert vars_of(form) == vars_of(SymplecticForm(backend=torus2.backend,
                                                   omega=omega))
    assert KernelReport(0, []).nonsingular
    assert vars_of(KernelReport(1, [[1]])) == vars_of(
        KernelReport(dimension=1, basis=[[1]]))
    sol = HamiltonianSolution(omega, [Fraction(1)], None)
    assert sol.hamiltonian and vars_of(sol) == vars_of(HamiltonianSolution(
        element=omega, coefficients=[Fraction(1)], vector_field=None))
    verdict = NotHamiltonian(omega, {(1,): 1})
    assert not verdict.hamiltonian and vars_of(verdict) == vars_of(
        NotHamiltonian(element=omega, residual={(1,): 1}))
    series = FlowSeries([omega])
    assert series.coefficient(0) is omega
    assert FlowSeries(coefficients=[omega]).coefficients == [omega]


def vars_of(record):
    return {name: getattr(record, name) for name in record.__slots__}
