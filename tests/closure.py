"""Commutator closure of a family of presented derivations, kept in the
tests as a check of the ansatz families the models ship."""

import itertools

from ncham.cartan import check_consistency
from ncham.linalg import ExactLinearSystem


def commutator_closure(basis):
    """Status of [theta_i, theta_j] for all i < j of presented derivations.

    A commutator outside the span of the basis still counts as closed
    when it passes the consistency check: the ambient space is infinite
    dimensional and the basis is a truncation.
    """
    cols = [theta.coordinates() for theta in basis]
    system = ExactLinearSystem(cols)
    out = []
    for i, j in itertools.combinations(range(len(basis)), 2):
        com = basis[i].commutator(basis[j])
        if com.is_zero() or system.solve(com.coordinates()) is not None:
            out.append((i, j, "in-span"))
        elif check_consistency(com).ok:
            out.append((i, j, "consistent-beyond-truncation"))
        else:
            out.append((i, j, "INCONSISTENT"))
    return out
