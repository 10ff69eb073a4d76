"""Frobenius and F-singularity invariants of graded complete intersections
over prime fields: Fedder's test, the minimal ideal tau, sharp injectivity
degree bounds for the Frobenius action on top local cohomology, and explicit
degreewise verification of those bounds by linear algebra over F_p.
"""
