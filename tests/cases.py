"""Named example instances shared across the suite.

The squares quartic x^2y^2 + y^2z^2 + x^2z^2 recurs everywhere: tau = m at
every prime, so it exercises the sharp-bound machinery end to end.
"""

from fsing.frobenius import CompleteIntersection, TauClass
from fsing.invariants import AnalysisReport
from fsing.ring import RingDescriptor, parse_polynomial

SQUARES_QUARTIC = "x^2*y^2 + y^2*z^2 + x^2*z^2"


def ring(p, names="xyz"):
    return RingDescriptor(p, tuple(names))


def poly(text, r):
    return parse_polynomial(text, r)


def hypersurface(p, text, names="xyz"):
    r = ring(p, names)
    return CompleteIntersection(r, (poly(text, r),))


def squares_ci(p):
    return hypersurface(p, SQUARES_QUARTIC)


def diagonal_ci(p, k, names="xyz"):
    r = ring(p, names)
    return hypersurface(p, " + ".join(f"{v}^{k}" for v in r.variables), names)


def report_from_json(data):
    """The AnalysisReport whose to_json_dict() is data; the report stores
    reg_s_mod_tau once, as ell."""
    assert data["reg_s_mod_tau"] == data["ell"]
    fields = {k: v for k, v in data.items() if k != "reg_s_mod_tau"}
    return AnalysisReport(**dict(fields, tau_class=TauClass(data["tau_class"])))
