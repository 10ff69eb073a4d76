"""Named example instances shared across the suite.

The squares quartic x^2y^2 + y^2z^2 + x^2z^2 recurs everywhere: tau = m at
every prime, so it exercises the sharp-bound machinery end to end.
"""

from fsing.frobenius import CompleteIntersection, PackedForm, TauClass, split_layout
from fsing.invariants import AnalysisReport
from fsing.ring import RingDescriptor, parse_polynomial

SQUARES_QUARTIC = "x^2*y^2 + y^2*z^2 + x^2*z^2"


def ring(p, names="xyz"):
    return RingDescriptor(p, tuple(names))


def poly(text, r):
    return parse_polynomial(text, r)


def packed(h):
    """The form h on the packed keys frobenius_root_principal and
    groups_in_root read."""
    r = h.ring
    split = split_layout(r.nvars, h.degree() or 0, r.p)
    return PackedForm(r, split, {split.pack(m): c for m, c in h.terms.items()})


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
