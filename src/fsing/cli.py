"""Command-line surface: analyze, witness, verify, batch.

Problem files are flat key = value text: required keys p, vars, gens, with
gens a comma-separated list of polynomial expressions; optional keys max_q,
t_min, t_max.  '#' starts a comment.  Exit codes: 0 success, 2 malformed
input, 3 not a complete intersection, 4 resource cap exceeded, 5 witness
preconditions unmet, 6 an internal self-check failed (a bug).  A batch record
also gives 6 for any other unforeseen error, so one file never stops a batch.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import traceback

from dataclasses import dataclass
from pathlib import Path

from .errors import InternalError, ParseError, RegularSequenceError, ResourceLimit
from .frobenius import CompleteIntersection, TauClass, compute_tau
from .invariants import analyze, isolated_singularity, thmA_bound, thmB_threshold
from .localcoh import DEFAULT_MAX_COLUMNS, kernel_witness, verify_injectivity
from .ring import RingDescriptor, check_characteristic, parse_polynomial

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NOT_CI = 3
EXIT_RESOURCE = 4
EXIT_NO_WITNESS = 5
EXIT_INTERNAL = 6

_KNOWN_KEYS = ("p", "vars", "gens", "max_q", "t_min", "t_max")
_MAX_WINDOW = 20
# the one integer grammar of files and flags, as in gens: int() would also
# take other scripts' decimal digits, underscores and surrounding blanks
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integer(text: str) -> int:
    """The integer text spells in ASCII [+-]?[0-9]+; ValueError otherwise."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)


@dataclass
class ProblemFile:
    ci: CompleteIntersection
    max_q: int | None
    t_min: int | None
    t_max: int | None


def load_problem(path: str) -> ProblemFile:
    entries: dict[str, tuple[str, int, int]] = {}
    text = Path(path).read_text()
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ParseError(f"{path}:{line_no}: expected 'key = value'")
        k = key.strip()
        if k not in _KNOWN_KEYS:
            raise ParseError(f"{path}:{line_no}: unknown key {k!r}")
        if k in entries:
            raise ParseError(f"{path}:{line_no}: duplicate key {k!r}")
        value_col = len(key) + 1 + (len(value) - len(value.lstrip()))
        entries[k] = (value.strip(), line_no, value_col)
    for k in ("p", "vars", "gens"):
        if k not in entries:
            raise ParseError(f"{path}: missing required key {k!r}")

    def int_entry(k):
        value, line_no, _ = entries[k]
        try:
            return _integer(value)
        except ValueError:
            raise ParseError(f"{path}:{line_no}: {k} must be an integer, got {value!r}") from None

    p = int_entry("p")
    try:
        check_characteristic(p)
    except ValueError as e:
        line_no = entries["p"][1]
        raise ParseError(f"{path}:{line_no}: {e}") from None
    names, line_no, _ = entries["vars"]
    try:
        ring = RingDescriptor(p, tuple(s.strip() for s in names.split(",")))
    except ValueError as e:
        raise ParseError(f"{path}:{line_no}: {e}") from None
    gens_value, gens_line, gens_col = entries["gens"]
    forms = []
    offset = 0
    for chunk in gens_value.split(","):
        start = offset + (len(chunk) - len(chunk.lstrip()))
        try:
            forms.append(parse_polynomial(chunk, ring))
        except ParseError as e:
            col = gens_col + start + (e.position or 0) + 1
            raise ParseError(f"{path}:{gens_line}:{col}: {e}") from None
        except ResourceLimit as e:
            # a size cap names the generator it refused
            raise ResourceLimit(f"{path}:{gens_line}:{gens_col + start + 1}: {e}") from None
        offset += len(chunk) + 1
    max_q = int_entry("max_q") if "max_q" in entries else None
    if max_q is not None and max_q < 1:
        line_no = entries["max_q"][1]
        raise ParseError(f"{path}:{line_no}: max_q must be positive, got {max_q}")
    return ProblemFile(
        ci=CompleteIntersection(ring, tuple(forms)),
        max_q=max_q,
        t_min=int_entry("t_min") if "t_min" in entries else None,
        t_max=int_entry("t_max") if "t_max" in entries else None,
    )


def _fmt(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _print_pairs(pairs):
    width = max(len(k) for k, _ in pairs)
    for k, v in pairs:
        print(f"{k.ljust(width)}  {_fmt(v)}")


def cmd_analyze(args) -> int:
    problem = load_problem(args.path)
    report = analyze(problem.ci)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        _print_pairs(list(report.to_json_dict().items()))
    return EXIT_OK


def cmd_witness(args) -> int:
    problem = load_problem(args.path)
    tau_result = compute_tau(problem.ci)
    if tau_result.ell is None:
        print(f"no witness: tau is not m-primary proper ({tau_result.kind.value})", file=sys.stderr)
        if tau_result.kind is TauClass.NON_F_PURE_LOCUS_POSITIVE_DIMENSIONAL:
            gens = ", ".join(str(g) for g in tau_result.tau.groebner())
            print(f"tau = ({gens})", file=sys.stderr)
        return EXIT_NO_WITNESS
    witness = kernel_witness(
        problem.ci, tau_result, max_q=args.max_q or problem.max_q
    )
    payload = dict(witness.to_json_dict(), frobenius_image_is_zero=True)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        _print_pairs(list(payload.items()))
    return EXIT_OK


def cmd_verify(args) -> int:
    problem = load_problem(args.path)
    t_min = args.from_degree if args.from_degree is not None else problem.t_min
    t_max = args.to_degree if args.to_degree is not None else problem.t_max
    if t_min is None or t_max is None:
        raise ValueError("verify needs a degree window: --from/--to or t_min/t_max in the file")
    if t_max < t_min:
        raise ValueError(f"empty degree window: from {t_min} to {t_max}")
    if t_max - t_min + 1 > _MAX_WINDOW:
        raise ValueError(f"degree window is capped at {_MAX_WINDOW} degrees")
    tau_result = compute_tau(problem.ci)
    max_cols = args.max_cols or DEFAULT_MAX_COLUMNS
    rows = []
    capped = None
    for t in range(t_min, t_max + 1):
        try:
            rows.append(verify_injectivity(problem.ci, t, max_cols=max_cols))
        except ResourceLimit as e:
            capped = str(e)
            break
    consistent, checked = _consistency(problem.ci, tau_result, rows)
    if args.json:
        payload = {
            "rows": [r.to_json_dict() for r in rows],
            "consistent": consistent,
            "checked": checked,
        }
        if capped:
            payload["capped"] = capped
        print(json.dumps(payload, indent=2))
    else:
        print("degree  dim  kernel_dim")
        for r in rows:
            print(f"{r.degree:6d}  {r.dim_source:3d}  {r.dim_kernel:10d}")
        label = ", ".join(checked) if checked else "no applicable bound"
        print(f"consistency: {'PASS' if consistent else 'FAIL'} ({label})")
    if capped:
        print(f"stopped early: {capped}", file=sys.stderr)
        return EXIT_RESOURCE
    return EXIT_OK


def _consistency(ci, tau_result, rows):
    """thmA: injective strictly below the bound, a kernel exactly at it.
    thmB: injective in negative degrees once p clears the threshold for an
    isolated singularity.  Both checked only against the rows at hand.
    isolated_singularity, analyze's rule, runs only once p clears the
    threshold."""
    checked = []
    ok = True
    if tau_result.ell is not None:
        bound = thmA_bound(ci, tau_result)
        checked.append("thmA")
        for r in rows:
            if r.degree < bound and r.dim_kernel != 0:
                ok = False
            if r.degree == bound and r.dim_kernel < 1:
                ok = False
    if ci.ring.p >= thmB_threshold(ci) and isolated_singularity(ci, tau_result):
        checked.append("thmB")
        for r in rows:
            if r.degree < 0 and r.dim_kernel != 0:
                ok = False
    return ok, checked


def cmd_batch(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise ValueError(f"not a directory: {directory}")
    files = sorted(f for f in directory.iterdir() if f.is_file())
    failures = 0
    for f in files:
        try:
            report = analyze(load_problem(str(f)).ci)
            record = {"file": f.name, "ok": True, "report": report.to_json_dict()}
        except Exception as e:  # one record per file, whatever the file does
            failures += 1
            known = _known_error(e)
            code = known[0] if known else EXIT_INTERNAL
            if code == EXIT_INTERNAL:
                traceback.print_exc()  # a bug: keep where it happened
            record = {
                "file": f.name,
                "ok": False,
                "error": {"exit_code": code, "message": str(e)},
            }
        print(json.dumps(record))
    if files and failures == len(files):
        return 1
    return EXIT_OK


# expected exception types, most specific first: (type, exit code, stderr
# prefix); RegularSequenceError and ParseError are ValueErrors
_KNOWN_ERRORS = (
    (InternalError, EXIT_INTERNAL, "internal error: "),
    (RegularSequenceError, EXIT_NOT_CI, "not a complete intersection: "),
    (ResourceLimit, EXIT_RESOURCE, "resource cap exceeded: "),
    ((ValueError, OSError), EXIT_BAD_INPUT, ""),
)


def _known_error(exc):
    """(exit code, stderr prefix) for an expected exception, else None."""
    for kind, code, prefix in _KNOWN_ERRORS:
        if isinstance(exc, kind):
            return code, prefix
    return None


def _int_flag(text) -> int:
    try:
        return _integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _positive_int(text) -> int:
    value = _int_flag(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


# built once per process: parse_args leaves the parser unchanged
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON")
    common.add_argument(
        "--max-q", type=_positive_int, default=None,
        help="cap on the witness's denominator q; used by witness only",
    )
    common.add_argument(
        "--max-cols", type=_positive_int, default=None,
        help="cap on a degree's coordinate monomials and on their Frobenius "
        "image monomials; used by verify only",
    )
    parser = argparse.ArgumentParser(
        prog="fsing",
        description="Frobenius invariants of graded complete intersections over F_p",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_analyze = sub.add_parser("analyze", parents=[common], help="full invariant report")
    p_analyze.add_argument("path")
    p_analyze.set_defaults(handler=cmd_analyze)
    p_witness = sub.add_parser(
        "witness", parents=[common], help="sharp Frobenius-kernel witness class"
    )
    p_witness.add_argument("path")
    p_witness.set_defaults(handler=cmd_witness)
    p_verify = sub.add_parser(
        "verify", parents=[common], help="verify injectivity degree by degree"
    )
    p_verify.add_argument("path")
    p_verify.add_argument("--from", dest="from_degree", type=_int_flag, default=None)
    p_verify.add_argument("--to", dest="to_degree", type=_int_flag, default=None)
    p_verify.set_defaults(handler=cmd_verify)
    p_batch = sub.add_parser(
        "batch", parents=[common], help="analyze every file in a directory"
    )
    p_batch.add_argument("directory")
    p_batch.set_defaults(handler=cmd_batch)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except Exception as e:
        known = _known_error(e)
        if known is None:
            raise  # unforeseen: keep the traceback
        code, prefix = known
        print(f"{prefix}{e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
