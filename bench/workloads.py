"""Seeded inputs for the three benchmark workloads.

A workload is a set of problem files plus the list of CLI calls made on them
in one pass.  Everything here is plain Python: the program under test sees
only the files written by `Workload.write`.

The seed changes the inputs without changing the work they cause.  For the
fixed forms of analyze-ladder and verify-depth it picks variable names, a
diagonal change of coordinates x_i -> a_i x_i, a unit factor per form and the
call order.  A diagonal change of coordinates maps monomials to scalar
multiples of themselves, so every Groebner computation on the scaled input is
step for step the one on the original, and every invariant the CLI reports
(and every verify row) is unchanged.  cli-mixed draws its small problem files
at random from a fixed list of shapes.
"""

from __future__ import annotations

import itertools
import random

from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 0
WORKLOADS = ("analyze-ladder", "verify-depth", "cli-mixed")

NAME_SETS = (("x", "y", "z", "w"), ("a", "b", "c", "d"), ("x0", "x1", "x2", "x3"))

# forms as lists of (coefficient, exponent vector)
SQUARES = [[(1, (2, 2, 0)), (1, (0, 2, 2)), (1, (2, 0, 2))]]
FERMAT_CUBIC = [[(1, (3, 0, 0)), (1, (0, 3, 0)), (1, (0, 0, 3))]]
FERMAT_QUARTIC = [[(1, (4, 0, 0)), (1, (0, 4, 0)), (1, (0, 0, 4))]]
QUARTIC4 = [[(1, (2, 2, 0, 0)), (1, (0, 2, 2, 0)), (1, (0, 0, 2, 2)), (1, (2, 0, 0, 2))]]
FERMAT_CUBIC_SURFACE = [[(1, (3, 0, 0, 0)), (1, (0, 3, 0, 0)), (1, (0, 0, 3, 0)), (1, (0, 0, 0, 3))]]
CI_22 = [
    [(1, (2, 0, 0, 0)), (1, (0, 2, 0, 0)), (1, (0, 0, 2, 0)), (1, (0, 0, 0, 2))],
    [(1, (1, 1, 0, 0)), (1, (0, 0, 1, 1))],
]
CI_23 = [
    [(1, (2, 0, 0, 0)), (1, (0, 1, 1, 0)), (1, (0, 0, 0, 2))],
    [(1, (0, 3, 0, 0)), (1, (0, 0, 3, 0)), (1, (1, 0, 0, 2))],
]

FORMS = {
    "squares": SQUARES,
    "fermat3": FERMAT_CUBIC,
    "fermat4": FERMAT_QUARTIC,
    "quartic4": QUARTIC4,
    "fermat3s": FERMAT_CUBIC_SURFACE,
    "ci22": CI_22,
    "ci23": CI_23,
}

# analyze-ladder: each form up to the largest prime it finishes in about a
# second or two on a 2-core machine (the c = 2 pairs take 3.5 s at p = 7)
LADDER = {
    "squares": (2, 3, 5, 7, 11, 13, 17, 19),
    "fermat3": (2, 3, 5, 7, 11, 13, 17),
    "fermat4": (2, 3, 5, 7, 11, 13, 17),
    "quartic4": (2, 3, 5, 7, 11, 13),
    "ci22": (2, 3, 5),
    "ci23": (2, 3, 5),
}
QUICK_LADDER = {name: primes[:2] for name, primes in LADDER.items()}

# verify-depth: (form, p, t_min, t_max).  The deep, costly degrees are one
# call each so that a pass has enough calls for a tail percentile.
DEPTH = (
    [("quartic4", 3, t, t) for t in (-13, -11, -9)]
    + [("quartic4", 3, t, t) for t in range(-8, 2)]
    + [("fermat3s", 3, t, t) for t in (-12, -10)]
    + [("fermat3s", 3, t, t) for t in range(-9, 2)]
    + [("squares", 3, t, t) for t in range(-29, -25)]  # q = 81
    + [("squares", 3, -25, -20)]  # q = 27
    + [("squares", 5, t, t) for t in range(-26, -23)]  # q = 125
    + [("squares", 5, -23, -14)]  # q = 25
    + [("fermat3", 5, -5, -1), ("fermat3", 7, -5, -1)]
)
QUICK_DEPTH = (
    ("quartic4", 3, -4, -3),
    ("fermat3s", 3, -3, -2),
    ("squares", 3, -3, 2),
    ("fermat3", 5, -5, -1),
)

# cli-mixed: shapes (p, nvars, degrees) of the random files, each drawn
# MIXED_COPIES times.  Calls on these shapes take milliseconds; larger ones
# (four variables with c = 2 at p = 5, or at p = 7) reach seconds and make
# the cost of a pass depend on the draw more than on the program.
MIXED_SHAPES = [
    (p, nv, degs)
    for p in (2, 3, 5, 7)
    for nv in (2, 3, 4)
    for degs in ((2,), (3,), (4,), (2, 2), (2, 3), (3, 3))
    if len(degs) <= nv
    and (nv < 4 or (sum(degs) <= 5 and p <= (5 if len(degs) == 1 else 3)))
    and (nv < 3 or p < 7 or sum(degs) <= 5)
]
MIXED_COPIES = 3
QUICK_MIXED_FILES = 6

# the problem files shipped in the repository's problems/ directory when the
# benchmark was defined, copied verbatim so that later edits there do not
# change the workload
SHIPPED = {
    "diag_cubic_2vars_p2.ci": "p = 2\nvars = x, y\ngens = x^3 + y^3\n",
    "fermat_cubic_p2.ci": (
        "# not F-pure at p = 2; tau is the maximal ideal\n"
        "p = 2\nvars = x, y, z\ngens = x^3 + y^3 + z^3\nt_min = -4\nt_max = 1\n"
    ),
    "fermat_cubic_p5.ci": (
        "# smooth plane cubic; p = 5 clears the injectivity threshold\n"
        "p = 5\nvars = x, y, z\ngens = x^3 + y^3 + z^3\nt_min = -5\nt_max = -1\n"
    ),
    "monomial_xy_p5.ci": (
        "# F-pure everywhere: x^4*y^4 stays outside (x^5, y^5)\n"
        "p = 5\nvars = x, y\ngens = x*y\n"
    ),
    "nonisolated_p3.ci": (
        "# tau = (x*y) cuts out two lines, so no witness exists\n"
        "p = 3\nvars = x, y\ngens = x^2*y^2\n"
    ),
    "squares_p3.ci": (
        "# sum of squared pairwise products; the non-F-pure point is the origin\n"
        "p = 3\nvars = x, y, z\ngens = x^2*y^2 + y^2*z^2 + z^2*x^2\n"
        "t_min = -3\nt_max = 2\n"
    ),
    "squares_p5.ci": (
        "p = 5\nvars = x, y, z\ngens = x^2*y^2 + y^2*z^2 + z^2*x^2\n"
        "t_min = -3\nt_max = 2\n"
    ),
}

# the default verify window of a random file, relative to a(R) = d - (n+1);
# it holds the Theorem A bound a(R) - reg(S/tau) whenever reg(S/tau) <= 2
WINDOW_BELOW_A = 2

# 3,000 nested parentheses: a RecursionError traceback at the parent commit
# of this benchmark, a ParseError (exit 2) once the parser limits its depth
DEEP_NESTING_DEPTH = 3000

BAD_INPUT = 2
NOT_CI = 3
NO_WITNESS = 5


@dataclass(frozen=True)
class Call:
    """One CLI command: `fsing <command> <workdir>/<path> --json <flags>`.

    `key` names the call independently of the seed's call order; `expect`
    holds the exit codes that count as success; `any_seed` says whether the
    expected output is the same for every seed (so that one stored reference
    answer applies to all seeds).
    """

    key: str
    command: str
    path: str
    flags: tuple[str, ...] = ()
    expect: frozenset[int] = frozenset({0})
    any_seed: bool = True

    def argv(self, workdir: Path) -> list[str]:
        return [self.command, str(workdir / self.path), "--json", *self.flags]


@dataclass
class Workload:
    name: str
    seed: int
    files: dict[str, str] = field(default_factory=dict)
    calls: list[Call] = field(default_factory=list)
    # batch files that must be rejected, with the exit code batch reports
    rejections: dict[str, int] = field(default_factory=dict)
    # batch files drawn at random, whose answers change with the seed
    random_files: set[str] = field(default_factory=set)

    def write(self, workdir: Path) -> None:
        for rel, text in self.files.items():
            target = workdir / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)


def render(terms, names, p) -> str:
    parts = []
    for c, exps in terms:
        c %= p
        factors = [f"{v}^{e}" if e > 1 else v for v, e in zip(names, exps) if e]
        if c != 1 or not factors:
            factors.insert(0, str(c))
        parts.append("*".join(factors))
    return " + ".join(parts)


def problem_text(p, names, forms, t_min=None, t_max=None) -> str:
    lines = [
        f"p = {p}",
        f"vars = {', '.join(names)}",
        f"gens = {', '.join(render(f, names, p) for f in forms)}",
    ]
    if t_min is not None:
        lines += [f"t_min = {t_min}", f"t_max = {t_max}"]
    return "\n".join(lines) + "\n"


def scaled(forms, p, rng):
    """The forms after x_i -> a_i x_i and a unit factor on each form."""
    nv = len(forms[0][0][1])
    a = [rng.randrange(1, p) for _ in range(nv)]
    out = []
    for form in forms:
        u = rng.randrange(1, p)
        terms = []
        for c, exps in form:
            for ai, e in zip(a, exps):
                c *= pow(ai, e, p)
            terms.append((c * u % p, exps))
        out.append(terms)
    return out


def _fixed_form_file(rng, name, p):
    forms = FORMS[name]
    nv = len(forms[0][0][1])
    names = rng.choice(NAME_SETS)[:nv]
    return problem_text(p, names, scaled(forms, p, rng))


def _every_layer_calls(wl):
    """One witness and one short verify on the squares quartic at p = 3, a
    few milliseconds per pass, so that every layer's span runs at least once
    in every workload."""
    path = "squares_p3_layers.ci"
    # a stream of its own, so that quick mode writes the same file
    rng = random.Random(f"{wl.name}:layers:{wl.seed}")
    wl.files[path] = _fixed_form_file(rng, "squares", 3)
    # the numerator changes with the seed's coordinates; q and degree do not
    wl.calls.append(Call("witness/squares/p3", "witness", path, any_seed=False))
    wl.calls.append(Call("verify/squares/p3/-1..1", "verify", path, ("--from", "-1", "--to", "1")))


def analyze_ladder(seed, quick=False) -> Workload:
    rng = random.Random(f"analyze-ladder:{seed}")
    wl = Workload("analyze-ladder", seed)
    for name, primes in (QUICK_LADDER if quick else LADDER).items():
        for p in primes:
            path = f"{name}_p{p}.ci"
            wl.files[path] = _fixed_form_file(rng, name, p)
            wl.calls.append(Call(f"analyze/{name}/p{p}", "analyze", path))
    _every_layer_calls(wl)
    rng.shuffle(wl.calls)
    return wl


def verify_depth(seed, quick=False) -> Workload:
    rng = random.Random(f"verify-depth:{seed}")
    wl = Workload("verify-depth", seed)
    for name, p, lo, hi in QUICK_DEPTH if quick else DEPTH:
        path = f"{name}_p{p}.ci"
        if path not in wl.files:
            wl.files[path] = _fixed_form_file(rng, name, p)
        flags = ("--from", str(lo), "--to", str(hi))
        wl.calls.append(Call(f"verify/{name}/p{p}/{lo}..{hi}", "verify", path, flags))
    _every_layer_calls(wl)
    rng.shuffle(wl.calls)
    return wl


def _random_form(rng, p, nv, d, lead=None):
    """A form of degree d with 2-4 random terms; with `lead` = i it has the
    term x_i^d and otherwise only monomials in x_i, ..., x_n, so that x_i^d
    is its grevlex leading monomial."""
    first = lead or 0
    monos = [
        m
        for m in itertools.product(range(d + 1), repeat=nv)
        if sum(m) == d and not any(m[:first])
    ]
    pure = tuple(d if j == first else 0 for j in range(nv))
    pool = [m for m in monos if m != pure] if lead is not None else monos
    k = rng.randint(2, 4) - (lead is not None)
    picked = rng.sample(pool, min(k, len(pool)))
    if lead is not None:
        picked.insert(0, pure)
    return [(rng.randrange(1, p), m) for m in picked]


def _mixed_random_files(rng):
    out = []
    for _ in range(MIXED_COPIES):
        for p, nv, degs in MIXED_SHAPES:
            names = rng.choice(NAME_SETS)[:nv]
            if len(degs) == 1:
                forms = [_random_form(rng, p, nv, degs[0])]
            else:
                # coprime leading monomials x_0^d1, x_1^d2: a regular sequence
                forms = [_random_form(rng, p, nv, degs[0], lead=0),
                         _random_form(rng, p, nv, degs[1], lead=1)]
            a = sum(degs) - nv
            label = f"r{len(out):03d}_p{p}_n{nv}_c{len(degs)}.ci"
            out.append((label, problem_text(p, names, forms, a - WINDOW_BELOW_A, a)))
    return out


def _mixed_rejections(rng):
    """Inputs the CLI must refuse with a documented exit code."""
    x, y, z = rng.choice(NAME_SETS)[:3]
    head = f"p = 3\nvars = {x}, {y}, {z}\n"
    return [
        ("bad_shared_factor.ci", head + f"gens = {x}*{y}, {x}*{z}\n", NOT_CI),
        ("bad_not_homogeneous.ci", head + f"gens = {x}^2 + {y}\n", NOT_CI),
        ("bad_too_many_forms.ci",
         head + f"gens = {x}, {y}, {z}, {x}*{y}\n", NOT_CI),
        ("bad_syntax.ci", head + f"gens = {x}^^2 + {y}^2\n", BAD_INPUT),
        ("bad_paren.ci", head + f"gens = ({x} + {y}*{z}^2\n", BAD_INPUT),
        ("bad_variable.ci", head + f"gens = {x}^2 + q^2\n", BAD_INPUT),
        ("bad_not_prime.ci", f"p = 4\nvars = {x}, {y}\ngens = {x}*{y}\n", BAD_INPUT),
        ("bad_missing_key.ci", f"p = 5\ngens = {x}^2\n", BAD_INPUT),
    ]


def cli_mixed(seed, quick=False) -> Workload:
    rng = random.Random(f"cli-mixed:{seed}")
    wl = Workload("cli-mixed", seed)
    random_files = _mixed_random_files(rng)
    rejections = _mixed_rejections(rng)
    if quick:
        random_files = random_files[:QUICK_MIXED_FILES]
        rejections = rejections[::3]
    # (file, answers hold for every seed, verify flags, expected refusal)
    per_file = []
    for name, text in SHIPPED.items():
        wl.files[f"batch/{name}"] = text
        # a shipped file without a window gets degrees -2..0, all cheap
        flags = () if "t_min" in text else ("--from", "-2", "--to", "0")
        per_file.append((name, True, flags, None))
    for name, text in random_files:
        wl.files[f"batch/{name}"] = text
        wl.random_files.add(name)
        per_file.append((name, False, (), None))
    for name, text, code in rejections:
        wl.files[f"batch/{name}"] = text
        wl.rejections[name] = code
        per_file.append((name, True, (), code))
    calls = []
    for name, any_seed, flags, code in per_file:
        path = f"batch/{name}"
        witness_ok = frozenset({code}) if code else frozenset({0, NO_WITNESS})
        calls.append(Call(f"witness/{name}", "witness", path, (), witness_ok, any_seed))
        verify_ok = frozenset({code}) if code else frozenset({0})
        calls.append(Call(f"verify/{name}", "verify", path, flags, verify_ok, any_seed))
    wl.files["deep_nesting.ci"] = (
        "p = 3\nvars = x, y\ngens = "
        + "(" * DEEP_NESTING_DEPTH + "x" + ")" * DEEP_NESTING_DEPTH + "\n"
    )
    calls.append(Call("analyze/deep_nesting", "analyze", "deep_nesting.ci",
                      expect=frozenset({BAD_INPUT})))
    rng.shuffle(calls)
    # batch runs first, so that every later call can be checked against the
    # report batch gave for the same file
    batch = Call("batch", "batch", "batch", any_seed=False)
    wl.calls = [batch] + calls
    return wl


BUILDERS = {
    "analyze-ladder": analyze_ladder,
    "verify-depth": verify_depth,
    "cli-mixed": cli_mixed,
}


def build(name: str, seed: int, quick: bool = False) -> Workload:
    return BUILDERS[name](seed, quick)
