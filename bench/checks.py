"""Answer checks: stored reference answers, facts from outside the run, and
consistency rules that hold on every seed.

An output counts as a wrong answer when it disagrees with the reference
answer stored for its call, with a fact below, or with one of the rules.
Each `batch` record is an output of its own.
"""

from __future__ import annotations

import json

from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")

ISOLATED = "isolated_non_f_pure_point"
F_PURE = "everywhere_f_pure"


def _rows(*triples):
    return [
        {"degree": t, "dim_source": dim, "dim_kernel": ker} for t, dim, ker in triples
    ]


_FERMAT_CUBIC_ROWS = _rows((-5, 15, 0), (-4, 12, 0), (-3, 9, 0), (-2, 6, 0), (-1, 3, 0))

# Answers that do not come from a run, each a subset of the expected output.
FACTS = {
    # README.md, "Quick start": the three tables for problems/squares_p3.ci
    "batch/squares_p3.ci": {
        "ok": True,
        "report": {
            "a_invariant": 1,
            "reg_s_mod_tau": 0,
            "ell": 0,
            "thmA_bound": 1,
            "cor_bound": -8,
            "thmB_threshold": 6,
            "fpure_at_m": False,
            "tau_class": ISOLATED,
            "isolated_singularity": False,
        },
    },
    "witness/squares_p3.ci": {
        "numerator": "x^2*y^2*z^2",
        "q": 3,
        "degree": 1,
        "frobenius_image_is_zero": True,
    },
    "verify/squares_p3.ci": {
        "rows": _rows((-3, 14, 0), (-2, 10, 0), (-1, 6, 0), (0, 3, 0), (1, 1, 1), (2, 0, 0)),
        "consistent": True,
    },
    "witness/squares/p3": {"q": 3, "degree": 1, "frobenius_image_is_zero": True},
    "verify/squares/p3/-1..1": {
        "rows": _rows((-1, 6, 0), (0, 3, 0), (1, 1, 1)),
        "consistent": True,
    },
    # tests/test_acceptance.py, criterion 5: x^3 + y^3 + z^3 at p = 5 and 7
    # is an isolated singularity with thmB threshold 4 and injective pieces of
    # dimensions 15, 12, 9, 6, 3 in degrees -5..-1
    "batch/fermat_cubic_p5.ci": {
        "ok": True,
        "report": {"isolated_singularity": True, "thmB_threshold": 4},
    },
    "verify/fermat_cubic_p5.ci": {"rows": _FERMAT_CUBIC_ROWS, "consistent": True},
    "verify/fermat3/p5/-5..-1": {"rows": _FERMAT_CUBIC_ROWS, "consistent": True},
    "verify/fermat3/p7/-5..-1": {"rows": _FERMAT_CUBIC_ROWS, "consistent": True},
    # tests/test_acceptance.py, criterion 4: Theorem A bounds
    "analyze/squares/p3": {"thmA_bound": 1, "tau_class": ISOLATED},
    "analyze/squares/p5": {"thmA_bound": 1, "tau_class": ISOLATED},
    "analyze/squares/p7": {"thmA_bound": 1, "tau_class": ISOLATED},
    "analyze/fermat3/p2": {"thmA_bound": 0, "tau_class": ISOLATED},
    "analyze/fermat4/p3": {"thmA_bound": 0, "tau_class": ISOLATED},
    "batch/fermat_cubic_p2.ci": {"ok": True, "report": {"thmA_bound": 0}},
}


def matches(expected, actual) -> bool:
    """Whether actual agrees with expected on every key expected has."""
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            k in actual and matches(v, actual[k]) for k, v in expected.items()
        )
    return expected == actual


def load_reference(path: Path = REFERENCE_FILE) -> dict:
    return json.loads(path.read_text())


def reference_disagreements(reference: dict) -> list[str]:
    """Facts the stored reference answers contradict."""
    return [
        f"{workload}/{section}/{key}"
        for workload, stored in reference.items()
        if isinstance(stored, dict)
        for section in ("any_seed", "default_seed")
        for key, fact in FACTS.items()
        if key in stored[section] and not matches(fact, stored[section][key]["out"])
    ]


def report_problems(report: dict) -> list[str]:
    """Rules every analyze report obeys."""
    out = []
    if report["reg_s_mod_tau"] != report["ell"]:
        out.append("reg_s_mod_tau != ell")
    if report["thmA_bound"] is not None and report["thmA_bound"] < report["cor_bound"]:
        out.append("thmA_bound < cor_bound")
    if report["fpure_at_m"] != (report["tau_class"] == F_PURE):
        out.append("fpure_at_m disagrees with tau_class")
    return out


def parse_output(command: str, text: str):
    """The JSON a call printed; a batch record of a rejected file keeps only
    its exit code, since the message names the run's own directory."""
    if not text:
        return None
    if command != "batch":
        return json.loads(text)
    records = [json.loads(line) for line in text.splitlines()]
    for record in records:
        if "error" in record:
            record["error"] = {"exit_code": record["error"].get("exit_code")}
    return records


class Checker:
    """Checks the outputs of one pass of a workload."""

    def __init__(self, workload, stored: dict, default_seed: int):
        """`stored` holds the workload's reference answers."""
        self.workload = workload
        self.expected = dict(stored["any_seed"])
        if workload.seed == default_seed:
            self.expected.update(stored["default_seed"])

    def _against_stored(self, key, code, out) -> list[str]:
        out_problems = []
        entry = self.expected.get(key)
        if entry is not None and (entry["exit"] != code or entry["out"] != out):
            out_problems.append("differs from the reference answer")
        fact = FACTS.get(key)
        if fact is not None and not matches(fact, out):
            out_problems.append("contradicts a fact")
        return out_problems

    def check_pass(self, records) -> list[str]:
        """Wrong answers among the successful calls of one pass, one message
        per wrong output."""
        wrong = []
        reports = {}
        for rec in records:
            if not rec.succeeded:
                continue
            call = rec.call
            try:
                out = parse_output(call.command, rec.stdout)
            except json.JSONDecodeError:
                wrong.append(f"{call.key}: output is not JSON")
                continue
            if call.command == "batch":
                wrong += self._check_batch(out, reports)
                continue
            problems = self._against_stored(call.key, rec.code, out)
            problems += self._rules(call, rec.code, out, reports)
            wrong += [f"{call.key}: {msg}" for msg in problems]
        return wrong

    def _check_batch(self, records, reports) -> list[str]:
        wrong = []
        names = sorted(
            rel.split("/", 1)[1] for rel in self.workload.files if rel.startswith("batch/")
        )
        seen = [r.get("file") for r in records or []]
        if seen != names:
            wrong.append("batch: records do not match the files one to one")
        for record in records or []:
            name = record.get("file")
            key = f"batch/{name}"
            problems = self._against_stored(key, 0, record)
            code = self.workload.rejections.get(name)
            if code is not None:
                if record.get("ok") or record.get("error", {}).get("exit_code") != code:
                    problems.append(f"expected a rejection with exit code {code}")
            elif not record.get("ok"):
                problems.append("rejected a valid problem")
            else:
                reports[name] = record["report"]
                problems += report_problems(record["report"])
            wrong += [f"{key}: {msg}" for msg in problems]
        return wrong

    def _rules(self, call, code, out, reports) -> list[str]:
        report = reports.get(call.path.rsplit("/", 1)[-1])
        if call.command == "witness" and code == 5:
            if report is not None and report["tau_class"] == ISOLATED:
                return ["witness refused although tau is m-primary proper"]
            return []
        if code != 0:
            return []
        if call.command == "analyze":
            return report_problems(out)
        if call.command == "verify":
            return [] if out["consistent"] is True else ["verify is not consistent"]
        problems = []
        if out["frobenius_image_is_zero"] is not True:
            problems.append("witness image is not zero")
        if report is not None:
            if report["tau_class"] != ISOLATED:
                problems.append("witness found although tau is not m-primary proper")
            elif out["degree"] != report["thmA_bound"]:
                problems.append("witness degree differs from the thmA bound")
        return problems
