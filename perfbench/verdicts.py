"""Output checker: each op's JSON report against the planted truth.

Runs outside the timed region.  A verdict must match the planted truth
exactly (weights, constant, (alpha, beta), which check fails), and a witness
must re-verify from the plain tables of the generator, never through the
package under test.  Witnesses must also be the first in state order, which
is found once per society by brute force and then remembered.
"""

from __future__ import annotations

import ast
import hashlib
import itertools
import json
import re
from fractions import Fraction

from workloads import Case, Op

VALIDATE_CHECKS = ("pareto", "semi-separability", "matching", "axiom-i", "axiom-I")
HYPOTHESES = ("two-nonconstant-agents", "semi-separability", "pareto", "matching", "axiom-i", "axiom-I")


class Miss(Exception):
    """The output disagrees with the planted truth or its witness fails."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise Miss(what)


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def check(op: Op, code, stdout: str, pinned: str | None = None) -> None:
    """Raise Miss unless the op's exit code and report are right.

    ``pinned`` is the digest of what the parent commit printed for this op,
    when the op succeeded there; the output must then be byte-identical.
    """
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        raise Miss(f"exit {code}, no JSON report") from None
    CHECKERS[op.command](op.case, code, payload)
    if pinned is not None:
        expect(digest(stdout) == pinned, "output differs from the pinned default-seed output")


def _rats(mapping, agents) -> list[Fraction]:
    expect(isinstance(mapping, dict) and list(mapping) == list(agents), f"agent map {mapping!r}")
    return [Fraction(mapping[a]) for a in agents]


def _literal(text: str, prefix: str, suffix: str = "") -> tuple:
    expect(text.startswith(prefix) and text.endswith(suffix), f"witness text {text!r}")
    value = ast.literal_eval(text[len(prefix): len(text) - len(suffix)])
    expect(isinstance(value, tuple) and all(isinstance(s, str) for s in value), f"witness {value!r}")
    return value


# ---------------------------------------------------------------------------
# Commands


def check_coincide(case: Case, code, out: dict) -> None:
    truth = case.truth["coincide"]
    expect(out.get("command") == "coincide", "not a coincide report")
    expect(out["status"] == truth["status"], f"status {out['status']!r}, planted {truth['status']!r}")
    expect(code == (0 if truth["status"] == "coincide" else 1), f"exit code {code}")
    expect(out["failed_hypothesis"] is None, "a hypothesis failed")
    expect([h["name"] for h in out["hypotheses"]] == list(HYPOTHESES), "hypothesis list")
    expect(all(h["verdict"] == "PASS" for h in out["hypotheses"]), "a hypothesis did not pass")
    expect([a["name"] for a in out["agents"]] == list(case.agents), "agent list")
    slopes = []
    for verdict, (kind, alpha, beta) in zip(out["agents"], truth["agents"]):
        name = verdict["name"]
        expect(verdict["verdict"] == kind, f"{name}: {verdict['verdict']}, planted {kind}")
        if kind == "COINCIDE":
            expect(Fraction(verdict["alpha"]) == alpha and Fraction(verdict["beta"]) == beta,
                   f"{name}: (alpha, beta) = ({verdict['alpha']}, {verdict['beta']}), planted ({alpha}, {beta})")
            slopes.append(Fraction(1))
        else:
            check_violation(case, name, verdict["witness"], truth.get("increments", {}).get(name))
            slopes.append(None)
    norm = out["normalization"]
    for side in ("alt", "nm"):
        weights, constant = truth[side]
        expect(_rats(norm[f"{side}_weights"], case.agents) == list(weights), f"{side} weights")
        expect(Fraction(norm[f"{side}_constant"]) == constant, f"{side} constant")
    got = [None if s is None else Fraction(s) for s in (norm["slopes"] or {}).values()]
    expect(got == slopes, f"normalized slopes {norm['slopes']!r}")


def check_violation(case: Case, agent: str, witness: dict, closed_form) -> None:
    """Increments over the agent's value grid, and the first step that breaks the slope."""
    base = case.alt_side().tables[agent]
    star = case.nm_side().tables[agent]
    image: dict[Fraction, Fraction] = {}
    for s in case.states:
        image.setdefault(base[s], star[s])
    grid = sorted(image)
    increments = [(b - a, image[b] - image[a]) for a, b in zip(grid, grid[1:])]
    got = [(Fraction(b), Fraction(s)) for b, s in witness["increments"]]
    expect(got == increments, f"{agent}: increments differ from the tables")
    if closed_form is not None:
        expect(got == closed_form, f"{agent}: increments are not ((2k+1) eps^2, eps)")
    steps = []
    for key in ("first_step", "second_step"):
        step = witness[key]
        lo, hi = step["from"], step["to"]
        expect(lo in base and hi in base, f"{agent}: unknown step state")
        inc = (Fraction(step["base_increment"]), Fraction(step["starred_increment"]))
        expect(inc == (base[hi] - base[lo], star[hi] - star[lo]), f"{agent}: {key} does not re-verify")
        steps.append(inc)
    (b0, s0), (b1, s1) = steps
    bad = next(k for k, (b, s) in enumerate(increments) if s * increments[0][0] != increments[0][1] * b)
    expect(steps == [increments[0], increments[bad]], f"{agent}: steps are not the first breaking pair")
    expect(s0 * b1 != s1 * b0, f"{agent}: witness steps share a slope")


def check_harvey(case: Case, code, out: dict) -> None:
    truth = case.truth["harvey"]
    expect(out.get("command") == "recover" and out.get("mode") == "harvey", "not a harvey report")
    stage = truth["failed_stage"]
    expect(out["failed_stage"] == stage, f"failed stage {out['failed_stage']!r}, planted {stage!r}")
    if stage is None:
        expect(code == 0 and out["success"] is True, "recovery failed")
        expect(_rats(out["weights"], case.agents) == list(truth["weights"]), "weights")
        expect(Fraction(out["constant"]) == truth["constant"], "constant")
        expect(out["constant_agents"] == [] and out["witness"] is None, "extra fields")
        return
    expect(code == 1 and out["success"] is False, f"exit code {code}")
    expect(out["weights"] is None and out["constant"] is None, "weights on a failed recovery")
    text = out["witness"]
    if stage == "semi-separability":
        verify_profile(case, _literal(text, "society is not semi-separable (witness profile ", ")"))
    elif stage == "axiom-I":
        verify_quadruple(case, _literal(text, ""))
    else:
        negative = [(a, w) for a, w in zip(case.agents, truth["weights"]) if w <= 0]
        expect(text == f"component slope for {negative[0][0]!r} is not positive: {negative[0][1]}",
               f"slope witness {text!r}")


def check_validate(case: Case, code, out: dict) -> None:
    failing = case.truth["validate"]
    expect(out.get("command") == "validate", "not a validate report")
    expect([c["name"] for c in out["checks"]] == list(VALIDATE_CHECKS), "check list")
    expect(code == 1 and out["all_passed"] is False, f"exit code {code}")
    for c in out["checks"]:
        name, detail = c["name"], c["detail"]
        expect(c["verdict"] == ("FAIL" if name in failing else "PASS"), f"{name}: {c['verdict']}")
        if name not in failing:
            expect(detail == "", f"{name}: detail on a PASS")
        elif name == "pareto":
            verify_pareto(case, _literal(detail, "witness pair "))
        elif name == "semi-separability":
            verify_profile(case, _literal(detail, "witness profile "))
        elif name == "axiom-I":
            verify_quadruple(case, _literal(detail, "witness quadruple "))
        else:
            verify_lottery_pair(case, detail)


def check_harsanyi(case: Case, code, out: dict) -> None:
    truth = case.truth["harsanyi"]
    expect(out.get("command") == "recover" and out.get("mode") == "harsanyi", "not a harsanyi report")
    if truth is None:
        expect(code == 1 and out["success"] is False, f"exit code {code}")
        expect(out["weights"] is None and out["constant"] is None and out["unique"] is False,
               "weights on an off-span society")
        expect(out["residual_witness"] in case.base.ethical, "residual witness is not a state")
        return
    expect(code == 0 and out["success"] is True, f"exit code {code}")
    expect(_rats(out["weights"], case.agents) == list(truth["weights"]), "weights")
    expect(Fraction(out["constant"]) == truth["constant"], "constant")
    expect(out["unique"] is truth["unique"], "uniqueness")
    expect(out["residual_witness"] is None, "residual witness on a success")


CHECKERS = {
    "coincide": check_coincide,
    "validate": check_validate,
    "recover-harvey": check_harvey,
    "recover-harsanyi": check_harsanyi,
}


# ---------------------------------------------------------------------------
# Witnesses


def _first(case: Case, key: str, scan):
    """The brute-force first witness of one kind on this society, computed once."""
    cache = case.truth.setdefault("first-witness", {})
    if key not in cache:
        cache[key] = scan()
    return cache[key]


def verify_pareto(case: Case, pair: tuple) -> None:
    tables = list(case.base.tables.values())
    v = case.base.ethical

    def bad(x, y):
        dominates = all(t[x] >= t[y] for t in tables) and any(t[x] > t[y] for t in tables)
        return dominates and not v[x] > v[y]

    expect(len(pair) == 2 and all(s in v for s in pair) and bad(*pair), f"pareto witness {pair}")
    first = _first(case, "pareto", lambda: next(
        (x, y) for x in case.states for y in case.states if bad(x, y)))
    expect(pair == first, f"pareto witness {pair} is not the first, {first} is")


def verify_profile(case: Case, profile: tuple) -> None:
    tables = list(case.base.tables.values())
    expect(len(profile) == len(tables) and all(s in tables[0] for s in profile),
           f"profile {profile}")
    realized = {tuple(t[s] for t in tables) for s in case.states}
    expect(tuple(t[s] for t, s in zip(tables, profile)) not in realized,
           f"profile {profile} is realized by a state")

    def scan():
        for p in itertools.product(case.states, repeat=len(tables)):
            if tuple(t[s] for t, s in zip(tables, p)) not in realized:
                return p

    first = _first(case, "profile", scan)
    expect(profile == first, f"profile {profile} is not the first, {first} is")


def verify_quadruple(case: Case, quad: tuple) -> None:
    profile = case.alt_side()
    tables = list(profile.tables.values())
    v = profile.ethical
    expect(len(quad) == 4 and all(s in v for s in quad), f"quadruple {quad}")
    x, y, z, w = quad
    expect(all(t[x] - t[y] == t[z] - t[w] for t in tables), f"quadruple {quad}: agent differences differ")
    expect(v[x] - v[y] != v[z] - v[w], f"quadruple {quad}: ethical differences agree")

    def scan():
        seen = {}
        for a in case.states:
            for b in case.states:
                c = tuple(t[a] - t[b] for t in tables)
                if c not in seen:
                    seen[c] = (v[a] - v[b], (a, b))
                elif seen[c][0] != v[a] - v[b]:
                    return (a, b) + seen[c][1]

    first = _first(case, "quadruple", scan)
    expect(quad == first, f"quadruple {quad} is not the first, {first} is")


_LOTTERIES = re.compile(r"agents indifferent but ethics not: p=\{(.*)\} q=\{(.*)\}")


def _lottery(text: str) -> dict[str, Fraction]:
    probs = {}
    for entry in text.split(", "):
        state, p = entry.rsplit(": ", 1)
        probs[state] = Fraction(p)
    expect(all(p >= 0 for p in probs.values()) and sum(probs.values()) == 1, "not a lottery")
    return probs


def verify_lottery_pair(case: Case, detail: str) -> None:
    match = _LOTTERIES.fullmatch(detail)
    expect(match is not None, f"axiom-i witness {detail!r}")
    p, q = _lottery(match.group(1)), _lottery(match.group(2))
    profile = case.nm_side()
    expect(set(p) | set(q) <= set(profile.ethical), "lottery on unknown states")

    def mean(lottery, table):
        return sum((pr * table[s] for s, pr in lottery.items()), Fraction(0))

    for name, table in profile.tables.items():
        expect(mean(p, table) == mean(q, table), f"lottery pair separates agent {name}")
    expect(mean(p, profile.ethical) != mean(q, profile.ethical), "lottery pair is ethically indifferent")
