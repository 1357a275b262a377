"""Per-op verdicts: does an op's exit code and stdout match its oracle?

check(kind, data, record, state) returns a list of problems; an empty list
means the op succeeded.  An op fails on a wrong answer, an unexpected exit
code, stdout that is not one JSON object, or an exception escaping main.
`state` carries cross-op facts, such as a diagram's H1 before the
to-round/to-pm1 round trip.
"""

from __future__ import annotations

import json

import oracles

STANDARD_LAYER = {"kind": "nonrotative", "param": 0, "twisting": 0}


def check(kind, data, record, state):
    if record["exc"] is not None:
        return [f"{record['exc']} escaped main"]
    try:
        obj = json.loads(record["out"])
    except ValueError:
        return ["stdout is not JSON"]
    if not isinstance(obj, dict):
        return ["stdout is not a JSON object"]
    expect_error = kind == "error" or (kind == "front_homology" and data.get("error"))
    if expect_error:
        if record["rc"] not in (1, 2):
            return [f"exit code {record['rc']}, expected 1 or 2"]
        error = obj.get("error")
        if not isinstance(error, dict) or error.get("code") != record["rc"]:
            return ["no JSON error matching the exit code"]
        return []
    if record["rc"] != 0:
        return [f"exit code {record['rc']}: {record['out'][:200]}"]
    try:
        return CHECKS[kind](obj, data, state)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed output ({type(exc).__name__}: {exc})"]


def _links(diagram, labels):
    return {(a, b): v for a, b, v in diagram["linking"] if a in labels and b in labels}


def _model_links(model):
    return {(a, b): v for a, b, v in model["linking"]}


def _pm1_homology(obj, data, state):
    groups = obj["components"]
    if len(groups) != 1:
        return [f"{len(groups)} groups, expected 1"]
    problems = oracles.check_group(groups[0], data["rows"], len(data["rows"]))
    first = state.setdefault("h1", {}).setdefault(data["group"], groups[0])
    if first != groups[0]:
        problems.append(f"H1 {groups[0]} differs across the round trip from {first}")
    return problems


def _gadget_coefficients(plan):
    out = {}
    for gadget in plan["gadgets"]:
        labels = gadget["labels"]
        out[labels[0]] = 1
        out.update((lab, -1) for lab in labels[1:])
    return out


def _pm1_to_round(obj, data, state):
    coeff, model, k, m = data["coeff"], data["model"], data["k"], data["m"]
    n_plus = sum(1 for c in coeff.values() if c == 1)
    parity = (n_plus % 2, (len(coeff) - n_plus) % 2)
    case = {(0, 0): 1, (1, 0): 2, (0, 1): 3, (1, 1): 4}[parity]
    sizes = {1: [], 2: [2 * m], 3: [2 * m + 1, 2 * m], 4: [2 * m + 1]}[case]
    plan, d = obj["plan"], obj["diagrams"][0]
    problems = []
    if plan["case_id"] != case:
        problems.append(f"parity case {plan['case_id']}, expected {case}")
    if [g["m"] for g in plan["gadgets"]] != sizes:
        problems.append(f"gadget sizes {[g['m'] for g in plan['gadgets']]}, expected {sizes}")
    if any(len(g["labels"]) != g["m"] + 1 for g in plan["gadgets"]):
        problems.append("a gadget has the wrong number of components")
    want = dict(coeff)
    want.update(_gadget_coefficients(plan))
    comps = {c["label"]: (c["tb"], c["rot"]) for c in d["components"]}
    if set(comps) != set(want):
        problems.append("components are not the input plus the gadgets")
    if any(comps.get(c["label"]) != (c["tb"], c["rot"]) for c in model["components"]):
        problems.append("an input component changed its tb or rot")
    members = sorted(x for r1 in d["round1"] for x in r1["pair"])
    if members != sorted(comps):
        problems.append("components are not paired exactly once")
    partner = {r2["joint_with"]: r2 for r2 in d["round2"]}
    if len(d["round2"]) != len(d["round1"]) or None in partner:
        problems.append("round 2-surgeries are not all joint")
    for idx, r1 in enumerate(d["round1"]):
        a, b = r1["pair"]
        r2 = partner.get(idx)
        if (r1["coefficients"] != [k, k] or r1["layer"] != STANDARD_LAYER or r2 is None
                or r2["knot"] != b or want.get(a) != want.get(b)
                or r2["coefficient"] != str(want.get(a))):
            problems.append(f"round1[{idx}] {r1} is not a nice joint pair of the input")
            break
    if _links(d, set(coeff)) != _model_links(model):
        problems.append("linking among input components changed")
    if any((a in coeff) != (b in coeff) for a, b, _v in d["linking"]):
        problems.append("a gadget links an input component")
    if not isinstance(obj["dsl"], str):
        problems.append("no printed round diagram")
    return problems


def _pm1_to_pm1(obj, data, state):
    coeff, model = data["coeff"], data["model"]
    d = obj["diagrams"][0]
    problems = []
    if d["kind"] != "contact":
        problems.append("to-pm1 did not return a contact diagram")
    surgeries = {s["component"]: s["coefficient"] for s in d["surgeries"]}
    if any(surgeries.get(lab) != str(c) for lab, c in coeff.items()):
        problems.append("the +-1 coefficients of the input did not come back unchanged")
    if any(c not in ("1", "-1") for c in surgeries.values()):
        problems.append("a coefficient is not +-1")
    comps = {c["label"]: (c["tb"], c["rot"]) for c in d["components"]}
    if any(comps.get(c["label"]) != (c["tb"], c["rot"]) for c in model["components"]):
        problems.append("an input component changed its tb or rot")
    if _links(d, set(coeff)) != _model_links(model):
        problems.append("linking among input components changed")
    return problems


def _front_parse(obj, data, state):
    (d,) = obj["diagrams"]
    problems = []
    if oracles.print_diagram(d) != data["block"]:
        problems.append("parse -> print does not reproduce the text")
    for c in d["components"]:
        if (c["tb"], c["rot"]) != tuple(data["knots"][c["label"]]):
            problems.append(f"component {c['label']}: tb/rot {c['tb']}/{c['rot']}, "
                            f"expected {data['knots'][c['label']]}")
    return problems


def _front_invariants(obj, data, state):
    want = [{"label": lab, "tb": tb, "rot": rot} for lab, (tb, rot) in sorted(data["knots"].items())]
    return [] if obj == {"components": want} else [f"invariants {obj}, expected {want}"]


def _front_homology(obj, data, state):
    groups = obj["components"]
    if len(groups) != len(data["groups"]):
        return [f"{len(groups)} groups, expected {len(data['groups'])}"]
    problems = []
    for group, (rows, generators, extra) in zip(groups, data["groups"]):
        problems += oracles.check_group(group, rows, generators, extra)
    return problems


def _check_nice(obj, data, state):
    got, want = obj["pairs"], data["reports"]
    if len(got) != len(want):
        return [f"{len(got)} pair reports, expected {len(want)}"]
    for g, w in zip(got, want):
        if any(g.get(key) != value for key, value in w.items()):
            return [f"pair report {g}, expected {w}"]
        if bool(g["reasons"]) == g["nice"]:
            return [f"pair report {g} gives reasons exactly when nice"]
    return []


def _fillable(obj, data, state):
    want = {"fillable": data["fillable"]}
    return [] if obj == want else [f"{obj}, expected {want}"]


def _front_word(obj, data, state):
    comps, lk = oracles.front_invariants(data["word"])
    want = {"word": data["word"], "components": [dict(c, id=i) for i, c in enumerate(comps)],
            "lk": lk}
    return [] if obj == want else ["front word invariants disagree with the oracle"]


def _count_tight(obj, data, state):
    return oracles.check_count_tight(obj, data["s0"], data["s1"], data["ndiv"], data["twisting"])


def _enum(obj, data, state):
    cell = tuple(data["cell"])
    keys = state.setdefault("keys", {})
    if cell not in keys:
        keys[cell] = oracles.arc_system_keys(*cell)
    return oracles.check_enum(obj, *cell, keys[cell])


def _glue(obj, data, state):
    return oracles.check_glue(obj, data["marks"], data["a"], data["b"], data["offsets"])


CHECKS = {
    "pm1_homology": _pm1_homology,
    "pm1_to_round": _pm1_to_round,
    "pm1_to_pm1": _pm1_to_pm1,
    "front_parse": _front_parse,
    "front_invariants": _front_invariants,
    "front_homology": _front_homology,
    "check_nice": _check_nice,
    "fillable": _fillable,
    "front_word": _front_word,
    "count_tight": _count_tight,
    "enum": _enum,
    "glue": _glue,
}
