"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_a_function_of_the_seed(workload):
    a, b, c = gen.make(workload, 7), gen.make(workload, 7), gen.make(workload, 8)
    assert a.files == b.files and a.ops == b.ops
    assert (a.domain and a.domain.ops) == (b.domain and b.domain.ops)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()


def test_out_of_domain_ops_are_outside_the_timed_cycle():
    # a failing op in the cycle would be counted once per cycle run
    wl = gen.make("layer_geometry", 7)
    assert not any(data.get("out_of_domain") for _kind, data in wl.checks)
    assert len(wl.domain.ops) == gen.OUT_OF_DOMAIN_OPS
    assert all(data.get("out_of_domain") for _kind, data in wl.domain.checks)


def test_self_time_on_nested_spans():
    # root [0,100] holds a [10,40] (which holds b [20,30]) and c [50,90],
    # whose counting work runs to 95; d [200,210] is a second root
    spans = [
        ("root", 0, 100, 100, -1, 0),
        ("a", 10, 40, 40, 0, 0),
        ("b", 20, 30, 30, 1, 0),
        ("c", 50, 90, 95, 0, 0),
        ("d", 200, 210, 210, -1, 1),
    ]
    assert tracing.self_times(spans) == [100 - 30 - 45, 30 - 10, 10, 40, 10]


def test_self_time_clips_overlapping_children():
    spans = [("p", 0, 10, 10, -1, 0), ("x", 2, 6, 6, 0, 0), ("y", 4, 12, 12, 0, 0)]
    assert tracing.self_times(spans)[0] == 2


def _crsdiag_namespaces():
    import crsdiag.cli  # noqa: F401  (loads every module)
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if module is not None and (name == "crsdiag" or name.startswith("crsdiag."))}


def test_unwrapping_restores_every_function():
    before = _crsdiag_namespaces()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        import crsdiag
        import crsdiag.bridge
        import crsdiag.cli
        import crsdiag.homology
        for module in (crsdiag, crsdiag.cli, crsdiag.bridge, crsdiag.homology):
            assert module.h1_dehn is not before["crsdiag.homology"]["h1_dehn"]
        assert crsdiag.cli.main is not before["crsdiag.cli"]["main"]
    finally:
        tracer.uninstall()
    after = _crsdiag_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        assert after[name].keys() == namespace.keys()
        for attr, value in namespace.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"


def test_traced_spans_nest_and_count(tmp_path):
    wl = gen.make("pm1_pipeline", 1)
    ops = wl.ops[-4:]  # the last, smallest diagram's pipeline
    for rel, text in wl.files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    import crsdiag.cli as cli
    tracer = tracing.Tracer()
    tracer.install()
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        for i, op in enumerate(ops):
            tracer.op = i
            rc, out = _run(cli, op, tmp_path)
            assert rc == 0 and json.loads(out)
    finally:
        os.chdir(cwd)
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["dsl.parse_file_calls"] == 4
    assert metrics["homology.smith_normal_form_calls"] >= 2
    assert abs(sum(metrics[f"{layer}.share"] for layer in tracing.LAYERS) - 1) < 1e-9
    roots = [s for s in tracer.spans if s[4] == -1]
    assert [s[0] for s in roots] == ["cli.main"] * 4


# --- oracles flag planted wrong answers ---------------------------------------

def _run(cli, op, cwd):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(op["argv"])
    if op.get("save") and rc == 0:
        (Path(cwd) / op["save"]).write_text(json.loads(out.getvalue())["dsl"])
    return rc, out.getvalue()


def _records(workload, plants, tmp_path, seed=1):
    """First op of each planted kind whose output the plant can edit, run in
    process: {kind: (check data, record)}."""
    import crsdiag.cli as cli
    wl = gen.make(workload, seed)
    for rel, text in wl.files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    found = {}
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        for op, (kind, data) in zip(wl.ops, wl.checks):
            wanted = kind in plants and kind not in found
            if not wanted and not op.get("save"):
                continue
            rc, out = _run(cli, op, tmp_path)
            record = {"rc": rc, "exc": None, "out": out}
            if wanted and record["rc"] == 0:
                try:
                    _corrupt(record, plants[kind])
                except (KeyError, IndexError):
                    continue
                found[kind] = (data, record)
            if len(found) == len(plants):
                break
    finally:
        os.chdir(cwd)
    return found


def _corrupt(record, edit):
    obj = copy.deepcopy(json.loads(record["out"]))
    edit(obj)
    return dict(record, out=json.dumps(obj))


def _flagged(kind, data, record):
    return checks.check(kind, data, record, {})


PM1 = {
    "pm1_homology": lambda o: o["components"][0].update(free_rank=o["components"][0]["free_rank"] + 1),
    "pm1_to_round": lambda o: o["plan"].update(case_id=o["plan"]["case_id"] % 4 + 1),
    "pm1_to_pm1": lambda o: o["diagrams"][0]["surgeries"][0].update(
        coefficient="1" if o["diagrams"][0]["surgeries"][0]["coefficient"] == "-1" else "-1"),
}
FRONT = {
    "front_parse": lambda o: o["diagrams"][0]["components"][0].update(rot=99),
    "front_invariants": lambda o: o["components"][0].update(tb=o["components"][0]["tb"] - 1),
    "front_homology": lambda o: o["components"][0].update(free_rank=o["components"][0]["free_rank"] + 1),
    "check_nice": lambda o: o["pairs"][0].update(nice=not o["pairs"][0]["nice"]),
    "fillable": lambda o: o.update(fillable=not o["fillable"]),
    "front_word": lambda o: o["components"][0].update(rot=o["components"][0]["rot"] + 1),
}
LAYER = {
    "count_tight": lambda o: o["matrix"][0].__setitem__(0, o["matrix"][0][0] + 1),
    "enum": lambda o: o["configs"].pop(),
    "glue": lambda o: o.update(overtwisted=not o["overtwisted"]),
}


@pytest.mark.parametrize("workload,plants", [("pm1_pipeline", PM1), ("front_files", FRONT),
                                             ("layer_geometry", LAYER)])
def test_oracles_accept_the_program_and_flag_planted_errors(workload, plants, tmp_path):
    found = _records(workload, plants, tmp_path)
    assert set(found) == set(plants)
    for kind, edit in plants.items():
        data, record = found[kind]
        assert _flagged(kind, data, record) == [], kind
        assert _flagged(kind, data, _corrupt(record, edit)), f"{kind}: planted error not flagged"


def test_h1_oracle_flags_a_corrupted_group():
    rows = [[2, 1], [1, 3]]  # det 5: Z/5
    data = {"rows": rows, "group": "g"}
    ok = {"rc": 0, "exc": None, "out": json.dumps({"components": [{"free_rank": 0, "torsion": [5]}]})}
    assert checks.check("pm1_homology", data, ok, {}) == []
    for group in ({"free_rank": 1, "torsion": []}, {"free_rank": 0, "torsion": [6]},
                  {"free_rank": 0, "torsion": [1, 5]}):
        bad = dict(ok, out=json.dumps({"components": [group]}))
        assert checks.check("pm1_homology", copy.deepcopy(data), bad, {})


def test_error_contract():
    data = {}
    assert checks.check("error", data, {"rc": 1, "exc": None,
                                        "out": '{"error": {"code": 1, "kind": "X"}}'}, {}) == []
    assert checks.check("error", data, {"rc": None, "exc": "ValueError", "out": ""}, {})
    assert checks.check("error", data, {"rc": 0, "exc": None, "out": '{"cf": [-2]}'}, {})
    assert checks.check("error", data, {"rc": 2, "exc": "SystemExit", "out": "usage"}, {})

    # through verify(): only an out-of-domain op's crash is not a wrong answer
    wl = gen.Workload()
    wl.add(["cf", "0/0"], "error", {"out_of_domain": True})
    wl.add(["parse", "--diagram", "d", "mutated.crs"], "error", {})
    crash = {"rc": None, "exc": "ValueError", "out": ""}
    accepted = {"rc": 0, "exc": None, "out": '{"cf": [-2]}'}
    internal = {"rc": 3, "exc": None, "out": '{"error": {"code": 3, "kind": "X"}}'}
    rejected = {"rc": 1, "exc": None, "out": '{"error": {"code": 1, "kind": "X"}}'}

    def verdict(op, record):
        failures, wrong = run.verify(wl, [dict(record, i=0, op=op)])
        return len(failures), wrong

    assert verdict(0, rejected) == verdict(1, rejected) == (0, 0)
    assert verdict(0, crash) == (1, 0)
    for op, record in ((0, accepted), (0, internal), (1, crash), (1, accepted)):
        assert verdict(op, record) == (1, 1), (op, record)


def test_relative_latencies_cancel_host_speed():
    # op 1 costs three references; a host half as fast doubles both timings
    fast = [{"op": i % 2, "ref": 1e-3, "cpu": (1 + 2 * (i % 2)) * 1e-3} for i in range(10)]
    slow = [dict(rec, ref=2 * rec["ref"], cpu=2 * rec["cpu"]) for rec in fast]
    assert run.relative_latencies(fast) == pytest.approx([1, 3])
    assert run.relative_latencies(slow) == pytest.approx([1, 3])
    # one slow reference timing does not move its neighbours' figures
    spiked = copy.deepcopy(fast)
    spiked[4]["ref"] = 5e-3
    assert run.relative_latencies(spiked) == pytest.approx([1, 3])
