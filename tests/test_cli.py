import contextlib
import hashlib
import io
import json
import subprocess
import sys
import textwrap
import time

import pytest

from crsdiag import dsl
from conftest import (
    FIXTURES,
    corrupt_certificates,
    optimized_env,
    random_contact_text,
    run_cli,
    run_optimized,
)
import reference_arcs


def fixture(name):
    return str(FIXTURES / name)


def test_parse_shape():
    code, out = run_cli(["parse", fixture("single_plus1_unknot.crs")])
    assert code == 0
    data = json.loads(out)
    assert data["diagrams"][0]["name"] == "s1xs2"
    assert data["diagrams"][0]["surgeries"] == [{"component": "K", "coefficient": "1"}]


def test_homology_round2_fixture():
    code, out = run_cli(["homology", fixture("round2_unknot_plus1.crs")])
    assert code == 0
    assert out == '{"components":[{"free_rank":1,"torsion":[]},{"free_rank":0,"torsion":[]}]}\n'


def test_homology_round1_fixture():
    code, out = run_cli(["homology", fixture("hopf_round1_invariant.crs")])
    assert code == 0
    assert json.loads(out) == {"components": [{"free_rank": 2, "torsion": []}]}


def test_homology_contact_hopf():
    code, out = run_cli(["homology", fixture("hopf_contact_minus1.crs")])
    assert code == 0
    assert json.loads(out) == {"components": [{"free_rank": 0, "torsion": [3]}]}


def test_cf_command():
    code, out = run_cli(["cf", "-5/2"])
    assert code == 0
    assert out == '{"cf":[-3,-2]}\n'


def test_cf_domain_error_exit_code():
    code, out = run_cli(["cf", "0"])
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "DomainError"


def test_count_tight_command():
    code, out = run_cli(["count-tight", "--slope0", "-1", "--slope1", "-5/2"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == {"kind": "finite", "value": 4}
    code, out = run_cli(["count-tight", "--slope0", "-1", "--slope1", "-1"])
    assert json.loads(out)["count"] == {"kind": "infinite_z_indexed"}
    code, out = run_cli(["count-tight", "--slope0", "-1", "--slope1", "-1", "--twisting", "2"])
    assert json.loads(out)["count"] == {"kind": "two_per_twisting"}
    code, out = run_cli(["count-tight", "--slope0", "-1", "--slope1", "-1", "--ndiv", "4"])
    assert json.loads(out)["count"]["kind"] == "unsupported"


def test_normalize_slopes_command():
    code, out = run_cli(["normalize-slopes", "--slope0", "inf", "--slope1", "0"])
    assert code == 0
    data = json.loads(out)
    assert data["images"][0] == "-1"


def test_enum_configs_command():
    code, out = run_cli(["enum-configs", "--n0", "1", "--n1", "1", "--max-winding", "2"])
    assert code == 0
    assert json.loads(out)["count"] == 5


ENUM_CELLS = [(n0, n1, w) for n0 in range(1, 5) for n1 in range(1, 5) for w in range(3)]


def test_enum_configs_streams_the_bytes_of_one_json_dumps():
    """enum-configs writes its configurations one at a time, each arc encoded
    once; stdout is what one json.dumps of the whole payload printed.  The
    indented layout is checked on the cells of up to 2,000 configurations,
    where json.dumps takes under half a second in all; on the seven larger
    cells it takes seconds more."""
    from crsdiag.slopes import count_configurations, enumerate_configurations

    pretty_cells = 0
    for n0, n1, w in ENUM_CELLS:
        argv = ["enum-configs", "--n0", str(n0), "--n1", str(n1), "--max-winding", str(w)]
        configs = enumerate_configurations(n0, n1, w)
        assert run_cli(argv) == (0, reference_arcs.configs_stdout(configs, pretty=False))
        if count_configurations(n0, n1, w) <= 2_000:
            pretty_cells += 1
            assert run_cli(["--pretty"] + argv) == (
                0, reference_arcs.configs_stdout(configs, pretty=True))
    assert pretty_cells == len(ENUM_CELLS) - 7


def test_enum_configs_on_a_real_stdout_under_optimize():
    """The streamed writes reach the interpreter's own stdout, a TextIOWrapper
    over a pipe, and end in one newline under python -O."""
    argv = ["enum-configs", "--n0", "3", "--n1", "3", "--max-winding", "1"]
    result = subprocess.run([sys.executable, "-O", "-m", "crsdiag.cli", *argv],
                            capture_output=True, env=optimized_env())
    assert (result.returncode, result.stderr) == (0, b"")
    code, out = run_cli(argv)
    assert code == 0 and out.count("\n") == 1
    assert result.stdout == out.encode()


def _forbid_enumeration(monkeypatch):
    import crsdiag.cli as cli
    import crsdiag.dividing as dividing

    def forbidden(*args):
        raise AssertionError("an ArcConfig was built")

    monkeypatch.setattr(cli, "enumerate_configurations", forbidden)
    monkeypatch.setattr(dividing.ArcConfig, "_trusted", forbidden)
    monkeypatch.setattr(dividing, "_validate", forbidden)


def test_enum_configs_count_only_builds_no_configuration(monkeypatch):
    _forbid_enumeration(monkeypatch)
    code, out = run_cli(["enum-configs", "--count-only", "--n0", "5", "--n1", "5",
                         "--max-winding", "0"])
    assert (code, out) == (0, '{"count":60626}\n')


def test_enum_configs_limit_refuses_before_enumerating(monkeypatch):
    from crsdiag.cli import ENUM_LIMIT

    assert ENUM_LIMIT >= 100_000
    _forbid_enumeration(monkeypatch)
    code, out = run_cli(["enum-configs", "--n0", "2", "--n1", "2", "--max-winding", "0",
                         "--limit", "16"])
    assert code == 1
    assert json.loads(out)["error"] == {
        "code": 1, "kind": "LimitExceeded",
        "message": "the cell has 17 configurations, more than --limit 16"}
    code, out = run_cli(["enum-configs", "--n0", "5", "--n1", "5", "--max-winding", "1"])
    assert code == 1
    assert json.loads(out)["error"]["message"] == (
        f"the cell has 181878 configurations, more than --limit {ENUM_LIMIT}")


def test_enum_configs_limit_admits_its_own_count():
    code, out = run_cli(["enum-configs", "--n0", "2", "--n1", "2", "--max-winding", "0",
                         "--limit", "17"])
    assert code == 0
    assert out == run_cli(["enum-configs", "--n0", "2", "--n1", "2", "--max-winding", "0"])[1]
    assert json.loads(out)["count"] == 17


def test_enum_configs_limit_has_a_ceiling(monkeypatch):
    from crsdiag.cli import ENUM_LIMIT, ENUM_MAX_LIMIT

    assert ENUM_LIMIT <= ENUM_MAX_LIMIT <= 1_000_000
    _forbid_enumeration(monkeypatch)
    cell = ["enum-configs", "--n0", "9", "--n1", "9", "--max-winding", "0"]
    for limit in (ENUM_MAX_LIMIT + 1, 10**30):
        code, out = run_cli(cell + ["--limit", str(limit)])
        assert (code, out) == (1, '{"error":{"code":1,"kind":"LimitExceeded","message":'
                                  f'"--limit is more than {ENUM_MAX_LIMIT}, '
                                  'the most configurations enumerated"}}\n')
    code, out = run_cli(cell + ["--limit", str(ENUM_MAX_LIMIT)])
    assert code == 1 and "3355615450 configurations" in json.loads(out)["error"]["message"]
    # --count-only enumerates nothing, so it reads no --limit
    assert run_cli(cell + ["--count-only", "--limit", str(10**30)]) == (0, '{"count":3355615450}\n')


def test_enum_configs_domain_error_comes_first():
    for extra in ([], ["--count-only"], ["--limit", "0"]):
        code, out = run_cli(["enum-configs", "--n0", "0", "--n1", "2", "--max-winding", "0"] + extra)
        assert (code, out) == (1, '{"error":{"code":1,"kind":"DomainError",'
                                  '"message":"need at least one pair of dividing curves per side"}}\n')


@pytest.mark.parametrize("args, message", [
    (["--n0", "5000", "--n1", "5000", "--max-winding", "0"],
     "n0 + n1 is more than 5000, the largest cell counted"),
    (["--count-only", "--n0", "300000", "--n1", "300000", "--max-winding", "0"],
     "n0 + n1 is more than 5000, the largest cell counted"),
    (["--n0", "3", "--n1", "3", "--max-winding", "9" * 4299],
     "max_winding is more than 1000000, the largest winding counted"),
])
def test_enum_configs_bounds_refuse_before_any_binomial(monkeypatch, args, message):
    import crsdiag.slopes as slopes

    def forbidden(*_):
        raise AssertionError("a binomial was computed")

    monkeypatch.setattr(slopes, "comb", forbidden)
    code, out = run_cli(["enum-configs"] + args)
    assert (code, json.loads(out)) == (1, {"error": {"code": 1, "kind": "LimitExceeded",
                                                     "message": message}})


def test_homology_prints_torsion_longer_than_the_str_digit_limit(tmp_path):
    # lk = 10**3000 - 1 on two tb = -1 components with contact -1 surgery:
    # the order of H1 is lk**2 - 4, a 6,000-digit integer
    path = tmp_path / "big.crs"
    path.write_text("diagram big {\n  component A { tb = -1; rot = 0; }\n"
                    "  component B { tb = -1; rot = 0; }\n  lk(A, B) = " + "9" * 3000 + ";\n"
                    "  contact_surgery A = -1;\n  contact_surgery B = -1;\n}\n")
    order = "9" * 2999 + "7" + "9" * 2999 + "7"
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out = run_cli(["homology", str(path)])
    assert (code, out) == (0, '{"components":[{"free_rank":0,"torsion":[' + order + ']}]}\n')
    code, out = run_cli(["--pretty", "homology", str(path)])
    assert code == 0 and out.split() == ['{', '"components":', '[', '{', '"free_rank":', '0,',
                                         '"torsion":', '[', order, ']', '}', ']', '}']
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_glue_annuli_command():
    code, out = run_cli([
        "glue-annuli", "--top-marks", "2", "--bottom-marks", "2",
        "--a", "T(0,0,0) T(1,1,0)", "--b", "P(top,0,1) P(bottom,0,1)",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["overtwisted"] is True
    assert [(c["h"], c["v"]) for c in data["curves"]] == [[0, 0]] or \
        [(c["h"], c["v"]) for c in data["curves"]] == [(0, 0)]


def test_glue_annuli_marks_cost_no_memory_per_mark():
    # a list with one entry per marked point would need about 8 TB here
    code, out = run_cli([
        "glue-annuli", "--top-marks", str(10**12), "--bottom-marks", "2",
        "--a", "T(0,0,0) T(1,1,0)", "--b", "T(0,0,0) T(1,1,0)",
    ])
    assert (code, json.loads(out)) == (1, {"error": {
        "code": 1, "kind": "InvalidArcConfig",
        "message": "top point 2 is endpoint of 0 arcs (need exactly 1)"}})


def test_gadget_command():
    code, out = run_cli(["gadget", "--m", "3"])
    assert code == 0
    data = json.loads(out)
    assert abs(data["selftest"]["determinant"]) == 1
    assert data["selftest"]["h1"] == {"free_rank": 0, "torsion": []}
    assert len(data["diagrams"][0]["components"]) == 4


# sha256 of `gadget --m 1..7` stdout, printed before the gadget size was bounded
GADGET_DIGESTS = {
    1: "b95c70c1cbd5438b220d61b6014627c73098aa09367873334fd77e6cc7842210",
    2: "e014b45ba8487e953f27561ae3497f962cef8b4869d7f0197db690ad218cfd8a",
    3: "e3df28bdf4ce8736c28ac753035974e7079e7ac3b3dde2d2d5513867b866933a",
    4: "fea0488c3cdc8517c42219698ba540cf51ef3e803bf365a08b81fdc4f4aa56ca",
    5: "38d9ae2b10a89d3d01ee00bdc684043fe053b77cd6af452aac9b2fce154d6add",
    6: "4ac566dcdca04ced24bf3579086c34caa6c8ecc1b99efa94e4fab964134bba34",
    7: "a3533a2dda0a5761217168222a247f6a321a17b6fdefe24d182aeb50e0fc5115",
}


def test_gadget_output_is_unchanged():
    for m, digest in GADGET_DIGESTS.items():
        code, out = run_cli(["gadget", "--m", str(m)])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, m


def test_gadget_bound_refuses_before_building(monkeypatch):
    import crsdiag.bridge as bridge
    from crsdiag.bridge import GADGET_MAX_M

    def forbidden(*args, **kwargs):
        raise AssertionError("a gadget component was built")

    monkeypatch.setattr(bridge, "LegendrianComponent", forbidden)
    # single_plus1_unknot takes one gadget of 2 * gadget_m components
    half = GADGET_MAX_M // 2 + 1
    calls = [(["gadget", "--m", str(GADGET_MAX_M + 1)], GADGET_MAX_M + 1),
             (["to-round", "--gadget-m", str(half), fixture("single_plus1_unknot.crs")], 2 * half)]
    for argv, m in calls:
        code, out = run_cli(argv)
        assert (code, json.loads(out)) == (1, {"error": {
            "code": 1, "kind": "LimitExceeded",
            "message": f"gadget parameter {m} is more than {GADGET_MAX_M}, "
                       "the largest gadget built"}}), argv


def test_gadget_bound_covers_the_second_gadget(tmp_path):
    from crsdiag.bridge import GADGET_MAX_M

    # even/odd: no +1 component and one -1 component, so two gadgets are
    # inserted, of 2 * gadget_m + 1 and 2 * gadget_m2 components
    path = tmp_path / "minus1.crs"
    path.write_text("diagram d {\n  component K { tb = -1; rot = 0; }\n"
                    "  contact_surgery K = -1;\n}\n")
    code, out = run_cli(["to-round", "--gadget-m", "1", "--gadget-m2", str(GADGET_MAX_M // 2),
                         str(path)])
    assert code == 0
    assert [g["m"] for g in json.loads(out)["plan"]["gadgets"]] == [3, GADGET_MAX_M]
    # unbounded, a gadget of m = 8 * GADGET_MAX_M would take minutes
    start = time.process_time()
    refused = [run_cli(["to-round", "--gadget-m", "1", "--gadget-m2", str(4 * GADGET_MAX_M),
                        str(path)]),
               run_cli(["gadget", "--m", str(8 * GADGET_MAX_M)])]
    assert time.process_time() - start < 0.5
    for code, out in refused:
        assert code == 1 and json.loads(out)["error"]["kind"] == "LimitExceeded"


def test_check_nice_and_fillable():
    code, out = run_cli(["check-nice", fixture("nice_hopf_pair.crs")])
    assert code == 0
    assert json.loads(out)["pairs"][0]["nice"] is True
    code, out = run_cli(["fillable", fixture("fillable_two_pairs.crs")])
    assert code == 0
    assert json.loads(out) == {"fillable": True}
    code, out = run_cli(["fillable", fixture("hopf_round1_invariant.crs")])
    assert json.loads(out) == {"fillable": False}


def test_invariants_word():
    code, out = run_cli(["invariants", "--word", "U1 U1 X2 X2 C1 C1"])
    assert code == 0
    data = json.loads(out)
    assert [c["tb"] for c in data["components"]] == [-1, -1]
    assert data["lk"] == [[0, 1, 1]]


def test_invariants_file():
    code, out = run_cli(["invariants", fixture("front_pair.crs")])
    assert code == 0
    data = json.loads(out)
    assert data["components"][0] == {"label": "A", "tb": -1, "rot": 0}


def test_round_trip_to_round_to_pm1(tmp_path):
    code, parse_out = run_cli(["parse", fixture("four_unknots_pm1.crs")])
    assert code == 0
    code, to_round_out = run_cli(["to-round", fixture("four_unknots_pm1.crs")])
    assert code == 0
    payload = json.loads(to_round_out)
    assert payload["plan"]["case_id"] == 1
    assert payload["plan"]["gadgets"] == []
    round_file = tmp_path / "round.crs"
    round_file.write_text(payload["dsl"])
    code, back_out = run_cli(["to-pm1", str(round_file)])
    assert code == 0
    assert back_out == parse_out  # byte-identical canonical JSON


def test_to_round_text_is_a_fixed_point(tmp_path, rng):
    """The .crs text that to-round prints is canonical: parsing and printing
    it gives it back byte for byte, in every parity case."""
    paths = [fixture(name) for name in ("four_unknots_pm1.crs", "hopf_contact_minus1.crs",
                                        "single_plus1_unknot.crs")]
    for i in range(20):
        path = tmp_path / f"d{i}.crs"
        path.write_text(random_contact_text(rng, f"d{i}"))
        paths.append(str(path))
    cases = set()
    for path in paths:
        for k, m in ((1, 1), (0, 2), (-2, 3)):
            code, out = run_cli(["to-round", "--k", str(k), "--gadget-m", str(m), path])
            assert code == 0, out
            payload = json.loads(out)
            assert dsl.print_file(dsl.parse_file(payload["dsl"])) == payload["dsl"]
            cases.add(payload["plan"]["case_id"])
    assert cases == {1, 2, 3, 4}


def test_diagram_selection_by_name(tmp_path):
    text = (FIXTURES / "nice_hopf_pair.crs").read_text()
    multi = tmp_path / "multi.crs"
    multi.write_text(text + "\n" + text.replace("nice_pair", "second"))
    code, out = run_cli(["parse", "--diagram", "second", str(multi)])
    assert code == 0
    assert json.loads(out)["diagrams"][0]["name"] == "second"
    code, out = run_cli(["homology", str(multi)])  # ambiguous without a name
    assert code == 1
    code, out = run_cli(["homology", "--diagram", "second", str(multi)])
    assert code == 0


def test_exit_code_2_on_syntax_error(tmp_path):
    bad = tmp_path / "bad.crs"
    bad.write_text("diagram d { component A { tb = x; } }")
    code, out = run_cli(["parse", str(bad)])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["code"] == 2 and "line" in error


def test_exit_code_1_on_semantic_error(tmp_path):
    bad = tmp_path / "bad.crs"
    bad.write_text(
        "diagram d { component A { tb = -1; rot = 0; } lk(A, A) = 1; contact_surgery A = 1; }"
    )
    code, out = run_cli(["parse", str(bad)])
    assert code == 1
    assert json.loads(out)["error"]["code"] == 1


def test_exit_code_1_on_missing_file():
    code, out = run_cli(["parse", "/nonexistent/x.crs"])
    assert code == 1
    assert out == ('{"error":{"code":1,"kind":"IOError","message":'
                   '"[Errno 2] No such file or directory: \'/nonexistent/x.crs\'"}}\n')


FILE_SUBCOMMANDS = ("parse", "invariants", "homology", "to-round", "to-pm1", "check-nice",
                    "fillable")


@pytest.mark.parametrize("pretty", [[], ["--pretty"]], ids=["compact", "pretty"])
@pytest.mark.parametrize("command", FILE_SUBCOMMANDS)
def test_non_utf8_file_is_a_read_error(tmp_path, command, pretty):
    path = tmp_path / "binary.crs"
    path.write_bytes(b"\xff\xfe diagram")
    code, out, err = run_cli_with_stderr([*pretty, command, str(path)])
    assert (code, err) == (1, "")
    message = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    payload = {"error": {"code": 1, "kind": "IOError", "message": message}}
    assert out == (json.dumps(payload, indent=2) if pretty
                   else json.dumps(payload, separators=(",", ":"))) + "\n"


def test_exit_code_3_on_self_test_failure(monkeypatch, tmp_path):
    import crsdiag.cli as cli
    from crsdiag.errors import GadgetSelfTestFailed

    def broken(m):
        raise GadgetSelfTestFailed("configured linking data failed the homology oracle")

    monkeypatch.setattr(cli, "kirby1_gadget", broken)
    code, out = run_cli(["gadget", "--m", "1"])
    assert code == 3
    assert json.loads(out)["error"]["code"] == 3


def test_exit_code_3_on_certificate_failure(monkeypatch):
    corrupt_certificates(monkeypatch)
    code, out = run_cli(["homology", fixture("hopf_contact_minus1.crs")])
    assert code == 3
    error = json.loads(out)["error"]
    assert error["code"] == 3
    assert error["kind"] == "CertificateError"


def test_exit_code_3_on_unit_phase_certificate_failure_under_optimize():
    # the Hopf presentation [[-2, 1], [1, -2]] has +-1 entries, so the first
    # step that corrupt_certificates raises is a sub step of the unit phase
    from crsdiag.homology import IntMatrix, smith_normal_form

    first_group = smith_normal_form(IntMatrix.from_rows([[-2, 1], [1, -2]])).operations[0]
    assert first_group[0] == 0 and first_group[1][0][0] == "sub"
    script = textwrap.dedent(f"""
        import contextlib, io, json, sys
        import pytest
        from conftest import corrupt_certificates
        from crsdiag.cli import main

        corrupt_certificates(pytest.MonkeyPatch())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["homology", {fixture("hopf_contact_minus1.crs")!r}])
        print(json.dumps([sys.flags.optimize, code, json.loads(out.getvalue())]))
    """)
    result = run_optimized(script)
    assert result.returncode == 0, result.stderr
    optimize, code, body = json.loads(result.stdout)
    assert (optimize, code, body["error"]["code"], body["error"]["kind"]) == (
        1, 3, 3, "CertificateError")


def test_overlong_integer_literal_is_a_parse_error(tmp_path):
    # more digits than int() converts by default (4300)
    path = tmp_path / "long.crs"
    path.write_text("diagram d {\n  component K { tb = -" + "9" * 5000 + "; rot = 0; }\n"
                    "  contact_surgery K = 1;\n}\n")
    code, out = run_cli(["parse", str(path)])
    assert code == 2
    assert json.loads(out)["error"] == {
        "code": 2, "kind": "DslSyntaxError",
        "message": "integer literal of 5000 digits is too long", "line": 2, "col": 23}


def test_overlong_front_position_is_a_json_error(tmp_path):
    # more digits than int() converts by default (4300), and more than any
    # strand position of the word
    token = "U" + "1" * 5000
    expected = {"error": {"code": 1, "kind": "PositionError",
                          "message": f"{token}: cup position out of range with 0 strands"}}
    code, out = run_cli(["invariants", "--word", f"{token} C1"])
    assert (code, json.loads(out)) == (1, expected)
    path = tmp_path / "long_front.crs"
    path.write_text(f'diagram d {{\n  component K {{ front = "{token} C1"; }}\n'
                    "  contact_surgery K = 1;\n}\n")
    for command in ("parse", "invariants"):
        code, out = run_cli([command, str(path)])
        assert (code, json.loads(out)) == (1, expected)
    code, out = run_cli(["invariants", "--word", "U" + "0" * 5000 + "1 C01"])
    assert code == 0 and json.loads(out)["word"] == "U1 C1"


ALL_COMMANDS = [
    ["parse", fixture("hopf_contact_minus1.crs")],
    ["parse", fixture("front_pair.crs")],
    ["homology", fixture("round2_unknot_plus1.crs")],
    ["homology", fixture("nice_hopf_pair.crs")],
    ["invariants", fixture("front_pair.crs")],
    ["invariants", "--word", "U1 U2 C2 C1"],
    ["to-round", fixture("four_unknots_pm1.crs")],
    ["to-round", "--k", "2", "--gadget-m", "2", fixture("single_plus1_unknot.crs")],
    ["check-nice", fixture("fillable_two_pairs.crs")],
    ["fillable", fixture("fillable_two_pairs.crs")],
    ["cf", "-17/5"],
    ["count-tight", "--slope0", "inf", "--slope1", "0"],
    ["normalize-slopes", "--slope0", "-1", "--slope1", "-7/3"],
    ["enum-configs", "--n0", "2", "--n1", "1", "--max-winding", "1"],
    ["enum-configs", "--count-only", "--n0", "3", "--n1", "4", "--max-winding", "2"],
    ["glue-annuli", "--top-marks", "2", "--bottom-marks", "2",
     "--a", "T(0,0,0) T(1,1,0)", "--b", "T(0,0,0) T(1,1,0)"],
    ["gadget", "--m", "4"],
]


@pytest.mark.parametrize("args", ALL_COMMANDS, ids=lambda a: a[0] + "-" + a[-1][-24:])
def test_determinism_byte_identical(args):
    code1, out1 = run_cli(args)
    code2, out2 = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2
    # and pretty mode is json.dumps' indent=2 layout of the same value
    codep, outp = run_cli(["--pretty"] + args)
    assert codep == 0
    assert outp == json.dumps(json.loads(out1), indent=2) + "\n"


OUT_OF_DOMAIN = [
    ["cf", "0/0"],
    ["cf", "abc"],
    ["count-tight", "--slope0=0/0", "--slope1=-3"],
    ["count-tight", "--slope0=-2", "--slope1=abc"],
    ["count-tight", "--slope0=-2", "--slope1=-3", "--ndiv", "3"],
    ["normalize-slopes", "--slope0", "1/x", "--slope1", "0"],
    ["glue-annuli", "--top-marks", "2", "--bottom-marks", "2",
     "--a", "T(x,0,0) T(1,1,0)", "--b", "T(0,0,0) T(1,1,0)"],
    ["glue-annuli", "--top-marks", "2", "--bottom-marks", "2",
     "--a", "P(left,0,1) T(1,1,0)", "--b", "T(0,0,0) T(1,1,0)"],
    ["glue-annuli", "--top-marks", "4", "--bottom-marks", "2",
     "--a", "P(top,1,0) P(top,3,2) P(bottom,0,1)", "--b", "P(top,0,1) P(top,2,3) P(bottom,0,1)"],
    ["enum-configs", "--n0", "2", "--n1", "2", "--max-winding", "0", "--limit", "16"],
]


@pytest.mark.parametrize("args", OUT_OF_DOMAIN, ids=lambda a: " ".join(a)[:40])
def test_out_of_domain_input_gives_json_error(args):
    code, out = run_cli(args)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["code"] == 1 and error["message"]


def run_cli_with_stderr(args):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(args)
    return code, out, err.getvalue()


@pytest.mark.parametrize("args", [
    ["gadget", "--m", "x"], ["frob"], ["enum-configs", "--n0", "1"], [], ["--pretty"],
    ["cf", "-5/2", "extra"], ["glue-annuli", "--top-marks"], ["count-tight", "--slope0=-2"],
], ids=lambda a: " ".join(a) or "no-args")
def test_usage_error_is_one_json_error(args):
    code, out, err = run_cli_with_stderr(args)
    assert (code, err) == (2, "")
    assert out.count("\n") == 1
    error = json.loads(out)["error"]
    assert (error["code"], error["kind"]) == (2, "UsageError") and error["message"]


@pytest.mark.parametrize("args", [
    ["--pretty", "gadget", "--m", "x"], ["--pretty", "cf", "-5/2", "extra"],
    ["--pretty", "enum-configs", "--n0", "1"],
], ids=" ".join)
def test_usage_error_after_pretty_and_a_subcommand_is_indented(args):
    code, out, err = run_cli_with_stderr(args)
    assert (code, err) == (2, "")
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2) + "\n"
    compact = run_cli_with_stderr(args[1:])
    assert compact[:2] == (2, json.dumps(payload, separators=(",", ":")) + "\n")


def test_usage_error_names_the_subcommand():
    code, out, err = run_cli_with_stderr(["gadget", "--m", "x"])
    assert out == ('{"error":{"code":2,"kind":"UsageError",'
                   '"message":"crsdiag gadget: argument --m: invalid int value: \'x\'"}}\n')


@pytest.mark.parametrize("args", [["-h"], ["--help"], ["gadget", "-h"], ["enum-configs", "--help"]])
def test_help_still_prints_text(args):
    code, out, err = run_cli_with_stderr(args)
    assert (code, err) == (0, "")
    assert out.startswith("usage: crsdiag")


def test_cached_parser_matches_fresh_parser():
    """main reuses one parser; a sequence of calls prints what each call prints alone."""
    from crsdiag.cli import _build_parser

    argvs = ALL_COMMANDS + OUT_OF_DOMAIN + [["cf", "-7/3"], ["--pretty", "cf", "-7/3"],
                                            ["count-tight", "--slope0", "-1", "--slope1", "-1",
                                             "--ndiv", "4"]]
    alone = []
    for args in argvs:
        _build_parser.cache_clear()
        alone.append(run_cli(args))
    for order in (argvs, argvs[::-1]):
        in_sequence = {tuple(args): run_cli(args) for args in order}
        assert [in_sequence[tuple(args)] for args in argvs] == alone
    assert _build_parser.cache_info().currsize == 1


def test_console_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "crsdiag.cli", "cf", "-5/2"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert result.stdout == '{"cf":[-3,-2]}\n'


def test_cli_under_optimize_matches_in_process(tmp_path):
    bad_layer = tmp_path / "bad_layer.crs"
    bad_layer.write_text(
        "round_diagram d {\n"
        "  component A { tb = -1; rot = 0; }\n"
        "  component B { tb = -1; rot = 0; }\n"
        "  joint_pair (A, B) { r1 = 0, 0; r2 = -1; layer = rotative_plus(0); }\n"
        "}\n"
    )
    calls = [pretty + [command, str(path)]
             for path in sorted(FIXTURES.glob("*.crs")) + [bad_layer]
             for command in ("parse", "invariants", "homology", "to-round", "to-pm1",
                             "check-nice", "fillable")
             for pretty in ([], ["--pretty"])]
    calls += [["gadget", "--m", str(m)] for m in (1, 2, 3)]
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        from crsdiag.cli import main

        results = []
        for argv in json.load(sys.stdin):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            results.append([code, out.getvalue()])
        print(json.dumps({"optimize": sys.flags.optimize, "results": results}))
    """)
    result = run_optimized(script, stdin=json.dumps(calls))
    assert result.returncode == 0, result.stderr
    optimized = json.loads(result.stdout)
    assert optimized["optimize"] == 1
    in_process = [list(run_cli(argv)) for argv in calls]
    assert optimized["results"] == in_process
    for argv, (code, out) in zip(calls, in_process):
        if str(bad_layer) in argv:
            error = json.loads(out)["error"]
            assert (code, error["message"], error["line"]) == (2, "bad layer parameter 0", 4)
