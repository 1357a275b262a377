import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from crsdiag import TraversingArc, dsl
from conftest import (
    FIXTURES,
    MIXED_ROUND_TEXT,
    corrupt_certificates,
    lk_heavy_pm1_text,
    optimized_env,
    random_contact_text,
    run_cli,
    run_optimized,
)
import reference_arcs
from test_dividing import _drawn_arcs


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


# Run under `python -I`: the sources come from argv, not from PYTHONPATH.
STDLIB_ONLY_SCRIPT = """
import contextlib, io, json, sys
started = set(sys.modules)  # the interpreter's start-up, site included
sys.path.insert(0, sys.argv[1])
import crsdiag.cli
fixture = sys.argv[2]
calls = [["parse", fixture], ["homology", fixture], ["to-round", fixture],
         ["count-tight", "--slope0", "-1", "--slope1", "-5/2"],
         ["glue-annuli", "--top-marks", "2", "--bottom-marks", "2",
          "--a", "T(0,0,0) T(1,1,0)", "--b", "P(top,0,1) P(bottom,0,1)"],
         ["enum-configs", "--count-only", "--n0", "3", "--n1", "3", "--max-winding", "1"]]
codes = []
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(crsdiag.cli.main(argv))
loaded = sorted(set(sys.modules) - started)
outside = [name for name in loaded if name.partition(".")[0] not in sys.stdlib_module_names | {"crsdiag"}]
print(json.dumps([codes, "crsdiag.cli" in loaded, outside]))
"""


def test_runtime_loads_only_the_standard_library():
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run([sys.executable, "-I", "-c", STDLIB_ONLY_SCRIPT, str(src),
                             fixture("four_unknots_pm1.crs")], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [[0] * 6, True, []]


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


def forged_enum_runs():
    """enum-configs (3,3,1) on two forged factor sets, as (exit code, stdout):
    count_configurations one more than the factors make, and a repeated side
    option.  The CLI counts the cell with the count_configurations it imported
    before the forgery, so only the factors' certificate sees the forged count."""
    import crsdiag.cli  # noqa: F401
    import crsdiag.slopes as slopes

    real_count, real_systems = slopes.count_configurations, slopes._side_systems

    def repeated(side, m, t):
        systems = list(real_systems(side, m, t))
        return systems + systems[:1]

    runs = []
    for name, forged in (("count_configurations", lambda *cell: real_count(*cell) + 1),
                         ("_side_systems", repeated)):
        setattr(slopes, name, forged)
        try:
            runs.append(run_cli(["enum-configs", "--n0", "3", "--n1", "3", "--max-winding", "1"]))
        finally:
            slopes.count_configurations, slopes._side_systems = real_count, real_systems
    return runs


def _assert_certificate_errors(runs):
    assert len(runs) == 2
    for code, out in runs:
        assert code == 3 and out.count("\n") == 1, out[:200]
        assert json.loads(out)["error"]["kind"] == "CertificateError"
        assert "configs" not in out


def test_forged_factors_print_only_the_certificate_error():
    _assert_certificate_errors(forged_enum_runs())


def test_forged_factors_print_only_the_certificate_error_under_optimize():
    result = run_optimized(textwrap.dedent("""
        import json, sys
        from test_cli import forged_enum_runs
        print(json.dumps([sys.flags.optimize, forged_enum_runs()]))
    """))
    assert result.returncode == 0, result.stderr
    optimize, runs = json.loads(result.stdout)
    assert optimize == 1
    _assert_certificate_errors(runs)


def test_enum_configs_peak_memory_does_not_grow_with_the_cell():
    """(5,5,1), 181,878 configurations, streams from its factors.  The child
    reports its own peak RSS, VmHWM: on Linux, ru_maxrss after exec starts at
    the forking parent's peak, which a pytest process can hold at 150 MB.
    Streaming measured about 26 MB; holding every configuration took 108 MB."""
    if not Path("/proc/self/status").exists():
        pytest.skip("VmHWM is read from Linux's /proc/self/status")
    script = textwrap.dedent("""
        import os, sys
        from crsdiag.cli import main
        with open(os.devnull, "w") as sink:
            sys.stdout = sink
            code = main(["enum-configs", "--n0", "5", "--n1", "5", "--max-winding", "1",
                         "--limit", "200000"])
            sys.stdout = sys.__stdout__
        with open("/proc/self/status") as status:
            peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
        print(code, peak)
    """)
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=optimized_env())
    assert result.returncode == 0, result.stderr
    code, peak_kb = map(int, result.stdout.split())
    assert code == 0
    assert peak_kb < 60 * 1024, peak_kb


def _forbid_enumeration(monkeypatch):
    import crsdiag.cli as cli
    import crsdiag.dividing as dividing

    def forbidden(*args):
        raise AssertionError("the enumeration ran")

    monkeypatch.setattr(cli, "configuration_factors", forbidden)
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


def test_standalone_round2_error_counts_the_joint_pairs_first(tmp_path):
    path = tmp_path / "mixed.crs"
    path.write_text(MIXED_ROUND_TEXT)
    code, out = run_cli(["to-pm1", str(path)])
    assert (code, json.loads(out)) == (1, {"error": {
        "code": 1, "kind": "UnsupportedComposition",
        "message": "round2[2] is not joint with any round 1-surgery"}})
    # homology reads the mixture: the connected result, then the inner pieces
    # of round2 G (5/2 on tb -1, Q = 2) and round2 H (3 on tb -1, Q = 1)
    code, out = run_cli(["homology", str(path)])
    assert code == 0
    assert json.loads(out)["components"][1:] == [{"free_rank": 0, "torsion": [2]},
                                                 {"free_rank": 0, "torsion": []}]


def test_a_knot_with_several_round2_surgeries_is_refused(tmp_path):
    path = tmp_path / "twice.crs"
    path.write_text(Path(fixture("nice_hopf_pair.crs")).read_text().replace(
        "}\n}", "}\n  round2 B { r2 = 1; }\n  round2 B { r2 = 2; }\n}"))
    for command in ("parse", "check-nice", "homology"):
        assert run_cli([command, str(path)]) == (1, (
            '{"error":{"code":1,"kind":"SemanticError","message":'
            '"round2[1] is a second round 2-surgery on component \'B\'; '
            'round2[2] is a second round 2-surgery on component \'B\'"}}\n')), command


def test_to_round_plan_pairs_are_the_round1_specs(tmp_path):
    from crsdiag import SlopeQ, pair_pm1_diagram

    # the +1 components are paired first, (C, D) then (A, B), but the round
    # diagram stores its pairs in canonical order, and the plan lists them so
    path = tmp_path / "pm1.crs"
    path.write_text("diagram d {\n"
                    + "".join(f"  component {c} {{ tb = -1; rot = 0; }}\n" for c in "ABCD")
                    + "".join(f"  contact_surgery {c} = {s};\n" for c, s in zip("ABCD", (-1, -1, 1, 1)))
                    + "}\n")
    rd, _plan = pair_pm1_diagram(dsl.parse_file(path.read_text()).get().diagram, k=2)
    assert [(r1.pair, r1.r2) for r1 in rd.round1] == [(("A", "B"), SlopeQ.of(-1)),
                                                      (("C", "D"), SlopeQ.of(1))]
    code, out = run_cli(["to-round", "--k", "2", str(path)])
    assert code == 0
    data = json.loads(out)
    assert data["plan"]["pairs"] == [
        {"a": r1.pair[0], "b": r1.pair[1], "round1": r1.coeff_a, "round2": str(r1.r2)}
        for r1 in rd.round1]
    assert [r1["pair"] for r1 in data["diagrams"][0]["round1"]] == [["A", "B"], ["C", "D"]]


def test_conversions_build_each_diagram_once(monkeypatch):
    """`named` attaches declarations and builds no diagram: each diagram a
    conversion prints is the one it computed, validated once when built."""
    import crsdiag.core as core

    built = []
    real = core.validate_diagram
    monkeypatch.setattr(core, "validate_diagram", lambda d: built.append(type(d).__name__) or real(d))
    expected = {
        # the parsed round diagram and joint_pairs_to_pm1's contact diagram
        ("to-pm1", "fillable_two_pairs.crs"): ["RoundSurgeryDiagram", "ContactSurgeryDiagram"],
        # the parsed diagram, the pairs, and the certificate's read-back
        ("to-round", "four_unknots_pm1.crs"): ["ContactSurgeryDiagram", "RoundSurgeryDiagram",
                                               "ContactSurgeryDiagram"],
        # the same with one gadget, built before the pairs
        ("to-round", "single_plus1_unknot.crs"): ["ContactSurgeryDiagram", "ContactSurgeryDiagram",
                                                  "RoundSurgeryDiagram", "ContactSurgeryDiagram"],
    }
    for (command, name), diagrams in expected.items():
        built.clear()
        assert run_cli([command, fixture(name)])[0] == 0
        assert built == diagrams, (command, name)


FILE_COMMANDS = ("parse", "invariants", "homology", "to-round", "to-pm1", "check-nice", "fillable")
# sha256 over "<exit code>\n<stdout>" of the plain run, then of the --pretty
# run, of each fixture and file subcommand; errors are pinned as well
FIXTURE_DIGESTS = {
    ("fillable_two_pairs.crs", "parse"): "0ffcea19c491eea48f8c51f0940a1313c76a9383ddf3b2925d723bc453f5d9bc",
    ("fillable_two_pairs.crs", "invariants"): "6f00359209dc9fd3e7d4f556d8a9d79d5e9c3e72877858e8745c54a1b1320a65",
    ("fillable_two_pairs.crs", "homology"): "8ad68c421ce342cddb91af59d09b174003e305dd6a389c89a46b331ba9953572",
    ("fillable_two_pairs.crs", "to-round"): "a768898cc164cf3cb8a576f92f73c81b3c8c992c9952b5daa16740b725c6d3ff",
    ("fillable_two_pairs.crs", "to-pm1"): "bf4cb46d3c315f71469fe2c293ea750675a586b6af5c3517ed2832b43fda9daa",
    ("fillable_two_pairs.crs", "check-nice"): "a31556e59fb91d72e45a25ec1ff67aea54777e5d0e55d0b3e6f4a253a4021e6f",
    ("fillable_two_pairs.crs", "fillable"): "aabab1638c4d5d4c9e9e1448ea2c308e05f5338a629d41ef6ce706a4ca8a01ae",
    ("four_unknots_pm1.crs", "parse"): "326f4566e7cfd910136950fce9b4758790b5d2ef9d4412d4417bd0a6765b06f7",
    ("four_unknots_pm1.crs", "invariants"): "2f74ad5dff7fa121ebb77fff05a543d449c0078c2aad5bed52c836128e381828",
    ("four_unknots_pm1.crs", "homology"): "84a9b85388adebf5c9c09fc6207bfc0cd753cc2a09d201113590971755dde75e",
    ("four_unknots_pm1.crs", "to-round"): "600cecfd404c1d8fd7d522dd1ed38d2f8113114cf3252cc01440bd00795ba203",
    ("four_unknots_pm1.crs", "to-pm1"): "9760c7f5f420d1fc56105b756ffeb44e124888e1c88c62b9baa8949b70a67162",
    ("four_unknots_pm1.crs", "check-nice"): "9760c7f5f420d1fc56105b756ffeb44e124888e1c88c62b9baa8949b70a67162",
    ("four_unknots_pm1.crs", "fillable"): "9760c7f5f420d1fc56105b756ffeb44e124888e1c88c62b9baa8949b70a67162",
    ("front_pair.crs", "parse"): "dea97fcff8a07151327cd4bc9ab6e753e8450ace2314e13f64a0ce2509494042",
    ("front_pair.crs", "invariants"): "d9eb4351cc8da3de0188dd5d57755f3af1a4b3e88d540cf9889236d34d7cac33",
    ("front_pair.crs", "homology"): "51a53dedc213dd53ff52faa5cd7979c49d9fa2631f3ea08f94f5ad28d5ba12f4",
    ("front_pair.crs", "to-round"): "4e72cef4a702fb5602138410c93c21522c70d9ab0ea5ed36f96a88820c9868d1",
    ("front_pair.crs", "to-pm1"): "d84015807b8ef7c795d4c52b582d5d075e033ccd273f3f2b80c007ace7c40ec8",
    ("front_pair.crs", "check-nice"): "d84015807b8ef7c795d4c52b582d5d075e033ccd273f3f2b80c007ace7c40ec8",
    ("front_pair.crs", "fillable"): "d84015807b8ef7c795d4c52b582d5d075e033ccd273f3f2b80c007ace7c40ec8",
    ("hopf_contact_minus1.crs", "parse"): "a55f54d6d5dd2735273abef1aabfc35c4f85bd2d26054fe8864ed4fc013dfa4b",
    ("hopf_contact_minus1.crs", "invariants"): "a32309016e0daba55397e3ebcada20f955aba3abc06f8277e3e0d1b31b4a25e1",
    ("hopf_contact_minus1.crs", "homology"): "6ebb14d821524f8463aea1bf2fb6db29180c4dd0b41b54958ab8597f2393ce20",
    ("hopf_contact_minus1.crs", "to-round"): "f8c2c407a6949171b90405beaa0ed250a6644371916335cfadaba4c51858f6ff",
    ("hopf_contact_minus1.crs", "to-pm1"): "8a4c7dc0c1c53e1001f2a63594481631ab271d460d966c3f7e17c4ce5d52d406",
    ("hopf_contact_minus1.crs", "check-nice"): "8a4c7dc0c1c53e1001f2a63594481631ab271d460d966c3f7e17c4ce5d52d406",
    ("hopf_contact_minus1.crs", "fillable"): "8a4c7dc0c1c53e1001f2a63594481631ab271d460d966c3f7e17c4ce5d52d406",
    ("hopf_round1_invariant.crs", "parse"): "935fc7aea25013eeba4054066efd30157d76d10eb5d7b1c71c8c13b2c0e2dd87",
    ("hopf_round1_invariant.crs", "invariants"): "a32309016e0daba55397e3ebcada20f955aba3abc06f8277e3e0d1b31b4a25e1",
    ("hopf_round1_invariant.crs", "homology"): "e1fc3d40467377817e0ae08d7f412a3e33d992700971b45c0f3474d83514f414",
    ("hopf_round1_invariant.crs", "to-round"): "8e5df82b5dce2a556248e946a1dfa6b6309b35cd30a409febd7f121d6625ba02",
    ("hopf_round1_invariant.crs", "to-pm1"): "c30b271e06c764c24159f788552cde71b95e56b36b057bc771dd5b0eb0c49e35",
    ("hopf_round1_invariant.crs", "check-nice"): "2834ea2de436b294c7b073eadc52c033180be9c615c534f4a20fc1d6c11a2710",
    ("hopf_round1_invariant.crs", "fillable"): "4ffc129f7b6bff6062838d795fbbd9a6f7ea53d54eaf221423f7646f7fda1488",
    ("mixed_round.crs", "parse"): "63b99f6998e552305ecc73b5f38b4ce0ddef6093e31bb6246edfd56cd10fe7ae",
    ("mixed_round.crs", "invariants"): "bb25952d4abf8d2ca262e367449fec95f4ca9ce11603adf0175cd19ee538a6f2",
    ("mixed_round.crs", "homology"): "a34529aa7712b0595e4cde0d9308a62e00309521032eb8c39e5447e82f3e771a",
    ("mixed_round.crs", "to-round"): "1d2bb6707d8d8aa3bfa93fac2c5e71cdc686962835f3714acf2375c6bef9a71d",
    ("mixed_round.crs", "to-pm1"): "881e4d804e32a39a4e76e952a4712c3caaf3a01f4ba3623d7193cdf9ae43d873",
    ("mixed_round.crs", "check-nice"): "2834ea2de436b294c7b073eadc52c033180be9c615c534f4a20fc1d6c11a2710",
    ("mixed_round.crs", "fillable"): "4ffc129f7b6bff6062838d795fbbd9a6f7ea53d54eaf221423f7646f7fda1488",
    ("nice_hopf_pair.crs", "parse"): "a294b2025b8d5a46bc919c74ccecb0dce7afdce17173a18433aa06a03fca81d7",
    ("nice_hopf_pair.crs", "invariants"): "a32309016e0daba55397e3ebcada20f955aba3abc06f8277e3e0d1b31b4a25e1",
    ("nice_hopf_pair.crs", "homology"): "6ebb14d821524f8463aea1bf2fb6db29180c4dd0b41b54958ab8597f2393ce20",
    ("nice_hopf_pair.crs", "to-round"): "c77f8a1ca9a038c6249b221ffdd87bb57b3a3964a923ee20a97444676dc58600",
    ("nice_hopf_pair.crs", "to-pm1"): "3cf469d37e4dcd68ff453a14a60a1d169a72333930598bb9d97c8b252b13f54c",
    ("nice_hopf_pair.crs", "check-nice"): "98b2bfbf1963712008687e0678384f66055c591d57bd9cf6ba4ae550040ab286",
    ("nice_hopf_pair.crs", "fillable"): "aabab1638c4d5d4c9e9e1448ea2c308e05f5338a629d41ef6ce706a4ca8a01ae",
    ("round2_unknot_plus1.crs", "parse"): "bee5948f5e1cb471c12a0cff7b095290fae7e78922f9bb000f8e6c32bd43f169",
    ("round2_unknot_plus1.crs", "invariants"): "b4df67fa59c2e12e03480e7b34e83866664c3cb8c57ad7104c0e127eb8bea95d",
    ("round2_unknot_plus1.crs", "homology"): "d6f99438b42b70d3463197ef24e3ecd63218dfeb60247acfc7cdc435ea138f04",
    ("round2_unknot_plus1.crs", "to-round"): "f689fad9aecf4c5c4035abbde15d78c0b871d93d3b7b213b8c27fdc4e58ab68b",
    ("round2_unknot_plus1.crs", "to-pm1"): "881e4d804e32a39a4e76e952a4712c3caaf3a01f4ba3623d7193cdf9ae43d873",
    ("round2_unknot_plus1.crs", "check-nice"): "4345cf51823df9fd1b6807c315bbe6c9b20a53f48dffc6f09d273482a1cef342",
    ("round2_unknot_plus1.crs", "fillable"): "4ffc129f7b6bff6062838d795fbbd9a6f7ea53d54eaf221423f7646f7fda1488",
    ("single_plus1_unknot.crs", "parse"): "e5fb96bb9ffacfa819bb0ac8178a0fbcde9521acb2e4ffb0a25b8f04c0981dc9",
    ("single_plus1_unknot.crs", "invariants"): "b4df67fa59c2e12e03480e7b34e83866664c3cb8c57ad7104c0e127eb8bea95d",
    ("single_plus1_unknot.crs", "homology"): "045ef080a47c254d8217c91409a01a26d16d7fe5d7aa33c180d58994c260c5aa",
    ("single_plus1_unknot.crs", "to-round"): "f6e10cae2aa8f4f1cde0c45dec84af68d80829a30aee6fb098a479c63783e5ad",
    ("single_plus1_unknot.crs", "to-pm1"): "f93e1f0e00363d4bcfe7946c449d77f50336320ce8d94e711a3e63f86549fa42",
    ("single_plus1_unknot.crs", "check-nice"): "f93e1f0e00363d4bcfe7946c449d77f50336320ce8d94e711a3e63f86549fa42",
    ("single_plus1_unknot.crs", "fillable"): "f93e1f0e00363d4bcfe7946c449d77f50336320ce8d94e711a3e63f86549fa42",
}


def test_fixture_output_is_unchanged():
    assert set(FIXTURE_DIGESTS) == {(path.name, command) for path in FIXTURES.glob("*.crs")
                                    for command in FILE_COMMANDS}
    for (name, command), digest in FIXTURE_DIGESTS.items():
        h = hashlib.sha256()
        for pretty in ([], ["--pretty"]):
            code, out = run_cli(pretty + [command, fixture(name)])
            h.update(f"{code}\n{out}".encode())
        assert h.hexdigest() == digest, (name, command)


def _arc_literal(arc) -> str:
    return ("T({},{},{})" if isinstance(arc, TraversingArc) else "P({},{},{})").format(*arc)


def glue_cases():
    """Seeded glue-annuli argv at benchmark sizes (80-500 traversing arcs, at
    most one parallel arc per side, arcs listed in a drawn order, offsets of
    either sign), eight of them with one literal edited, the invalid glue
    inputs of this file and systems with one or several faults."""
    rng = random.Random(20)
    cases = []
    for _ in range(20):
        t = 2 * rng.randint(40, 250)
        parallel = {"top": rng.randint(0, 1), "bottom": rng.randint(0, 1)}
        cfgs = [_drawn_arcs(rng, t, parallel, rng.randint(-2, 2)) for _ in range(2)]
        lists = []
        for cfg in cfgs:
            arcs = list(cfg.arcs)
            if rng.random() < 0.5:
                rng.shuffle(arcs)
            lists.append(" ".join(map(_arc_literal, arcs)))
        top, bottom = cfgs[0].top_marks, cfgs[0].bottom_marks
        cases.append(["glue-annuli", "--top-marks", str(top), "--bottom-marks", str(bottom),
                      "--a", lists[0], "--b", lists[1],
                      "--offset-top", str(rng.randint(-2 * top, 2 * top)),
                      "--offset-bottom", str(rng.randint(-2 * bottom, 2 * bottom))])
    for args in cases[:8]:  # one edited literal list each: drop, repeat or swap
        items = args[6].split()
        k = rng.randrange(len(items))
        edit = rng.choice(("drop", "repeat", "swap"))
        if edit == "drop":
            del items[k]
        elif edit == "repeat":
            items.insert(rng.randrange(len(items)), items[k])
        else:
            j = rng.randrange(len(items))
            items[j], items[k] = items[k].replace("P(top", "P(bottom"), items[j]
        cases.append(args[:6] + [" ".join(items)] + args[7:])
    cases += [args for args in OUT_OF_DOMAIN if args[0] == "glue-annuli"]
    marks = ["glue-annuli", "--top-marks", "4", "--bottom-marks", "2", "--b",
             "T(0,0,0) T(2,1,0) P(top,3,1)", "--a"]
    cases += [marks + [arcs] for arcs in (
        "T(0,0,0) T(0,1,0)", "T(0,1,0) T(2,0,0) P(top,1,3)", "T(0,0,0) T(2,1,1) P(top,1,3)",
        "T(0,0,0) T(2,1,0) P(top,1,3)", "T(5,0,0) T(0,0,0)", "T(0,0,0) T(2,1,0) P(top,3,1) T(9,9,9)",
        "P(top,0,2) P(top,1,3) P(bottom,0,1)", "P(top,0,2) P(top,3,1) P(bottom,1,0) P(top,1,3)")]
    cases += [["glue-annuli", "--top-marks", str(10**12), "--bottom-marks", "2",
               "--a", "T(0,0,0) T(1,1,0)", "--b", "T(0,0,0) T(1,1,0)"],
              ["glue-annuli", "--top-marks"]]
    return cases


# sha256 over "<exit code>\n<stdout>" of the plain run, then of the --pretty
# run, of each glue_cases() argv, printed before arc systems were checked
# through per-point tables
GLUE_DIGESTS = [
    "15528e13d3a3d5d783eda483a0f6ef885ff710a0fac9c7d400906fa2bbf54c98",
    "0b25fa8f7f7b7ba850f83f67b090a73f11bc3839b4a86952abafb4bd6f1c5f38",
    "89747a83734ae836459547e5ba2d3bbeb76d2a6a164131e68b06694090bc446c",
    "7d4d7e3e4999954f57b3c4e7d912b08bc208a9e5ea7b84f3be7b3ef6c53654a1",
    "4aeb5d8f9020c63a2442985b22eaf0873dc641956aa0b4451fbd8cc0c8d528f1",
    "1576ab71684152e2129b16d7fa37248790561278ec67a2d8a19b8e1e995a5d3b",
    "1d4eeed0bb2ee9cbce94fab09bd96237fb15dc3085c09a1b765ef1c041fa0f15",
    "e950743560f78e1a0c4fe85b1f5a575eae18977bd1ff8cde3ab8bf1478aec35b",
    "83a80d5d7d44a203b97fa1fde409a58a2d7fcebf8761fc0ac2cd381d89de185d",
    "f339f6512bfe889b3ce3969da7e09a5f33c63989c3e3a2d88639e2228fc10628",
    "7b9f008714842eeb06ffe72b04ea24cb190d40966fd8424ce33b9a75a0ad513d",
    "5c6654d357d92be27d4f3cc38a831bf9001f8ec1a35397a3652b794f8d4e1c2a",
    "194cc856c55308660ee1b996ef1ae29350ce411bad45b285fbfbd79233012f78",
    "b7b6d6bd7efd22a3cd34407fd1da26800cacdee898434a9d78ae75e70e364baa",
    "db2d8c1447f2901a56393216900af9a76ce9bcb99797e40a7890ce22682eca82",
    "23ae783046a6e8b279281dd518c6ecf298245288319ec6359d033ff7a4117b9c",
    "992eca05ebcfad43dd9c418bb345bb3f6970e713dcb46c800041ed8245d3acbc",
    "02d3ca8b52af6634035d93d3abb2eed92a13cdc848a150825aa7a8c82d4fc8e9",
    "2ef9e4809343d4bdbee19543d03e18d78f70e7e07a0d775138531cadccedda37",
    "34a3aef961199a89625f92307fb2e88214543415d45cb6a2b04bda1c18f728f5",
    "4f36c8906507a27567731e1006ef4011d080cd111c7d3ae6b63c98aa95ac663c",
    "21e996ddc45cb6b6c34ab03113acdd8b87d9fff3daf862ca3b15d41ae44b90b5",
    "09b15737b04f1ba7d58210048e220804156077f3e28549c59935f321bd1f9e4a",
    "dc3b53db16833ba1117205e81c812b06fc632589e7d64109a3290355032d5e20",
    "3c87152ff7200253978b15e76b144837590ed7a28f43e462d133116f07064899",
    "c485dc11db380b251fd85d5c64a17b76238f64618e6d9d62a4f7c99b5513dbda",
    "8274fc0ca510830acb03781bb5e07b99a89e1f52d7c4c8534111ae768c60f2e4",
    "54d53ba785fbdcadbf4f9119dc4eb8f5627d41ff7f09ddec2f1991d164ba7dc0",
    "833c23b4055137829e4d0eee851b066b162b465fef30ec48cb075e1ebc2b1e35",
    "52d13c141ed855e0c7f6c235178ffea53e683a64149ebc4a837939cc9bca3c2c",
    "64750c3b132b59998ba046e471be5f35e8206a94a0d2d70b1071f8f3a402f819",
    "ec632adf4c727ad18eb314e13da2e590d93ce4d2fe33cc0004e3d02e52d2d842",
    "c223ab7127e4985258d663282aed28632a667b40c0c2224bcf46450220c18ee9",
    "c6d5e836463b82a0b84c765675f6cd9ad10bf8bdc5c2861ed77a1e8c806c103d",
    "12101bdd7e1cb8e3595cf6f761a7f0765b7c38055245b52f6b7b65444019e2aa",
    "537f3f69a1eae1023b88227829ca43d084652dd7aabee97640b6c04d58c1fcfc",
    "f4f65407c33eed371431c4d2b5bbcbc22ade4698626f282eaf60ef240d0fd57c",
    "8825cc623d0901e358dbb59e9287f471ff9b51b0a9518e8ee17d203904d2f029",
    "662faa3c05c8f48979d9047c5e2d5d8e0a4b6fd2802780b37559fb01c3783145",
    "6b8f12101bb7502354007c8d8cc4296dd2b3b64f6a651c0411257ccbff2201de",
    "68171bcba5ca22a3168f230a76300b186aa8f99f47ab77cfdc716086713f07ee",
]


def test_glue_output_is_unchanged():
    cases = glue_cases()
    assert len(cases) == len(GLUE_DIGESTS)
    for k, (args, digest) in enumerate(zip(cases, GLUE_DIGESTS)):
        h = hashlib.sha256()
        for pretty in ([], ["--pretty"]):
            code, out = run_cli(pretty + args)
            h.update(f"{code}\n{out}".encode())
        assert h.hexdigest() == digest, k


PM1_COMMANDS = ("parse", "homology", "to-round", "to-pm1")
# (components, linking density, largest |lk|) of the seeded lk-heavy
# (+-1)-diagrams, dense and sparse
LK_HEAVY_SHAPES = ((40, 1.0, 3), (60, 0.1, 3), (52, 0.9, 12), (46, 0.3, 3))
# sha256 over "<exit code>\n<stdout>" of the plain run, then of the --pretty
# run, of each command on each lk-heavy diagram and then on its to-round
# output, printed while each lk statement was still read as nine or ten lexemes
PM1_DIGESTS = {
    ("lk40.crs", "parse"): "11240ee247550bdb46c77112f52b24a8ebf2b46fdc35b501f0af5a23148af0a3",
    ("lk40.crs", "homology"): "6bb466c6dbe8e1627a37df2d83304a4ef9581829c77e7c54ad0424b7f8ae0779",
    ("lk40.crs", "to-round"): "a568258f6b16eabb70964b6118c5f5530c6afdda7574253ef9c22f4ea2fec379",
    ("lk40.crs", "to-pm1"): "305d8abdd3c06e953c01edaadb5374551ecfe0b36820e0fd9211c77107c8a17c",
    ("lk40_round.crs", "parse"): "905f9a286e7d7aa2ee77d9f40540aa7ed3355ae9f6d9007622f7dec7af9b388f",
    ("lk40_round.crs", "homology"): "6bb466c6dbe8e1627a37df2d83304a4ef9581829c77e7c54ad0424b7f8ae0779",
    ("lk40_round.crs", "to-round"): "1803b0420ac18026a8d9aeada9bc3435307664f120a678983efbb113763c5e53",
    ("lk40_round.crs", "to-pm1"): "4b6beb112f828dafeb5ba4d2d2db888869441f8db9e54acb095d186e8debf744",
    ("lk60.crs", "parse"): "3147d92f2cd15ac98cc142940ec48e2da47e54f4fd81daa18ed01e0c1220ec3f",
    ("lk60.crs", "homology"): "a0ebc68d46e0b3fa8375ab4aec8975a68e532350cd8e7d7168b1ec757f01660b",
    ("lk60.crs", "to-round"): "a09ed5f7af3dcd188bc65721b9aa1730e0a289eb09f0c6baf0d22e4e30e0454f",
    ("lk60.crs", "to-pm1"): "d8abbe00be75a3dd2b1a318a4c2de0e908a0bdf46e53f34e0bccf8befd6abb80",
    ("lk60_round.crs", "parse"): "d77cc1df014f24c11384c5770d3d7e051838c302a19730209dfecdf80636797f",
    ("lk60_round.crs", "homology"): "a0ebc68d46e0b3fa8375ab4aec8975a68e532350cd8e7d7168b1ec757f01660b",
    ("lk60_round.crs", "to-round"): "37c66e907ec4d96c74e53154720c55fbe771fc42c9ed28ce202a5bd1ef69c0b9",
    ("lk60_round.crs", "to-pm1"): "0045aee11ecc6caf10f9d79a101af8570fa5a7be9f4ab98d569274dcfff7f33e",
    ("lk52.crs", "parse"): "642c27be02a3b278d4e630b82b85afa0f4e79cd222593e85a5bedacc689f3079",
    ("lk52.crs", "homology"): "7a046349c5e12e16976ea20873744cb7963b2e05e6d372441d410dc3ae1a8b7b",
    ("lk52.crs", "to-round"): "9d6b1182b3efdca712e317416dcaab689e8d2cd096fe02d98dcbeb3037386408",
    ("lk52.crs", "to-pm1"): "5721df2bf5b25cf3497280f4a839ea7f537c2c4317cce100501e774cb73dbd33",
    ("lk52_round.crs", "parse"): "5f1a00be11e5811004fcdb190380616038f0c7539247c86e005d5e8ad3cf0b2f",
    ("lk52_round.crs", "homology"): "7a046349c5e12e16976ea20873744cb7963b2e05e6d372441d410dc3ae1a8b7b",
    ("lk52_round.crs", "to-round"): "b5ab0c75fbc5579d1f722df00b709beb0a2703ad235f293f17c0d11e2df7ce09",
    ("lk52_round.crs", "to-pm1"): "642c27be02a3b278d4e630b82b85afa0f4e79cd222593e85a5bedacc689f3079",
    ("lk46.crs", "parse"): "770ab77e684d6e8e790e568a5ec5a263e30342dadc2f2aa7bdeadf66d44b1a3f",
    ("lk46.crs", "homology"): "1a29e2399f22ab94c83889dd86c9f53837af4a08c2549e045847e9db50131243",
    ("lk46.crs", "to-round"): "e7acdfe7211a323527690ba05ac7ebd0ef22cb016839170e6ad1ca68c22615ea",
    ("lk46.crs", "to-pm1"): "aa664f0e38a2f141ca78b065738cc8e7a52e981007a09cb1ef38edf5c8a72eee",
    ("lk46_round.crs", "parse"): "fd32849e6ed5ce5e66098222de895ad4ffd88730815eac50254c4830d3cd3e13",
    ("lk46_round.crs", "homology"): "1a29e2399f22ab94c83889dd86c9f53837af4a08c2549e045847e9db50131243",
    ("lk46_round.crs", "to-round"): "25614e70f91d5a4a4b3999aee7fba8f0dfe9dede451b9c94c68b06b98e209224",
    ("lk46_round.crs", "to-pm1"): "770ab77e684d6e8e790e568a5ec5a263e30342dadc2f2aa7bdeadf66d44b1a3f",
}


def test_lk_heavy_pm1_output_is_unchanged(tmp_path):
    rng = random.Random(21)
    digests = {}
    for n, density, bound in LK_HEAVY_SHAPES:
        contact, round_ = tmp_path / f"lk{n}.crs", tmp_path / f"lk{n}_round.crs"
        contact.write_text(lk_heavy_pm1_text(rng, n, density, bound))
        code, out = run_cli(["to-round", str(contact)])
        assert code == 0
        round_.write_text(json.loads(out)["dsl"])
        for path in (contact, round_):
            for command in PM1_COMMANDS:
                h = hashlib.sha256()
                for pretty in ([], ["--pretty"]):
                    code, out = run_cli(pretty + [command, str(path)])
                    h.update(f"{code}\n{out}".encode())
                digests[path.name, command] = h.hexdigest()
    assert digests == PM1_DIGESTS


# one -1 component: to-round inserts two gadgets (parity case 3)
MINUS1_TEXT = "diagram d {\n  component K { tb = -1; rot = 0; }\n  contact_surgery K = -1;\n}\n"


def test_gadget_bound_refuses_before_building(monkeypatch, tmp_path):
    import crsdiag.bridge as bridge
    from crsdiag.bridge import GADGET_MAX_M

    def forbidden(*args, **kwargs):
        raise AssertionError("a gadget component was built")

    monkeypatch.setattr(bridge, "LegendrianComponent", forbidden)
    largest = f"more than {GADGET_MAX_M}, the largest gadget built"
    # single_plus1_unknot (one +1 component) takes one gadget of parameter
    # 2 * gadget_m; one -1 component takes two, of 2 * gadget_m + 1 and
    # 2 * gadget_m2 (gadget_m2 defaults to gadget_m)
    half = GADGET_MAX_M // 2 + 1
    plus1, minus1 = fixture("single_plus1_unknot.crs"), str(tmp_path / "minus1.crs")
    Path(minus1).write_text(MINUS1_TEXT)
    calls = [
        (["gadget", "--m", str(GADGET_MAX_M + 1)], f"gadget parameter {GADGET_MAX_M + 1} is"),
        (["to-round", "--gadget-m", str(half), plus1],
         f"gadget_m {half} gives gadget parameter {2 * half} = 2*{half},"),
        (["to-round", "--gadget-m", "128", plus1], "gadget_m 128 gives gadget parameter 256 = 2*128,"),
        (["to-round", "--gadget-m2", "65", minus1], "gadget_m2 65 gives gadget parameter 130 = 2*65,"),
        (["to-round", "--gadget-m", "64", minus1], "gadget_m 64 gives gadget parameter 129 = 2*64 + 1,"),
        (["to-round", "--gadget-m", "64", "--gadget-m2", "1", minus1],
         "gadget_m 64 gives gadget parameter 129 = 2*64 + 1,"),
        (["to-round", "--gadget-m", "65", minus1], "gadget_m 65 gives gadget parameter 131 = 2*65 + 1,"),
    ]
    for argv, message in calls:
        code, out = run_cli(argv)
        assert (code, json.loads(out)) == (1, {"error": {
            "code": 1, "kind": "LimitExceeded", "message": f"{message} {largest}"}}), argv


def test_gadget_bound_covers_the_second_gadget(tmp_path):
    from crsdiag.bridge import GADGET_MAX_M

    # even/odd: no +1 component and one -1 component, so two gadgets are
    # inserted, of 2 * gadget_m + 1 and 2 * gadget_m2 components
    path = tmp_path / "minus1.crs"
    path.write_text(MINUS1_TEXT)
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
    # a word beside a file or --diagram is refused, not read in their place
    for extra in (["/nonexistent"], [fixture("front_pair.crs")], ["--diagram", "d"]):
        code, out = run_cli(["invariants", "--word", "U1 C1", *extra])
        assert code == 1
        assert json.loads(out)["error"] == {
            "code": 1, "kind": "SemanticError",
            "message": "invariants takes --word or a file, not both"}


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
