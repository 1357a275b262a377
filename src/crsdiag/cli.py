"""Command line interface: deterministic JSON on stdout, diagnostics as data.

Exit codes: 0 success, 1 semantic/validation failure or a file that cannot be
read, 2 parse failure (of a file or of the command line), 3 internal self-test
or certificate failure.  The table _EXIT_CODES is the one place that decides
them.  Every failure prints one JSON error object; only -h/--help prints text.
A file that is missing, unreadable or not UTF-8 text exits 1 with kind
"IOError".
Identical inputs and flags produce byte-identical output (no timestamps, no
unordered iteration).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Callable, List, Optional, Union

# let bare negative rationals like -5/2 pass as argument values
_NEGATIVE_SLOPE = re.compile(r"^-\d+(/-?\d+)?$")
# One item of a glue-annuli arc list and the separators before it.  An item
# is a run of characters other than whitespace and ';'.  It is either a whole
# literal T(x,y,z) or P(x,y,z), whose fields int() or the side check judge,
# or anything else, in the last group, which is a bad literal.
_ARC_ITEM = re.compile(r"[\s;]*(?:([TP])\(([^\s;,]*),([^\s;,]*),([^\s;,]*)\)(?![^\s;])"
                       r"|([^\s;]+))")

from . import dsl
from .bridge import kirby1_gadget, pair_pm1_diagram
from .core import SlopeQ, check_nice, is_fillable_sufficient, joint_pairs_to_pm1
from .dividing import ArcConfig, ParallelArc, TraversingArc, giroux_overtwisted, glue_annuli
from .errors import (
    CertificateError,
    DiagramError,
    DslSyntaxError,
    GadgetSelfTestFailed,
    InvalidParameter,
    LimitExceeded,
    NoJointPartner,
    SemanticError,
    UsageError,
)
from .front import OrientedFront, classical_invariants, parse_front_word
from .homology import H1Class, det, h1_dehn, h1_round_diagram, linking_matrix
from .slopes import (
    BoundaryData,
    count_configurations,
    enumerate_configurations,
    honda_count,
    neg_cf,
    normalize_slopes,
)

EXIT_OK, EXIT_SEMANTIC, EXIT_PARSE, EXIT_INTERNAL = 0, 1, 2, 3
# the exit code of every error main reports, by class; no class here is a
# subclass of another, so one error matches one row
_EXIT_CODES = {
    UsageError: EXIT_PARSE,
    DslSyntaxError: EXIT_PARSE,
    DiagramError: EXIT_SEMANTIC,  # SemanticError too
    OSError: EXIT_SEMANTIC,
    UnicodeDecodeError: EXIT_SEMANTIC,
    CertificateError: EXIT_INTERNAL,
    GadgetSelfTestFailed: EXIT_INTERNAL,
}

# enum-configs refuses cells of more configurations before enumerating, unless
# --limit raises the bound; (4,4,2) has 19,925 and (5,5,0) has 60,626
ENUM_LIMIT = 100_000
# --limit may raise the bound no further: the result is held in memory, and
# (5,5,2), with 303,130 configurations, takes about 4 s and 420 MB
ENUM_MAX_LIMIT = 500_000


def _slope_text(value):
    # json.dumps calls this for the slopes of a payload while it encodes, so
    # _emit's lifted digit limit covers their terms too
    if isinstance(value, SlopeQ):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _encode(payload: dict, pretty: bool) -> str:
    if pretty:
        return json.dumps(payload, indent=2, default=_slope_text)
    return json.dumps(payload, separators=(",", ":"), default=_slope_text)


def _emit(payload: dict, pretty: bool) -> None:
    try:
        text = _encode(payload, pretty)
    except ValueError:
        # An integer has more digits than the interpreter's int-to-str limit.
        # Interpreters with that limit also have its setter (Python 3.11, and
        # the 3.10 releases that took the limit), so lift it while encoding.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            text = _encode(payload, pretty)
        finally:
            sys.set_int_max_str_digits(limit)
    sys.stdout.write(text + "\n")


def _h1_json(h1: H1Class) -> dict:
    return {"free_rank": h1.free_rank, "torsion": list(h1.torsion)}


def _load(path: str) -> dsl.DiagramFile:
    with open(path, "r", encoding="utf-8") as handle:
        return dsl.parse_file(handle.read())


def _parse_slope(text: str) -> SlopeQ:
    try:
        return SlopeQ.parse(text)
    except ValueError as exc:
        raise InvalidParameter(f"bad slope {text!r}: {exc}") from None


def _parse_arcs(text: str, top_marks: int, bottom_marks: int) -> ArcConfig:
    arcs = []
    for kind, x, y, z, bad in _ARC_ITEM.findall(text):
        try:
            if kind == "T":
                arcs.append(TraversingArc(int(x), int(y), int(z)))
            elif kind == "P" and x in ("top", "bottom"):
                arcs.append(ParallelArc(x, int(y), int(z)))
            else:
                raise ValueError
        except ValueError:
            item = bad or f"{kind}({x},{y},{z})"
            raise SemanticError(f"bad arc literal {item!r}") from None
    return ArcConfig(top_marks, bottom_marks, tuple(arcs))


def _require(nd: dsl.NamedDiagram, kind: str):
    """The diagram of nd, which must be of kind "round" or "contact"."""
    if nd.kind != kind:
        raise SemanticError(f"diagram {nd.name!r} is not a {kind} surgery diagram")
    return nd.diagram


def _tight_count_json(count) -> dict:
    data = {"kind": count.kind}
    if count.value is not None:
        data["value"] = count.value
    if count.reason is not None:
        data["reason"] = count.reason
    return data


def _write_configs(configs: List[ArcConfig], pretty: bool) -> None:
    """Write {"count": ..., "configs": [...]} to stdout as _emit would, one
    configuration at a time.  enumerate_configurations shares arc objects
    between configurations, so each distinct arc is encoded once."""
    nl = ["\n" + "  " * depth if pretty else "" for depth in range(6)]
    colon = ": " if pretty else ":"

    def template(kind, *keys):  # an arc object as a str.format template
        fields = [f'"type"{colon}"{kind}"'] + [f'"{key}"{colon}{{}}' for key in keys]
        return "{{" + nl[5] + ("," + nl[5]).join(fields) + nl[4] + "}}"

    traversing = template("traversing", "top", "bottom", "winding").format
    parallel = template("parallel", "side", "start", "end").format
    encoded = {}
    for cfg in configs:
        for arc in cfg.arcs:
            if id(arc) not in encoded:
                encoded[id(arc)] = (
                    traversing(arc.top, arc.bottom, arc.winding)
                    if isinstance(arc, TraversingArc)
                    else parallel(f'"{arc.side}"', arc.start, arc.end))
    write = sys.stdout.write  # looked up per call: callers redirect stdout
    write(f'{{{nl[1]}"count"{colon}{len(configs)},{nl[1]}"configs"{colon}[')
    arc_sep = "," + nl[4]
    sep = nl[2]
    for cfg in configs:
        write(f'{sep}{{{nl[3]}"top_marks"{colon}{cfg.top_marks},{nl[3]}"bottom_marks"{colon}'
              f'{cfg.bottom_marks},{nl[3]}"arcs"{colon}[{nl[4]}'
              + arc_sep.join([encoded[id(arc)] for arc in cfg.arcs])
              + f"{nl[3]}]{nl[2]}}}")
        sep = "," + nl[2]
    write(f"{nl[1]}]{nl[0]}}}\n")  # a valid cell has at least one configuration


class _Parser(argparse.ArgumentParser):
    """An argument parser, also for each subcommand, that raises UsageError
    where argparse would print usage to stderr and exit."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by later main calls."""
    parser = _Parser(
        prog="crsdiag",
        description="Contact Dehn / contact round surgery diagram calculator",
    )
    parser.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_file(p):
        p.add_argument("--diagram", help="diagram name inside the file")
        p.add_argument("file", help="diagram file")

    with_file(sub.add_parser("parse", help="parse and print the canonical JSON form"))
    p = sub.add_parser("invariants", help="classical invariants of fronts")
    p.add_argument("--word", help="analyze a bare front word instead of a file")
    p.add_argument("--diagram")
    p.add_argument("file", nargs="?")
    with_file(sub.add_parser("homology", help="first homology of the surgered manifold"))
    p = sub.add_parser("to-round", help="convert a (+-1)-diagram into nice joint pairs")
    p.add_argument("--k", type=int, default=1, help="round 1-surgery coefficient on every pair")
    p.add_argument("--gadget-m", type=int, default=1, help="gadget parameter")
    p.add_argument("--gadget-m2", type=int, default=None, help="second gadget parameter")
    with_file(p)
    with_file(sub.add_parser("to-pm1", help="convert nice joint pairs back to a (+-1)-diagram"))
    with_file(sub.add_parser("check-nice", help="niceness report per joint pair"))
    with_file(sub.add_parser("fillable", help="sufficient fillability condition"))
    p = sub.add_parser("cf", help="negative continued fraction of a slope")
    p._negative_number_matcher = _NEGATIVE_SLOPE
    p.add_argument("slope", help="rational < -1, e.g. -5/2")
    p = sub.add_parser("count-tight", help="count tight structures on a thickened torus")
    p._negative_number_matcher = _NEGATIVE_SLOPE
    p.add_argument("--slope0", required=True)
    p.add_argument("--slope1", required=True)
    p.add_argument("--twisting", type=int, default=0)
    p.add_argument("--ndiv", type=int, default=2, help="dividing curves per boundary torus")
    p = sub.add_parser("normalize-slopes", help="normalize a slope pair via SL(2,Z)")
    p._negative_number_matcher = _NEGATIVE_SLOPE
    p.add_argument("--slope0", required=True)
    p.add_argument("--slope1", required=True)
    p = sub.add_parser("enum-configs", help="enumerate annulus arc configurations")
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--max-winding", type=int, required=True)
    p.add_argument("--count-only", action="store_true",
                   help="print only the number of configurations, without enumerating them")
    p.add_argument("--limit", type=int, default=ENUM_LIMIT,
                   help="refuse cells of more configurations than this, before "
                        f"enumerating (default {ENUM_LIMIT:,}, at most {ENUM_MAX_LIMIT:,})")
    p = sub.add_parser("glue-annuli", help="glue two arc systems into a torus")
    p.add_argument("--top-marks", type=int, required=True)
    p.add_argument("--bottom-marks", type=int, required=True)
    p.add_argument("--a", required=True, help="arcs, e.g. 'T(0,0,0) T(1,1,0)'")
    p.add_argument("--b", required=True, help="arcs, e.g. 'P(top,0,1) P(bottom,0,1)'")
    p.add_argument("--offset-top", type=int, default=0)
    p.add_argument("--offset-bottom", type=int, default=0)
    p = sub.add_parser("gadget", help="cosmetic unknot gadget diagram")
    p.add_argument("--m", type=int, required=True)
    return parser


def _run(args) -> Union[dict, Callable[[bool], None]]:
    if args.command == "parse":
        df = _load(args.file)
        if args.diagram is not None:
            return {"diagrams": [dsl.diagram_json(df.get(args.diagram))]}
        return {"diagrams": [dsl.diagram_json(nd) for nd in df.diagrams]}

    if args.command == "invariants":
        if args.word is not None:
            word = parse_front_word(args.word)
            front = OrientedFront.forward(word)
            inv = classical_invariants(front)
            return {
                "word": str(word),
                "components": [
                    {
                        "id": i,
                        "tb": c.tb,
                        "rot": c.rot,
                        "self_writhe": c.self_writhe,
                        "cusps_up": c.cusps_up,
                        "cusps_down": c.cusps_down,
                    }
                    for i, c in enumerate(inv.components)
                ],
                "lk": [[a, b, v] for a, b, v in inv.lk.pairs()],
            }
        if args.file is None:
            raise SemanticError("invariants needs a file or --word")
        nd = _load(args.file).get(args.diagram)
        return {
            "components": [
                {"label": c.label, "tb": c.tb, "rot": c.rot}
                for c in sorted(nd.diagram.components, key=lambda c: c.label)
            ]
        }

    if args.command == "homology":
        nd = _load(args.file).get(args.diagram)
        if nd.kind == "contact":
            groups = [h1_dehn(nd.diagram)]
        else:
            groups = h1_round_diagram(nd.diagram)
        return {"components": [_h1_json(g) for g in groups]}

    if args.command == "to-round":
        nd = _load(args.file).get(args.diagram)
        contact = _require(nd, "contact")
        rd, plan = pair_pm1_diagram(contact, k=args.k, gadget_m=args.gadget_m,
                                    gadget_m2=args.gadget_m2)
        named = dsl.named(nd.name, rd)
        return {
            "diagrams": [dsl.diagram_json(named)],
            "plan": {
                "case_id": plan.case_id,
                "gadgets": [
                    {"m": g.m, "labels": [c.label for c in g.diagram.components]}
                    for g in plan.gadgets
                ],
                "pairs": [
                    {"a": p.label_a, "b": p.label_b, "round1": p.round1_coeff,
                     "round2": str(p.round2_coeff)}
                    for p in plan.pairs
                ],
            },
            "dsl": dsl.print_file(dsl.DiagramFile((named,))),
        }

    if args.command == "to-pm1":
        nd = _load(args.file).get(args.diagram)
        contact = joint_pairs_to_pm1(_require(nd, "round"))
        return {"diagrams": [dsl.diagram_json(dsl.named(nd.name, contact))]}

    if args.command == "check-nice":
        rd = _require(_load(args.file).get(args.diagram), "round")
        reports = []
        for idx in range(len(rd.round1)):
            entry = {"index": idx, "pair": list(rd.round1[idx].pair)}
            try:
                report = check_nice(rd, idx)
            except NoJointPartner:
                entry.update({"nice": False, "reasons": ["no joint round 2-surgery"]})
            else:
                entry.update({
                    "r1_equal": report.equal_coefficients,
                    "r2_pm1": report.r2_is_pm1,
                    "layer_standard": report.layer_is_standard,
                    "nice": report.nice,
                    "reasons": list(report.reasons),
                })
            reports.append(entry)
        return {"pairs": reports}

    if args.command == "fillable":
        rd = _require(_load(args.file).get(args.diagram), "round")
        return {"fillable": is_fillable_sufficient(rd)}

    if args.command == "cf":
        slope = _parse_slope(args.slope)
        return {"cf": list(neg_cf(slope).coefficients)}

    if args.command == "count-tight":
        s0 = _parse_slope(args.slope0)
        s1 = _parse_slope(args.slope1)
        matrix, image0, image1 = normalize_slopes(s0, s1)
        count = honda_count(
            BoundaryData.of(args.ndiv, image0),
            BoundaryData.of(args.ndiv, image1),
            args.twisting,
        )
        return {
            "matrix": [[matrix.a, matrix.b], [matrix.c, matrix.d]],
            "normalized": [image0, image1],
            "count": _tight_count_json(count),
        }

    if args.command == "normalize-slopes":
        s0 = _parse_slope(args.slope0)
        s1 = _parse_slope(args.slope1)
        matrix, image0, image1 = normalize_slopes(s0, s1)
        return {
            "matrix": [[matrix.a, matrix.b], [matrix.c, matrix.d]],
            "images": [image0, image1],
        }

    if args.command == "enum-configs":
        count = count_configurations(args.n0, args.n1, args.max_winding)
        if args.count_only:
            return {"count": count}
        if args.limit > ENUM_MAX_LIMIT:
            raise LimitExceeded(f"--limit is more than {ENUM_MAX_LIMIT}, "
                                "the most configurations enumerated")
        if count > args.limit:
            raise LimitExceeded(f"the cell has {count} configurations, more than --limit {args.limit}")
        configs = enumerate_configurations(args.n0, args.n1, args.max_winding)
        # the keys and the count are certified by now, so the output can stream
        return functools.partial(_write_configs, configs)

    if args.command == "glue-annuli":
        a = _parse_arcs(args.a, args.top_marks, args.bottom_marks)
        b = _parse_arcs(args.b, args.top_marks, args.bottom_marks)
        glued = glue_annuli(a, b, args.offset_top, args.offset_bottom)
        return {
            # json encodes each (tag, index, forward) tuple as an array
            "curves": [{"h": c.h, "v": c.v, "arcs": c.arcs} for c in glued.curves],
            "overtwisted": giroux_overtwisted(glued),
        }

    if args.command == "gadget":
        gadget = kirby1_gadget(args.m)
        named = dsl.named("gadget", gadget)
        return {
            "diagrams": [dsl.diagram_json(named)],
            "selftest": {
                "determinant": det(linking_matrix(gadget)),
                "h1": _h1_json(h1_dehn(gadget)),
            },
        }

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: Optional[List[str]] = None) -> int:
    args = argparse.Namespace()
    try:
        _build_parser().parse_args(argv, namespace=args)
        payload = _run(args)
    except tuple(_EXIT_CODES) as exc:
        code = next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))
        error = {"code": code,
                 "kind": ("IOError" if isinstance(exc, (OSError, UnicodeDecodeError))
                          else type(exc).__name__),
                 "message": exc.message if isinstance(exc, DslSyntaxError) else str(exc)}
        if getattr(exc, "line", None) is not None:
            error["line"] = exc.line
            error["col"] = exc.col
        # argparse sets the defaults of --pretty and of the subcommand before
        # it can fail: a --pretty read before a valid subcommand word indents
        # a usage error like any other output
        _emit({"error": error}, args.pretty and args.command is not None)
        return code
    if isinstance(payload, dict):
        _emit(payload, args.pretty)
    else:  # a streamed result writes itself
        payload(args.pretty)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
