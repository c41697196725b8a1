"""Command-line workbench: construct, certify, and report on designs.

Every verb prints a JSON report on stdout and writes artifacts through
-o; module errors become machine-readable error JSON with exit code 1,
usage problems exit 2.  Enumeration caps and sampling seeds come from
the global flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from subdesigns import design as de
from subdesigns import expander as ex
from subdesigns import formats as fmt
from subdesigns import hamming as ha
from subdesigns import repro
from subdesigns import strongbridge as sb
from subdesigns import subspace as sp
from subdesigns import sumrank as sr
from subdesigns.errors import BadParameters, FormatError, SubdesignsError
from subdesigns.gf import tower_for


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return repr(obj)


def _emit(report: dict) -> None:
    print(json.dumps(_jsonable(report), sort_keys=True, indent=2))


def _write(path: str, payload: dict) -> None:
    Path(path).write_text(fmt.dumps(payload))


def _read_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _load_design(path: str) -> de.SubspaceDesign:
    return fmt.design_from_json(_read_json(path))


def _parse_elements(tower, text: str) -> list:
    try:
        return [tower.element(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise BadParameters(f"cannot parse field elements {text!r}: {exc}") from None


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _partition(text: str) -> list[list[int]]:
    try:
        return [[int(x) for x in block.split(",")] for block in text.split(";")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected ';'-separated blocks of comma-separated integers, got {text!r}") from None


def _positive_int(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a fraction such as 1/6, got {text!r}") from None


# --- construct -------------------------------------------------------------------


def _cmd_construct(args) -> dict:
    kind = args.kind
    if kind == "pseudoregulus":
        tower = tower_for(args.q, args.m)
        amb = sp.AmbientSpace(tower, 2 * args.r)
        D = de.construct_pseudoregulus(amb, args.s_exp, _parse_elements(tower, args.mus), cap=args.cap)
    elif kind == "twisted":
        tower = tower_for(args.q, args.m)
        amb = sp.AmbientSpace(tower, args.k)
        alphas = _parse_elements(tower, args.alphas)
        etas = _parse_elements(tower, args.eta)
        if len(etas) != 1:
            raise BadParameters(f"--eta takes one field element, got {args.eta!r}")
        blocks = [de.full_field_block(tower)] * len(alphas)
        D = de.construct_twisted(amb, alphas, etas[0], blocks, s_exp=args.s_exp, cap=args.cap)
    elif kind == "basis-partition":
        tower = tower_for(args.q, args.m)
        amb = sp.AmbientSpace(tower, args.k)
        basis = np.eye(args.k, dtype=int).tolist()
        D = de.construct_basis_partition(amb, basis, args.partition)
    elif kind == "field-partition":
        D = de.construct_field_partition(args.q, args.m, args.k, cap=args.cap)
    elif kind == "direct-sum":
        D = de.direct_sum([_load_design(p) for p in args.inputs], cap=args.cap)
    elif kind == "enlarge":
        base = _load_design(args.inputs[0])
        D = de.enlarge(base, args.s, args.increments, cap=args.cap)
    if args.output:
        _write(args.output, fmt.design_to_json(D))
    return {"kind": kind, "t": D.t, "dims": list(D.dims), "output": args.output}


def _cmd_profile(args) -> dict:
    D = _load_design(args.design)
    prof = de.design_profile(D, args.s, cap=args.cap)
    return {
        "s": prof.s,
        "A_min": prof.A_min,
        "span_dim": prof.span_dim,
        "non_degenerate": prof.non_degenerate,
        "witness_rows": prof.witness.basis.tolist(),
    }


def _cmd_classify(args) -> dict:
    D = _load_design(args.design)
    return de.classify(D, max_s=args.max_s, cap=args.cap)


def _cmd_weights(args) -> dict:
    D = _load_design(args.design)
    hist = de.hyperplane_weight_distribution(D, cap=args.cap)
    P = ha.ext_system(D, cap=args.cap)
    enum = ha.weight_enumerator(P, cap=args.cap)
    if args.hist_csv:
        Path(args.hist_csv).write_text(fmt.histogram_csv(hist, header=("intersection", "count")))
    if args.enumerator_csv:
        Path(args.enumerator_csv).write_text(fmt.histogram_csv(enum))
    return {"histogram": hist, "enumerator": enum, "length": P.length}


def _cmd_msrd(args) -> dict:
    D = _load_design(args.design)
    C = sr.code_from_system(D)
    d = sr.min_distance(C, cap=args.cap)
    verdict = sr.singleton_msrd(C, d=d)
    if args.emit_code:
        _write(args.emit_code, fmt.code_to_json(C))
    if args.spectrum_csv:
        spec = sr.weight_spectrum(C, cap=args.cap)
        Path(args.spectrum_csv).write_text(fmt.histogram_csv(spec))
    return verdict


def _cmd_dual(args) -> dict:
    D = _load_design(args.design)
    if args.variant == "ordinary":
        out = de.dual_design(D, args.s, args.A, cap=args.cap)
    else:
        out = sr.delsarte_dual(D, cap=args.cap)
    if args.output:
        _write(args.output, fmt.design_to_json(out))
    return {"variant": args.variant, "dims": list(out.dims), "output": args.output}


def _cmd_cutting(args) -> dict:
    D = _load_design(args.design)
    report = de.is_cutting(D, cap=args.cap)
    return {
        "cutting": report.cutting,
        "intersection_constant": report.intersection_constant,
        "constant_value": report.constant_value,
        "witness_rows": report.witness.basis.tolist() if report.witness is not None else None,
    }


def _cmd_minimal(args) -> dict:
    payload = _read_json(args.code)
    if isinstance(payload, dict) and "generator" in payload:  # else a design record, or a FormatError
        C = fmt.code_from_json(payload)
    else:
        C = sr.code_from_system(fmt.design_from_json(payload))
    ok, witness = sr.is_minimal_code(C, method=args.method, cap=args.cap)
    return {
        "minimal": ok,
        "method": args.method,
        "witness": None if witness is None else [witness[0].tolist(), witness[1].tolist()],
    }


def _cmd_srg(args) -> dict:
    D = _load_design(args.design)
    P = ha.ext_system(D, cap=args.cap)
    params = ha.srg_from_two_intersection(P, verify_graph=args.verify_graph, cap=args.cap)
    if args.dot:
        Path(args.dot).write_text(ha.export_dot(P))
    return {"v": params.v, "K": params.K, "lambda": params.lam, "mu": params.mu,
            "graph_verified": bool(args.verify_graph)}


def _cmd_expander(args) -> dict:
    D = _load_design(args.design)
    tower = D.ambient.tower
    beta = None if args.beta == "default" else _parse_elements(tower, args.beta)
    fam = ex.build_expander(D, beta=beta)
    target = tuple(args.target) if args.target else None
    report = ex.expansion_check(
        fam,
        args.max_dim,
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
        target=target,
        cap=args.cap,
    )
    out = {"ell": fam.ell, "degree": len(fam.maps), "verdict": report.verdict, "per_dim": {}}
    for r, data in report.per_dim.items():
        out["per_dim"][r] = {
            "min_ratio": str(data["min_ratio"]),
            "count": data["count"],
            "witness_rows": data["witness"].tolist(),
        }
    return out


def _cmd_strong(args) -> dict:
    if args.strong_verb == "verify":
        S = fmt.strong_design_from_json(_read_json(args.design))
        A = sb.verify_strong(S, args.s, cap=args.cap)
        return {"s": args.s, "A_min": A, "t": S.t}
    if args.strong_verb == "cameron-liebler":
        params = {"of": args.of} if args.of else None
        S, predicted = sb.cameron_liebler(args.kind, args.n, args.k, args.q, params=params, cap=args.cap)
        if args.output:
            _write(args.output, fmt.strong_design_to_json(S))
        return {"t": S.t, "predicted": predicted, "output": args.output}
    if args.strong_verb == "intermediate":
        S = fmt.strong_design_from_json(_read_json(args.design))
        out = sb.intermediate_field_design(S, args.c, args.s, A=args.A, cap=args.cap)
        if args.output:
            _write(args.output, fmt.design_to_json(out))
        return {"dims": list(out.dims), "output": args.output}
    q, m, members, p, zeta, k = fmt.places_from_json(_read_json(args.spec))
    D = sb.places_embed(tower_for(q, m), members, p, zeta, k, cap=args.cap)
    if args.output:
        _write(args.output, fmt.design_to_json(D))
    return {"dims": list(D.dims), "output": args.output}


def _cmd_repro(args) -> dict:
    only = [int(x) for x in args.only.split(",")] if args.only else None
    results = repro.run(only=only)
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        print(f"[{status}] criterion {res.number}: {res.name} ({res.elapsed:.1f}s) - {res.details}")
        for msg in res.failures:
            print(f"         {msg}")
    summary = {
        "pass": sum(1 for r in results if r.ok),
        "fail": sum(1 for r in results if not r.ok),
        "criteria": {r.number: {"ok": r.ok, "details": r.details, "failures": r.failures} for r in results},
    }
    if any(not r.ok for r in results):
        raise AssertionError(f"{summary['fail']} acceptance criteria failed")
    return summary


# --- parser ---------------------------------------------------------------------------


@functools.cache  # one parser per process: main parses every argv with it
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="subdesigns", description=__doc__)
    ap.add_argument("--cap", type=_positive_int, default=sp.DEFAULT_ENUMERATION_CAP, help="enumeration cap")
    ap.add_argument("--seed", type=int, default=0)
    sub = ap.add_subparsers(dest="verb", required=True)

    c = sub.add_parser("construct", help="build a design and write it as JSON")
    c.add_argument("kind", choices=["pseudoregulus", "twisted", "basis-partition", "field-partition",
                                    "direct-sum", "enlarge"])
    c.add_argument("inputs", nargs="*", help="input design files (direct-sum, enlarge)")
    c.add_argument("--q", type=_positive_int)
    c.add_argument("--m", type=_positive_int)
    c.add_argument("--k", type=_positive_int)
    c.add_argument("--r", type=_positive_int)
    c.add_argument("--s", type=int)
    c.add_argument("--s-exp", type=int, default=1)
    c.add_argument("--mus")
    c.add_argument("--alphas", default="")
    c.add_argument("--eta", default="0")
    c.add_argument("--partition", type=_partition, help='blocks of basis indices, e.g. "1,2;3,4"')
    c.add_argument("--increments", type=_int_list, help="one increment per member, e.g. 1,0")
    c.add_argument("-o", "--output")
    c.set_defaults(func=_cmd_construct)

    p = sub.add_parser("profile", help="exact (s, A_min) profile with witness")
    p.add_argument("design")
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=_cmd_profile)

    cl = sub.add_parser("classify", help="design-hood / maximality / bound report")
    cl.add_argument("design")
    cl.add_argument("--max-s", type=int, default=None)
    cl.set_defaults(func=_cmd_classify)

    w = sub.add_parser("weights", help="hyperplane histogram and Hamming enumerator")
    w.add_argument("design")
    w.add_argument("--hist-csv")
    w.add_argument("--enumerator-csv")
    w.set_defaults(func=_cmd_weights)

    ms = sub.add_parser("msrd", help="Singleton bound decomposition and MSRD verdict")
    ms.add_argument("design")
    ms.add_argument("--emit-code", help="also write the associated code JSON")
    ms.add_argument("--spectrum-csv", help="write the sum-rank weight distribution as CSV")
    ms.set_defaults(func=_cmd_msrd)

    du = sub.add_parser("dual", help="ordinary or Delsarte dual design")
    du.add_argument("variant", choices=["ordinary", "delsarte"])
    du.add_argument("design")
    du.add_argument("--s", type=int, default=1)
    du.add_argument("--A", type=int, default=1)
    du.add_argument("-o", "--output")
    du.set_defaults(func=_cmd_dual)

    cu = sub.add_parser("cutting", help="cutting-design verdict with witness")
    cu.add_argument("design")
    cu.set_defaults(func=_cmd_cutting)

    mi = sub.add_parser("minimal", help="minimality of a sum-rank code (code or design JSON)")
    mi.add_argument("code")
    mi.add_argument("--method", choices=["geometric", "pairs"], default="geometric")
    mi.set_defaults(func=_cmd_minimal)

    sg = sub.add_parser("srg", help="strongly-regular-graph parameters of the Ext system")
    sg.add_argument("design")
    sg.add_argument("--verify-graph", action="store_true")
    sg.add_argument("--dot", help="write a DOT rendering of the (tiny) graph")
    sg.set_defaults(func=_cmd_srg)

    e = sub.add_parser("expander", help="build the evaluation maps and check expansion")
    e.add_argument("design")
    e.add_argument("--beta", default="default")
    e.add_argument("--max-dim", type=int, default=2)
    e.add_argument("--mode", choices=["exhaustive", "sample"], default="exhaustive")
    e.add_argument("--samples", type=_positive_int, default=200)
    e.add_argument("--target", nargs=2, type=_fraction, default=None, metavar=("ETA", "ZETA"))
    e.set_defaults(func=_cmd_expander)

    st = sub.add_parser("strong", help="strong-subspace-design operations")
    stsub = st.add_subparsers(dest="strong_verb", required=True)
    sv = stsub.add_parser("verify")
    sv.add_argument("design")
    sv.add_argument("--s", type=int, required=True)
    sv.set_defaults(func=_cmd_strong)
    scl = stsub.add_parser("cameron-liebler")
    scl.add_argument("--kind", required=True,
                     choices=["point_pencil", "in_hyperplane", "mixed", "complement"])
    scl.add_argument("--n", type=int, required=True)
    scl.add_argument("--k", type=int, required=True)
    scl.add_argument("--q", type=int, required=True)
    scl.add_argument("--of", default=None, help="the base kind of a complement")
    scl.add_argument("-o", "--output")
    scl.set_defaults(func=_cmd_strong)
    sin = stsub.add_parser("intermediate")
    sin.add_argument("design")
    sin.add_argument("--c", type=int, required=True)
    sin.add_argument("--s", type=int, required=True)
    sin.add_argument("--A", type=int, default=None)
    sin.add_argument("-o", "--output")
    sin.set_defaults(func=_cmd_strong)
    spl = stsub.add_parser("places")
    spl.add_argument("spec", help="JSON: {q, m, k, zeta, p: [coeffs], members: [[poly...]...]}")
    spl.add_argument("-o", "--output")
    spl.set_defaults(func=_cmd_strong)

    r = sub.add_parser("repro", help="run the acceptance suite")
    r.add_argument("target", choices=["paper-examples"])
    r.add_argument("--only", default=None, help="comma-separated criterion numbers")
    r.set_defaults(func=_cmd_repro)

    return ap


# Arguments each construction reads without a default ("inputs": the design files).
_CONSTRUCT_NEEDS = {
    "pseudoregulus": ("q", "m", "r", "mus"),
    "twisted": ("q", "m", "k"),
    "basis-partition": ("q", "m", "k", "partition"),
    "field-partition": ("q", "m", "k"),
    "enlarge": ("inputs", "s", "increments"),
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.verb == "construct":
        missing = [f"--{name}" if name != "inputs" else "an input file"
                   for name in _CONSTRUCT_NEEDS.get(args.kind, ()) if getattr(args, name) in (None, [])]
        if missing:
            ap.error(f"construct {args.kind} needs {', '.join(missing)}")
    try:
        report = args.func(args)
    except (SubdesignsError, AssertionError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True))
        return 1
    _emit(report)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
