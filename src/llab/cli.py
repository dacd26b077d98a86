"""Experiment driver: weight-class checks, index estimation, extremal
constructions, certificates, and operator-norm probes, with CSV/JSON output.

All randomized searches are fully determined by --seed; two runs with the
same configuration produce byte-identical CSV bodies.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from . import boyd, construction, operators
from .errors import (
    ConfigurationError,
    InternalCheckError,
    PreconditionError,
    SingularInputError,
)
from .intervals import Interval, IntervalUnion, endpoints, overlap_measures, parse_union
from .weights import (
    WeightModel,
    check_A1,
    check_Ainf,
    check_Bp,
    check_Bstar_inf,
    check_delta2,
)

EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _load_weight(path: str) -> WeightModel:
    try:
        return WeightModel.load(path)
    except OSError as exc:
        raise ConfigurationError(f"cannot read weight config {path}: {exc}") from exc


def _interval_and_set(args) -> tuple[Interval, IntervalUnion]:
    try:
        I, S = Interval(*args.interval), parse_union(args.set)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed --interval or --set: {exc}") from exc
    if not all(math.isfinite(e) for e in (I.lo, I.hi, *endpoints(S))):
        raise ConfigurationError("--interval and --set need finite endpoints")
    return I, S


def _check_p(p: Optional[float]) -> None:
    """--p must be a finite number (else a configuration error) and positive
    (else a violated precondition, as the searches and norms state it)."""
    if p is None:
        return
    if not math.isfinite(p):
        raise ConfigurationError(f"--p must be a finite number, got {p!r}")
    if p <= 0.0:
        raise PreconditionError(f"p must be positive, got {p!r}")


def _print_json(obj) -> None:
    """Print obj as one line of standard JSON with sorted keys.  A non-finite
    number (NaN or an infinity) is a violated precondition, so stdout never
    carries NaN or Infinity."""
    try:
        text = json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise PreconditionError(f"result is not finite: {exc}") from exc
    print(text)


def _write_csv(path: Optional[str], header: str, rows: list[str]) -> None:
    body = header + "\n" + "".join(row + "\n" for row in rows)
    if path:
        with open(path, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


# -- subcommands ------------------------------------------------------------


def cmd_classes(args) -> int:
    w = _load_weight(args.w)
    u = _load_weight(args.u) if args.u else None
    out = {}
    out["Delta2"] = check_delta2(w).as_dict()
    if args.p is not None:
        out["Bp"] = check_Bp(w, args.p).as_dict()
    out["BstarInf"] = check_Bstar_inf(w).as_dict()
    if u is not None:
        out["A1"] = check_A1(u).as_dict()
        out["AInf"] = check_Ainf(u).as_dict()
    _print_json(out)
    return 0


def cmd_indices(args) -> int:
    u = _load_weight(args.u)
    w = _load_weight(args.w)
    est = boyd.compute_estimates(u, w, args.p, budget=args.budget, seed=args.seed)
    rows = []
    for t, v in zip(est.upper.arguments, est.upper.values):
        rows.append(
            f"{_fmt(t)},{_fmt(v)},,{est.upper.direction},{args.budget},{args.seed}"
        )
    for t, v in zip(est.lower.arguments, est.lower.values):
        rows.append(
            f"{_fmt(t)},,{_fmt(v)},{est.lower.direction},{args.budget},{args.seed}"
        )
    _write_csv(args.out, "t,wbar_u,underline_wu,direction,budget,seed", rows)
    mv = boyd.maximal_verdict(u, w, args.p, est)
    summary = {
        "alpha": est.alpha.exponent,
        "alpha_constant": est.alpha.constant,
        "alpha_residual": est.alpha.residual,
        "beta": est.beta.exponent,
        "beta_constant": est.beta.constant,
        "beta_residual": est.beta.residual,
        "margin": mv.margin,
        "maximal": mv.verdict,
    }
    _print_json(summary)
    return 0


def cmd_extremal(args) -> int:
    if args.lambdas <= 0:
        raise ConfigurationError(f"--lambdas must be positive, got {args.lambdas}")
    I, S = _interval_and_set(args)
    F = construction.build_extremal(I, S)
    floor = F.floor
    s = 1.0 / floor
    rows = []
    max_err = 0.0
    n = args.lambdas
    for i in range(n):
        lam = floor + (1.0 - floor) * (i + 1) / n
        J = F.level_set(lam)
        for k, (part, overlap) in enumerate(zip(J.parts, overlap_measures(S, J))):
            err = abs(overlap - lam * part.length) / max(part.length, 1e-300)
            max_err = max(max_err, err)
            rows.append(f"{_fmt(lam)},{k},{_fmt(part.lo)},{_fmt(part.hi)},{_fmt(err)}")
    _write_csv(args.out, "lambda,k,lo,hi,measure_check", rows)
    summary = {
        "s": s,
        "mean": F.mean_value(),
        "mean_formula": (1.0 + math.log(s)) / s,
        "max_identity_error": max_err,
    }
    _print_json(summary)
    return 0


def cmd_certify(args) -> int:
    u = _load_weight(args.u)
    w = _load_weight(args.w)
    I, S = _interval_and_set(args)
    if not S:
        raise PreconditionError("certificate needs a nonempty set")
    ratio = I.length / S.measure
    family = boyd.Configuration(pairs=((I, S),), ratio=ratio)
    cert = construction.weak_type_lower_bound(u, w, args.p, family)
    _print_json(cert.as_dict())
    return 0


def cmd_opnorm(args) -> int:
    u = _load_weight(args.u)
    w = _load_weight(args.w)
    if args.seed < 0:  # the test families seed numpy's generator with it
        raise ConfigurationError(f"opnorm needs a nonnegative seed, got {args.seed}")
    if args.family == "indicators":
        family = operators.indicator_family(args.count, args.seed)
    elif args.family == "extremals":
        if not 1.0 <= args.ratio < math.inf:  # the ratio |I|/|S| of the extremal pair
            raise ConfigurationError(f"--ratio must be a finite number >= 1, got {args.ratio!r}")
        family = operators.extremal_family(s=args.ratio, count=1)
    elif args.family.startswith("random"):
        try:
            n = int(args.family.split(":")[1]) if ":" in args.family else args.count
        except ValueError as exc:
            raise ConfigurationError(f"family random:N needs an integer N: {exc}") from exc
        family = operators.random_step_family(n, args.seed)
    else:
        raise ConfigurationError(f"unknown family {args.family!r}")
    report = operators.empirical_opnorm(args.operator, u, w, args.p, family, args.target)
    rows = [
        f"{tid},{_fmt(in_n)},{_fmt(out_n)},{_fmt(out_n / in_n)}"
        for tid, in_n, out_n in report.details
    ]
    _write_csv(args.out, "test_id,input_norm,output_norm,ratio", rows)
    _print_json(
        {
            "operator": report.operator,
            "target": report.norm_kind,
            "max_ratio": report.max_ratio,
            "approximate": report.approximate,
        }
    )
    return 0


def cmd_verdict(args) -> int:
    u = _load_weight(args.u)
    w = _load_weight(args.w)
    est = boyd.compute_estimates(u, w, args.p, budget=args.budget, seed=args.seed)
    hv = operators.hilbert_verdict(u, w, args.p, est)
    out = {
        "alpha": est.alpha.exponent,
        "beta": est.beta.exponent,
        "maximal": hv.maximal.as_dict(),
        "hilbert": hv.as_dict(),
    }
    _print_json(out)
    return 0


# -- entry point ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llab", description="weighted-Lorentz-space experiment driver"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def weights_and_seed(sp):
        sp.add_argument("--u", required=True)
        sp.add_argument("--w", required=True)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--p", type=float, default=2.0)

    sp = sub.add_parser("classes", help="weight-class certifications")
    sp.add_argument("--w", required=True)
    sp.add_argument("--u", default=None)
    sp.add_argument("--p", type=float, default=None)
    sp.set_defaults(func=cmd_classes)

    sp = sub.add_parser("indices", help="Boyd index estimation")
    weights_and_seed(sp)
    sp.add_argument("--budget", type=int, default=1)
    sp.add_argument("--out", default=None, help="CSV output path (default stdout)")
    sp.set_defaults(func=cmd_indices)

    sp = sub.add_parser("extremal", help="extremal function level-set report")
    sp.add_argument("--interval", type=float, nargs=2, required=True)
    sp.add_argument("--set", required=True, help="'a,b;c,d' or JSON [[a,b],...]")
    sp.add_argument("--lambdas", type=int, default=50)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_extremal)

    sp = sub.add_parser("certify", help="weak-type operator-norm lower bound")
    sp.add_argument("--interval", type=float, nargs=2, required=True)
    sp.add_argument("--set", required=True)
    weights_and_seed(sp)
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("opnorm", help="empirical operator-norm probing")
    sp.add_argument("--operator", choices=["maximal", "hilbert", "hstar", "q"], required=True)
    sp.add_argument("--family", default="indicators")
    sp.add_argument("--count", type=int, default=8)
    sp.add_argument("--ratio", type=float, default=math.e)
    sp.add_argument("--target", choices=["strong", "weak"], default="strong")
    weights_and_seed(sp)
    sp.add_argument("--out", default=None, help="CSV output path (default stdout)")
    sp.set_defaults(func=cmd_opnorm)

    sp = sub.add_parser("verdict", help="combined boundedness verdicts")
    weights_and_seed(sp)
    sp.add_argument("--budget", type=int, default=1)
    sp.set_defaults(func=cmd_verdict)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_p(getattr(args, "p", None))
        return args.func(args)
    except (ConfigurationError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PreconditionError, SingularInputError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OverflowError as exc:
        print(f"precondition violated: floating-point overflow: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
