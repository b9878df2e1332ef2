"""Command-line surface: reproducible experiments with machine-readable
output.

Every run echoes its configuration and seed; identical argv and seed give
byte-identical JSON (pass --no-timestamp to drop the one varying field).
Magnitudes are reported as integer k-exponents (null for zero), never as
floats; the only floats are the explicitly labelled empirical-dimension
ratios.

Exit codes: 0 success, 2 usage, 3 budget or precision exhaustion,
4 certification counterexample.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction

from .approx import (
    LinearFormSystem,
    _exp_or_none,
    badness_constant,
    cf_convergents,
    cf_expand,
    default_dirichlet_constant,
    dirichlet_witness,
    is_bad_cf,
)
from .errors import (
    CounterexampleFound,
    InsufficientDepth,
    PrecisionExhausted,
    SearchBudgetExceeded,
    SearchIncomplete,
    WitnessNotFound,
)
from .field import Magnitude
from .geom import (
    Parallelepiped,
    check_duality,
    measure_exponent_dual,
    parallelepiped_measure,
    polar,
    successive_minima,
)
from .series import (
    MAX_EXPONENT,
    RationalFn,
    format_matrix,
    format_series,
    parse_field,
    parse_matrix,
    parse_poly,
    parse_series,
)


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        argv = _attach_dash_values(_expand_config(argv))
        parser = _build_parser()
        args = parser.parse_args(argv)
        if not hasattr(args, "handler"):
            parser.print_help()
            _emit_diagnostic(argparse.ArgumentError(None, "a command is required"))
            return 2
        result = args.handler(args)
    except (
        InsufficientDepth,
        PrecisionExhausted,
        SearchBudgetExceeded,
        SearchIncomplete,
        WitnessNotFound,
    ) as exc:
        _emit_diagnostic(exc)
        return 3
    except CounterexampleFound as exc:
        _emit_diagnostic(exc, extra={"q": [str(p) for p in exc.q]})
        return 4
    except (ValueError, ZeroDivisionError, OSError) as exc:
        # bad values (DivisionByZero included) and unreadable files are
        # usage errors, not crashes
        _emit_diagnostic(exc)
        return 2
    _emit(args, result)
    return 0


def _attach_dash_values(argv):
    """Glue ``--flag -10,-7`` into ``--flag=-10,-7``: argparse takes a value
    that starts with '-' and is not a plain number for an option."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and re.match(r"-\d", tok):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def _expand_config(argv):
    """Inline `--config file` as leading defaults (explicit flags win)."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 == len(argv):
        raise ValueError("--config needs a file path")
    path = argv[idx + 1]
    rest = argv[:idx] + argv[idx + 2 :]
    injected = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            key = key.strip().replace("_", "-")
            value = value.strip()
            injected.extend([f"--{key}", value] if value else [f"--{key}"])
    # keep the subcommand words in front of the injected options
    split = len(rest)
    for idx, tok in enumerate(rest):
        if tok.startswith("-"):
            split = idx
            break
    return rest[:split] + injected + rest[split:]


def _emit(args, result):
    envelope = {
        "command": args.command_path,
        "config": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("handler", "command_path") and not k.startswith("_")
            and isinstance(v, (str, int, float, bool, type(None)))
        },
        "seed": getattr(args, "seed", None),
        "result": result,
    }
    if getattr(args, "timestamp", True):
        envelope["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        print(json.dumps(envelope, sort_keys=True, default=str))
    elif fmt == "csv":
        _print_csv(result)
    else:
        _print_text(envelope)


def _print_csv(result):
    rows = result.get("rows") if isinstance(result, dict) else None
    if rows is None:
        print("key,value")
        for k, v in sorted(result.items()):
            print(f"{k},{v}")
        return
    header = sorted(rows[0]) if rows else []
    print(",".join(header))
    for row in rows:
        print(",".join(str(row[h]) for h in header))


def _print_text(envelope):
    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k in sorted(obj):
                v = obj[k]
                if isinstance(v, (dict, list)):
                    print(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    print(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    walk(v, indent + 1)
                else:
                    print(f"{pad}- {v}")

    walk(envelope)


def _emit_diagnostic(exc, extra=None):
    diag = {
        "error": type(exc).__name__,
        "message": str(exc),
    }
    if extra:
        diag.update(extra)
    for attr in ("required_bound", "required_moves", "count", "position"):
        if getattr(exc, attr, None) is not None:
            diag[attr] = getattr(exc, attr)
    print(json.dumps(diag, sort_keys=True, default=str), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Usage errors print the one-line JSON diagnostic, then exit 2."""

    def error(self, message):
        _emit_diagnostic(argparse.ArgumentError(None, message))
        self.exit(2)


def nonnegative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def precision(text):
    value = int(text)
    if value > MAX_EXPONENT:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_EXPONENT}, got {value}")
    return value


def _add_common(p):
    p.add_argument("--field", default="2", help="p, p^r, or p^r:modulus")
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility; has no effect",
    )
    p.add_argument("--budget", type=nonnegative, default=2_000_000)
    p.add_argument(
        "--no-timestamp", dest="timestamp", action="store_false", default=True
    )


def _build_parser():
    top = _Parser(
        prog="lsdioph",
        description="Diophantine approximation over Laurent series fields",
    )
    sub = top.add_subparsers(dest="command")

    p = sub.add_parser("series", help="parse, evaluate, and measure series")
    _add_common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--y")
    p.add_argument("--op", choices=["add", "sub", "mul", "div"], default="add")
    p.add_argument("--precision", type=precision, default=64)
    p.set_defaults(handler=_cmd_series, command_path="series")

    p = sub.add_parser("cf", help="continued fraction expansion")
    _add_common(p)
    p.add_argument("--x", required=True)
    p.add_argument("--den", help="denominator polynomial for an exact rational input")
    p.add_argument("--terms", type=int, default=16)
    p.add_argument("--depth", type=int, help="badness verdict depth")
    p.set_defaults(handler=_cmd_cf, command_path="cf")

    p = sub.add_parser("badness", help="truncated badness constant")
    _add_common(p)
    p.add_argument("--matrix", required=True, help="rows ';', entries ','")
    p.add_argument("--den", help="denominator: entries become exact rationals")
    p.add_argument("--cap", type=nonnegative, required=True, help="height cap exponent")
    p.set_defaults(handler=_cmd_badness, command_path="badness")

    p = sub.add_parser("dirichlet", help="Dirichlet witness, read off the level walk")
    _add_common(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--c0", type=int)
    p.set_defaults(handler=_cmd_dirichlet, command_path="dirichlet")

    p = sub.add_parser("sucmin", help="successive minima of a parallelepiped")
    _add_common(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--bounds", help="comma-separated k-exponents, default 0")
    p.add_argument("--degree-bound", type=int)
    p.set_defaults(handler=_cmd_sucmin, command_path="sucmin")

    p = sub.add_parser("measure", help="Haar measure of a parallelepiped")
    _add_common(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--bounds")
    p.set_defaults(handler=_cmd_measure, command_path="measure")

    p = sub.add_parser("polar", help="polar parallelepiped")
    _add_common(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--bounds")
    p.set_defaults(handler=_cmd_polar, command_path="polar")

    p = sub.add_parser("duality", help="minima duality identity")
    _add_common(p)
    p.add_argument("--matrix", required=True)
    p.add_argument("--bounds")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree-bound", type=int)
    p.set_defaults(handler=_cmd_duality, command_path="duality")

    game = sub.add_parser("game", help="ball game commands")
    gsub = game.add_subparsers(dest="game_command")
    p = gsub.add_parser("run", help="play a game")
    _add_common(p)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--white", default="white-avoid")
    p.add_argument("--black", default="black-random")
    p.add_argument("--rounds", type=int, default=24)
    p.add_argument("--initial-radius", default="1")
    p.add_argument("--R-exp", type=int, default=2)
    p.add_argument("--cap", type=nonnegative, default=4, help="strategy height cap exponent")
    p.add_argument("--out", help="transcript path (JSON lines)")
    p.set_defaults(handler=_cmd_game_run, command_path="game run")

    p = sub.add_parser("certify", help="badness certificate for a transcript's limit")
    _add_common(p)
    p.add_argument("--transcript", required=True)
    p.add_argument("--cap", type=nonnegative, required=True)
    p.add_argument("--R-exp", type=int, default=2)
    p.add_argument("--precision", type=precision, default=30)
    p.set_defaults(handler=_cmd_certify, command_path="certify")

    dimp = sub.add_parser("dim", help="dimension bounds and counts")
    dsub = dimp.add_subparsers(dest="dim_command")
    p = dsub.add_parser("bound", help="winning-set dimension lower bound")
    _add_common(p)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(handler=_cmd_dim_bound, command_path="dim bound")
    p = dsub.add_parser("pack", help="packing counts")
    _add_common(p)
    p.add_argument("--beta", required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(handler=_cmd_dim_pack, command_path="dim pack")
    p = dsub.add_parser("boxcount", help="box counting of truncated bad sets")
    _add_common(p)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--cap", type=nonnegative, required=True)
    p.add_argument(
        "--K-exps", required=True, help="comma-separated exponents, 'zero' allowed"
    )
    p.set_defaults(handler=_cmd_dim_boxcount, command_path="dim boxcount")

    cal = sub.add_parser("calibrate", help="empirical constants")
    csub = cal.add_subparsers(dest="calibrate_command")
    p = csub.add_parser("constants", help="sweep the strategy constants")
    _add_common(p)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--alpha", default="1/4")
    p.add_argument("--beta", default="1/2")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_calibrate_constants, command_path="calibrate constants")
    p = csub.add_parser("dirichlet", help="worst-case pigeonhole exponent")
    _add_common(p)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--grid-depth", type=int, default=6)
    p.set_defaults(handler=_cmd_calibrate_dirichlet, command_path="calibrate dirichlet")

    return top


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def _cmd_series(args):
    spec = parse_field(args.field)
    x = parse_series(args.x, spec)
    result = {"x": format_series(x), "x_norm_exp": _exp_or_none(x.norm())}
    if args.y is not None:
        y = parse_series(args.y, spec)
        if args.op == "add":
            z = x + y
        elif args.op == "sub":
            z = x - y
        elif args.op == "mul":
            z = x * y
        else:
            z = x.divide(y, precision=args.precision)
        result.update(
            {
                "y": format_series(y),
                "op": args.op,
                "value": format_series(z),
                "value_norm_exp": _exp_or_none(z.norm()),
                "value_known_below": z.known_below,
            }
        )
    else:
        result.update(
            {
                "poly_part": str(x.polynomial_part()),
                "frac_norm_exp": _exp_or_none(x.frac_norm()),
            }
        )
    return result


def _parse_scalar(args, spec):
    if args.den:
        num = parse_poly(args.x, spec)
        den = parse_poly(args.den, spec)
        return RationalFn(num, den)
    return parse_series(args.x, spec)


def _cmd_cf(args):
    spec = parse_field(args.field)
    x = _parse_scalar(args, spec)
    cf = cf_expand(x, args.terms)
    result = {
        "quotients": [str(a) for a in cf.quotients],
        "exact": cf.exact,
        "max_partial_degree": cf.max_partial_degree,
        "convergents": [[str(p), str(q)] for p, q in cf_convergents(cf)],
    }
    if args.depth is not None:
        verdict, max_deg = is_bad_cf(x, args.depth)
        result["is_bad"] = verdict
        result["is_bad_max_degree"] = max_deg
    return result


def _linear_system(args, spec):
    matrix = parse_matrix(args.matrix, spec)
    if getattr(args, "den", None):
        den = RationalFn.from_poly(parse_poly(args.den, spec))
        rows = [
            [RationalFn.from_series_exact(x) / den for x in row]
            for row in matrix.entries
        ]
        from .series import SeriesMatrix

        matrix = SeriesMatrix(spec, rows)
    return LinearFormSystem(matrix)


def _cmd_badness(args):
    spec = parse_field(args.field)
    sys_ = _linear_system(args, spec)
    K, witness = badness_constant(
        sys_, Magnitude.power(spec.k, args.cap), budget=args.budget
    )
    return {
        "K_exp": _exp_or_none(K),
        "witness": witness.to_json(),
        "cap_exp": args.cap,
        "m": sys_.m,
        "n": sys_.n,
    }


def _cmd_dirichlet(args):
    spec = parse_field(args.field)
    sys_ = _linear_system(args, spec)
    witness = dirichlet_witness(sys_, args.t, c0=args.c0, budget=args.budget)
    return {
        "witness": witness.to_json(),
        "t": args.t,
        "c0": args.c0
        if args.c0 is not None
        else default_dirichlet_constant(sys_.m, sys_.n),
        "c0_provenance": "empirical (pigeonhole oracle)",
    }


def _parallelepiped(args, spec) -> Parallelepiped:
    matrix = parse_matrix(args.matrix, spec)
    if args.bounds:
        exps = [int(v) for v in args.bounds.split(",")]
    else:
        exps = [0] * matrix.rows
    bounds = tuple(Magnitude.power(spec.k, e) for e in exps)
    return Parallelepiped(matrix, bounds)


def _cmd_sucmin(args):
    spec = parse_field(args.field)
    P = _parallelepiped(args, spec)
    sm = successive_minima(P, args.degree_bound, args.budget)
    return sm.to_json()


def _cmd_measure(args):
    P = _parallelepiped(args, parse_field(args.field))
    measure = parallelepiped_measure(P)
    text = _int_text(measure.numerator)
    if measure.denominator != 1:
        text += "/" + _int_text(measure.denominator)
    return {"measure": text, "measure_exp": -measure_exponent_dual(P)}


def _int_text(n: int) -> str:
    """``str(n)`` for n >= 0, past the interpreter's digit limit and in
    subquadratic time: n is split in halves of bits down to 512-bit pieces,
    and the pieces are joined again in ``decimal``, whose multiplication of
    large operands is subquadratic (CPython 3.11's int-to-str is not)."""
    from decimal import MAX_EMAX, MAX_PREC, Decimal, Inexact, localcontext

    powers = {}

    def two_to(w):
        if w not in powers:
            powers[w] = Decimal(2) ** w if w <= 512 else two_to(w >> 1) * two_to(w - (w >> 1))
        return powers[w]

    def convert(n, w):
        if w <= 512:
            return Decimal(n)
        half = w >> 1
        hi = n >> half
        return convert(n - (hi << half), half) + convert(hi, w - half) * two_to(half)

    with localcontext() as ctx:
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
        ctx.traps[Inexact] = True  # every step is exact
        return str(convert(n, n.bit_length()))


def _cmd_polar(args):
    spec = parse_field(args.field)
    P = _parallelepiped(args, spec)
    Q = polar(P)
    return {
        "matrix": format_matrix(Q.matrix),
        "bound_exps": [int(b.exponent()) for b in Q.bounds],
    }


def _cmd_duality(args):
    spec = parse_field(args.field)
    P = _parallelepiped(args, spec)
    report = check_duality(P, args.m, args.n, args.degree_bound)
    return report.to_json()


def _make_black(name: str, seed: int):
    from .game import GreedyBlack, RandomBlack, StdinBlack
    if name == "black-random":
        return RandomBlack(seed)
    if name == "black-greedy":
        return GreedyBlack()
    if name == "black-stdin":
        return StdinBlack()
    raise ValueError(f"unknown black strategy {name!r}")


def _cmd_game_run(args):
    from . import strategy as strat
    from .game import GameParams, StopRule, play, unit_ball
    spec = parse_field(args.field)
    params = GameParams(Fraction(args.alpha), Fraction(args.beta), spec)
    cfg = strat.StrategyConfig(
        spec,
        args.m,
        args.n,
        R_exp=args.R_exp,
        height_cap_exp=args.cap,
    )
    white = strat.make_white(args.white, cfg)
    black = _make_black(args.black, args.seed)
    initial = unit_ball(spec, args.m, args.n, Fraction(args.initial_radius))
    transcript = play(white, black, initial, params, StopRule(max_rounds=args.rounds))
    text = transcript.to_jsonl()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    result = {
        "rounds": transcript.full_rounds(),
        "final_radius": str(transcript.last().radius),
        "forfeit": None
        if transcript.forfeit is None
        else {"player": transcript.forfeit.player, "index": transcript.forfeit.index},
        "white": args.white,
        "black": args.black,
    }
    if args.out:
        result["transcript_path"] = args.out
    else:
        result["transcript"] = text.splitlines()
    return result


def _cmd_certify(args):
    from . import strategy as strat
    from .game import GameTranscript, limit_point
    with open(args.transcript) as fh:
        transcript = GameTranscript.from_jsonl(fh.read())
    m, n = transcript.shape
    spec = transcript.params.spec
    cfg = strat.StrategyConfig(
        spec, m, n, R_exp=args.R_exp, height_cap_exp=args.cap
    )
    point = limit_point(transcript, args.precision)
    cert = strat.certify_bad(
        point,
        cfg,
        Magnitude.power(spec.k, args.cap),
        known_below=-args.precision,
    )
    out = cert.to_json()
    out["limit_point"] = format_matrix(point)
    return out


def _cmd_dim_bound(args):
    from . import dimension as dim
    spec = parse_field(args.field)
    bound = dim.dim_lower_bound(
        Fraction(args.alpha), Fraction(args.beta), args.m, args.n, spec.k
    )
    return {
        "bound": str(bound),
        "bound_float": float(bound),
        "mn": args.m * args.n,
    }


def _cmd_dim_pack(args):
    from . import dimension as dim
    spec = parse_field(args.field)
    pc = dim.packing_count(Fraction(args.beta), args.m, args.n, spec.k)
    return {
        "beta": str(pc.beta),
        "i": pc.i,
        "coarse_count": pc.coarse_count,
        "max_count": pc.max_count,
    }


def _cmd_dim_boxcount(args):
    from . import dimension as dim
    spec = parse_field(args.field)
    rows = []
    for token in args.K_exps.split(","):
        token = token.strip()
        K = (
            Magnitude.zero(spec.k)
            if token in ("zero", "-inf")
            else Magnitude.power(spec.k, int(token))
        )
        for row in dim.box_count_bad(
            K,
            Magnitude.power(spec.k, args.cap),
            args.t,
            args.m,
            args.n,
            spec,
            budget=args.budget,
        ):
            rows.append(
                {
                    "K_exp": token,
                    "resolution": row.resolution,
                    "cells_total": row.cells_total,
                    "cells_surviving": row.cells_surviving,
                    "empirical_dim": row.empirical_dim,
                }
            )
    return {"rows": rows}


def _cmd_calibrate_constants(args):
    from . import strategy as strat
    spec = parse_field(args.field)
    report = strat.calibrate_constants(
        spec,
        args.m,
        args.n,
        samples=args.samples,
        seed=args.seed,
        alpha=Fraction(args.alpha),
        beta=Fraction(args.beta),
    )
    out = report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, sort_keys=True, indent=2)
        out["report_path"] = args.out
    return out


def _cmd_calibrate_dirichlet(args):
    import itertools

    from .series import LaurentSeries, SeriesMatrix

    spec = parse_field(args.field)
    m, n, t = args.m, args.n, args.t
    worst = None
    checked = 0
    space = list(itertools.product(range(spec.k), repeat=args.grid_depth))
    for combo in itertools.product(space, repeat=m * n):
        entries = []
        idx = 0
        for _i in range(m):
            row = []
            for _j in range(n):
                coeffs = {-(d + 1): c for d, c in enumerate(combo[idx]) if c}
                row.append(LaurentSeries(spec, coeffs))
                idx += 1
            entries.append(row)
        sys_ = LinearFormSystem(SeriesMatrix(spec, entries))
        wit = dirichlet_witness(sys_, t, c0=-10, budget=args.budget)  # never rejects
        checked += 1
        d = wit.dist
        if not d.is_zero and (worst is None or d > worst):
            worst = d
    base = -(-t * m // n)  # ceil(tm/n)
    c0 = (-int(worst.exponent()) - base) if worst is not None else None
    return {
        "t": t,
        "grid_depth": args.grid_depth,
        "matrices_checked": checked,
        "worst_dist_exp": _exp_or_none(worst) if worst is not None else None,
        "c0": c0,
        "provenance": "exhaustive grid oracle",
    }


if __name__ == "__main__":
    sys.exit(main())
