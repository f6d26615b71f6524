"""Command-line front end: verification suites and exact table generators.

Exit codes: 0 means every requested check passed, 1 means a mathematical
check failed or an input hit a singular point, 2 means a usage error, 141
(128 + SIGPIPE, as a shell reports) means stdout was closed early.
Identical invocations produce byte-identical output; randomized suites
draw their exact rational points from the seed. Defaults can be overridden
with SOCONE_* environment variables (SOCONE_N, SOCONE_TAU, SOCONE_DEGREE,
SOCONE_KMAX, SOCONE_SEED, SOCONE_HEIGHT, SOCONE_FORMAT); each command takes
only the options it reads, and a SOCONE_* value sets only those.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import re
import sys
from fractions import Fraction

from . import algebra, berezin, fock, jsonio, matrices, spectral, states
from .poly import MultiPoly
from .scalars import GaussianRational

_EXACT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
# argparse reads "-5/2" or "-1/2,0" as an option unless it matches the
# parser's negative-number pattern, which by default admits only decimals
_NEGATIVE_VALUE_RE = re.compile(r"^-\d")


class UsageError(ValueError):
    pass


def _parse_exact(text: str) -> Fraction:
    if not _EXACT_RE.match(text.strip()):
        try:
            float(text)
        except ValueError:
            raise UsageError(f"not an exact rational: {text!r}") from None
        raise UsageError(f"not an exact rational: {text!r} (floats are rejected)")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise UsageError(f"zero denominator in {text!r}") from None


def _parse_tau(text: str):
    if text.strip() == "symbolic":
        return None
    return _parse_exact(text)


def _parse_tuple(text: str, n: int) -> list:
    parts = text.split(",")
    if len(parts) != n or not all(p.strip() for p in parts):
        raise UsageError(f"expected {n} comma-separated rationals, got {text!r}")
    return [_parse_exact(p) for p in parts]


_FORMATS = ("text", "json", "csv")


_ENV_NAMES = ("N", "TAU", "DEGREE", "KMAX", "SEED", "HEIGHT", "FORMAT")


def _env_defaults() -> tuple:
    """The SOCONE_* values, None where unset: the key of the cached parser."""
    return tuple(os.environ.get(f"SOCONE_{name}") for name in _ENV_NAMES)


def _format(choices: tuple, text: str) -> str:
    # argparse checks `choices` only on the command line, not on defaults
    if text not in choices:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(map(repr, choices))})"
        )
    return text


def _checked(args) -> argparse.Namespace:
    """The parsed options, range-checked, with --tau read as an exact weight
    (None for symbolic); a command has only the options it reads."""
    if args.n < 1:
        raise UsageError("the spatial dimension must be at least 1")
    if getattr(args, "degree", 0) < 0 or getattr(args, "kmax", 0) < 0:
        raise UsageError("degree bounds must be non-negative")
    if getattr(args, "height", 1) < 1:
        raise UsageError("the height of random rationals must be at least 1")
    if hasattr(args, "tau"):
        args.tau = _parse_tau(args.tau)
    return args


def _value_str(value) -> str:
    if isinstance(value, MultiPoly):
        return str(value)
    return str(GaussianRational.coerce(value))


def _tau_json(args) -> str:
    return "symbolic" if args.tau is None else str(args.tau)


def _write(text: str) -> int:
    """Write text to stdout and return 0.

    Under PYTHONUNBUFFERED the stdout buffer is a raw FileIO: a pipe write
    that the reader abandons takes only part of the bytes, and the text layer
    ignores the short count. So the bytes go to a raw buffer in a loop until
    all are written, and the retry on a closed pipe raises BrokenPipeError.
    """
    buffer = getattr(sys.stdout, "buffer", None)
    if not isinstance(buffer, io.RawIOBase):
        sys.stdout.write(text)
        return 0
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        written = buffer.write(data)
        data = data[written:]
    return 0


def _write_json(payload) -> int:
    return _write(jsonio.dumps(payload) + "\n")


def _write_rows(args, headers: list, rows: list) -> int:
    """A table of str cells: csv with a header row, or text without one."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return _write(buf.getvalue())
    return _write("\n".join("  ".join(row) for row in rows) + "\n")


# -- verify ---------------------------------------------------------------------


def _suite_lie(args) -> list:
    reports = [
        algebra.verify_relations(algebra.build_algebra(args.n)),
        algebra.verify_observables(args.n),
    ]
    if args.n >= 2:
        reports.append(algebra.conjugation_check(args.n))
    if args.n == 3:
        reports.append(algebra.reference_check_n3())
    return reports


def _suite_coherent(args) -> list:
    return [states.coherent_suite(args.n, count=50, seed=args.seed, height=args.height)]


def _suite_fock(args) -> list:
    d = max(args.degree, 3)
    return [
        fock.verify_hat_relations(args.n, d),
        fock.verify_adjointness(args.n, d),
        fock.series_duality_check(args.n, min(d, 4)),
        fock.number_grading_check(args.n, d),
    ]


def _suite_berezin(args) -> list:
    d = max(args.degree, 4)
    return [
        berezin.verify_raising_identity(args.n, min(d, 4)),
        berezin.verify_pde_system(args.n),
        berezin.bessel_form_check(args.n, d),
        berezin.hat_from_pde_check(args.n, d),
        berezin.wick_recipe_check(args.n, max(d, 5)),
        berezin.vacuum_symbol_check(args.n),
    ]


def _suite_observables(args) -> list:
    d = max(args.degree, 2)
    reports = [
        spectral.roundtrip_check(args.n, 20, seed=args.seed, height=args.height),
        spectral.moment_consistency_check(args.n, min(d, 4)),
        spectral.vacuum_orthogonality_check(args.n, min(d, 4)),
    ]
    if args.n <= 3:
        reports.append(spectral.verify_coordinate_duality(args.n))
    if args.n == 1:
        reports.append(spectral.orthogonality_check(Fraction(3), min(args.kmax, 5)))
    return reports


def _latex_identities(args) -> list:
    base = states.leibniz_base(args.n)
    lines = [
        r"\Upsilon_{wv} = \left(" + base.latex() + r"\right)^{-\tau/2}",
    ]
    for j in range(1, args.n + 1):
        lhs = base.diff(f"w{j}")
        lines.append(
            rf"-\tfrac{{\tau}}{{2}} \left({lhs.latex()}\right) "
            rf"= \tau v_{{{j}}} P - \tau v_{{{j}}} v_l \partial_{{v_l}} P "
            rf"+ \tfrac{{\tau}}{{2}} (v \cdot v) \partial_{{v_{j}}} P"
        )
    return lines


def cmd_verify(args) -> int:
    if args.emit_latex and args.format == "json":
        raise UsageError("--emit-latex writes text lines, not JSON")
    suites = {
        "lie": _suite_lie,
        "coherent": _suite_coherent,
        "fock": _suite_fock,
        "berezin": _suite_berezin,
        "observables": _suite_observables,
    }
    chosen = [suite for name, suite in suites.items() if args.all or getattr(args, name)]
    reports = [r for suite in chosen or suites.values() for r in suite(args)]
    if args.format == "json":
        lines = [jsonio.dumps([r.to_json() for r in reports])]
    else:
        lines = [line for report in reports for line in report.lines()]
    if args.emit_latex:
        lines.extend(_latex_identities(args))
    _write("".join(line + "\n" for line in lines))
    failures = [c for r in reports for c in r.failed()]
    if failures:
        print(f"FAILED: {failures[0].name}", file=sys.stderr)
        return 1
    return 0


# -- tables -----------------------------------------------------------------------


def cmd_gram(args) -> int:
    gram = fock.gram_matrix(args.n, args.degree)
    basis = gram.basis
    labels = [jsonio.multi_index_label(k) for k in basis]
    if args.tau is None:
        entries = [[gram.entry(k, m) for m in basis] for k in basis]
    else:
        # the polynomials' values at the weight, as dense rationals
        entries = gram.eval_at(args.tau)
    if args.format == "json":
        if args.tau is not None:
            # constants, in the form of the symbolic table: most cells are
            # zero, and the zero polynomial is []
            entries = [[MultiPoly.const(v) if v else [] for v in row] for row in entries]
        return _write_json({
            "n": args.n,
            "degree": args.degree,
            "tau": _tau_json(args),
            "basis": labels,
            "matrix": entries,
        })
    rows = [[lab] + [str(v) for v in row] for lab, row in zip(labels, entries)]
    return _write_rows(args, [""] + labels, rows)


def _emit_indexed(args, basis: list, values: list, key: str) -> int:
    """One value per multi-index: a single csv row, or index/value rows."""
    labels = [jsonio.multi_index_label(k) for k in basis]
    if args.format == "json":
        return _write_json({
            "n": args.n,
            "degree": args.degree,
            "tau": _tau_json(args),
            key: [
                {"index": lab, "value": v}
                for lab, v in zip(labels, values)
            ],
        })
    cells = [_value_str(v) for v in values]
    if args.format == "csv":
        return _write_rows(args, labels, [cells])
    return _write_rows(args, [], list(zip(labels, cells)))


def cmd_moments(args) -> int:
    table = spectral.moments(args.n, args.degree, tau=args.tau, check_hat=False)
    basis = fock.multi_indices(args.n, args.degree)
    return _emit_indexed(args, basis, [table.moment(k) for k in basis], "moments")


def cmd_basis_poly(args) -> int:
    polys = spectral.basis_polynomials(args.n, args.kmax, tau=args.tau)
    labels = [jsonio.multi_index_label(bp.index) for bp in polys]
    if args.format == "json":
        return _write_json({
            "n": args.n,
            "kmax": args.kmax,
            "tau": _tau_json(args),
            "polynomials": [
                {
                    "index": lab,
                    "text": str(bp.poly),
                    "terms": bp.poly,
                }
                for lab, bp in zip(labels, polys)
            ],
        })
    rows = [[lab, str(bp.poly)] for lab, bp in zip(labels, polys)]
    return _write_rows(args, ["index", "polynomial"], rows)


def cmd_transform(args) -> int:
    series = spectral.spectral_transform(args.n, args.degree, tau=args.tau)
    buckets = series.split_index("z", args.n)
    basis = fock.multi_indices(args.n, args.degree)
    values = [buckets.get(k, MultiPoly.zero()) for k in basis]
    return _emit_indexed(args, basis, values, "coefficients")


def cmd_leibniz(args) -> int:
    if args.w is not None or args.v is not None:
        if args.w is None or args.v is None:
            raise UsageError("provide both --w and --v, or neither")
        w = _parse_tuple(args.w, args.n)
        v = _parse_tuple(args.v, args.n)
        value = states.leibniz_from_matrices(w, v)
        if args.format == "json":
            return _write_json({
                "n": args.n,
                "w": [str(c) for c in w],
                "v": [str(c) for c in v],
                "value": value,
            })
        return _write_rows(args, ["value"], [[_value_str(value)]])
    series = states.leibniz_closed_form(args.n, args.degree, tau=args.tau)
    if args.format == "json":
        return _write_json({
            "n": args.n,
            "degree": args.degree,
            "tau": _tau_json(args),
            "series": series,
        })
    return _write_rows(args, ["series"], [[str(series)]])


def cmd_coords(args) -> int:
    if (args.z is None) == (args.v is None):
        raise UsageError("provide exactly one of --z or --v")
    if args.z is not None:
        given, name, other = _parse_tuple(args.z, args.n), "z", "v"
        image, h2 = spectral.z_to_v(given)
    else:
        given, name, other = _parse_tuple(args.v, args.n), "v", "z"
        image, h2 = spectral.v_to_z(given)
    if args.format == "json":
        return _write_json({
            "n": args.n,
            name: [str(c) for c in given],
            other: list(image),
            "h2": h2,
        })
    rows = [[other] + [_value_str(c) for c in image], ["h2", _value_str(h2)]]
    return _write_rows(args, ["name", "value"], rows)


def cmd_coherent(args) -> int:
    symbolic = args.v == "symbolic"
    if symbolic:
        v = [MultiPoly.var(f"v{j}") for j in range(1, args.n + 1)]
    else:
        v = _parse_tuple(args.v, args.n)
    state = states.coherent_state(v)
    if args.format == "json":
        return _write_json({
            "n": args.n,
            "v": "symbolic" if symbolic else [str(Fraction(c)) for c in v],
            "state": list(state.entries),
        })
    return _write_rows(args, ["component"], [[_value_str(e)] for e in state.entries])


# -- entry point -------------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def _build_parser(env: tuple) -> argparse.ArgumentParser:
    # argparse runs a string default through the flag's type on every
    # parse_args, so a bad SOCONE_* value is reported like a bad flag
    # (exit 2) by a cached parser too
    values = dict(zip(_ENV_NAMES, env))

    def default(name, fallback):
        value = values[name]
        return fallback if value is None else value

    parser = argparse.ArgumentParser(
        prog="socone",
        description="exact verification suites and tables for the so(n,2) "
        "coherent-state realization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, names, degree_default="4", formats=_FORMATS):
        # only the options the command reads, in one order on every command
        p._negative_number_matcher = _NEGATIVE_VALUE_RE
        fmt = functools.partial(_format, formats)
        specs = {
            "n": dict(type=int, default=default("N", "2")),
            "tau": dict(default=default("TAU", "symbolic")),
            "degree": dict(type=int, default=default("DEGREE", degree_default)),
            "kmax": dict(type=int, default=default("KMAX", "4")),
            "seed": dict(type=int, default=default("SEED", "0")),
            "height": dict(type=int, default=default("HEIGHT", "5")),
            "format": dict(type=fmt, choices=formats, default=default("FORMAT", "text")),
        }
        for name, spec in specs.items():
            if name in names.split():
                p.add_argument(f"--{name}", **spec)

    p = sub.add_parser("verify", help="run verification suites")
    common(p, "n degree kmax seed height format", formats=("text", "json"))
    for flag in ("lie", "coherent", "fock", "berezin", "observables", "all"):
        p.add_argument(f"--{flag}", action="store_true")
    p.add_argument("--emit-latex", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gram", help="pairing table of the basis states")
    common(p, "n degree tau format", degree_default="3")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("moments", help="joint spectral moments")
    common(p, "n degree tau format")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("basis-poly", help="basis states in spectral variables")
    common(p, "n kmax tau format")
    p.set_defaults(func=cmd_basis_poly)

    p = sub.add_parser("transform", help="cone transform series")
    common(p, "n degree tau format")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("leibniz", help="pairing values and series")
    common(p, "n degree tau format")
    p.add_argument("--w")
    p.add_argument("--v")
    p.set_defaults(func=cmd_leibniz)

    p = sub.add_parser("coherent", help="coherent state vectors")
    common(p, "n format")
    p.add_argument("--v", default="symbolic")
    p.set_defaults(func=cmd_coherent)

    p = sub.add_parser("coords", help="coordinate changes between z and v")
    common(p, "n format")
    p.add_argument("--z")
    p.add_argument("--v")
    p.set_defaults(func=cmd_coords)

    return parser


def main(argv=None) -> int:
    args = _build_parser(_env_defaults()).parse_args(argv)
    try:
        code = args.func(_checked(args))
        sys.stdout.flush()  # a closed pipe fails here, not in the exit flush
        return code
    except BrokenPipeError:
        # the `signal` docs' recipe: the exit flush then writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (
        spectral.SingularCoordinateError,
        berezin.PoleError,
        states.NotInOrbitError,
    ) as exc:
        print(f"singular input: {exc}", file=sys.stderr)
        return 1
    except (AssertionError, matrices.NotNilpotentError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
