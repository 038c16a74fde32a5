"""Command-line front end.

Exit codes: 0 solvable/success, 1 unsolvable/invalid, 2 usage or parse
error, or a standard output closed by its reader, 3 internal error
(including any unexpected exception) or oracle mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from pathlib import Path

from . import linsys, matalg, oracle, reductions, structure, sysio
from .errors import InternalError, RingsolveError, SpecParseError, quote, shown

EXIT_SOLVABLE = 0
EXIT_UNSOLVABLE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise SpecParseError(f"cannot read {shown(path)}: {exc.strerror or exc}")


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cert_payload(cert: linsys.Certificate) -> dict:
    if cert.verdict == "SOLVABLE":
        assign = {
            str(k): (v if isinstance(v, int) else v.name)
            for k, v in cert.assignment.items()
        }
        return {"verdict": "SOLVABLE", "assignment": dict(sorted(assign.items()))}
    w = cert.witness
    return {
        "verdict": "UNSOLVABLE",
        "summand": w.summand,
        "chain": w.chain_spec,
        "digest": w.digest,
        "witness": {str(k): str(v) for k, v in sorted(w.rows.items(), key=lambda kv: str(kv[0]))},
    }


def _cmd_ring(args) -> int:
    ring = sysio.parse_ring_spec(args.spec)
    if args.action == "info":
        print(f"ring {ring.spec}")
        print(f"size {ring.size}")
        print(f"characteristic {ring.characteristic()}")
        print(f"commutative {ring.commutative}")
        if ring.commutative:
            from .ring import idempotents, units

            print(f"units {len(units(ring))}")
            print("idempotents " + " ".join(sorted(e.name for e in idempotents(ring))))
            local = structure.is_local(ring)
            print(f"local {local}")
            if local:
                cd = structure.chain_data(ring)
                print(f"chain {cd is not None}")
                pnr = structure.is_galois_ring(ring)
                print(f"galois {pnr if pnr else False}")
        return EXIT_SOLVABLE
    if args.action == "decompose":
        print(f"ring {ring.spec}")
        for summand in structure.decompose_local(ring):
            print(f"summand e={summand.e.name} size={summand.ring.size}")
        return EXIT_SOLVABLE
    # action == "order"
    order = structure.default_order(ring)
    alpha, pis = order.params
    print(f"ring {ring.spec}")
    print(f"alpha {alpha.name}")
    print("pi " + (" ".join(p.name for p in pis) if pis else "-"))
    print("order " + " < ".join(ring.format_element(i) for i in order.sorted_elements))
    for i in order.sorted_elements:
        rep = order.rep(i)
        terms = []
        for exponents, gamma in rep:
            mono = "".join(
                f"pi{t + 1}^{e}" for t, e in enumerate(exponents) if e
            )
            terms.append(f"{ring.format_element(gamma)}*{mono}" if mono else ring.format_element(gamma))
        print(f"rep {ring.format_element(i)} = " + (" + ".join(terms) if terms else "0"))
    return EXIT_SOLVABLE


def _cmd_solve(args) -> int:
    system = sysio.parse_system(_read(args.system))
    cert = linsys.solve(system)
    if args.oracle_check:
        report = oracle.brute_force_solve(system)
        if report.solvable != cert.solvable:
            print("oracle mismatch: solver and brute force disagree", file=sys.stderr)
            return EXIT_INTERNAL
    if args.format == "json":
        _emit(json.dumps(_cert_payload(cert), indent=2, sort_keys=True), args.output)
    else:
        _emit(sysio.write_certificate(cert, system), args.output)
    return EXIT_SOLVABLE if cert.solvable else EXIT_UNSOLVABLE


def _cmd_reduce(args) -> int:
    name = args.name
    want, count, call = REDUCTIONS[name]
    inputs = args.systems
    if name != "collapse":  # collapse reads a manifest of system files itself
        inputs = [sysio.parse_system(_read(p)) for p in inputs]
        for s in inputs:
            if not isinstance(s, want):
                raise SpecParseError(f"{name} expects {want.__name__} input, got {type(s).__name__}")
    if len(inputs) != count:
        raise SpecParseError(f"{name} takes exactly {('one system file', 'two system files')[count - 1]}")
    target, trace = call(inputs, args)
    _emit(sysio.write_system(target), args.output)
    if args.trace:
        print(json.dumps(_json_safe(trace), indent=2, sort_keys=True))
    return EXIT_SOLVABLE


def _json_safe(value):
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


def _traced(reduction):
    """The table call of a one-input reduction that returns a ReductionOutput."""
    def call(inputs, args):
        out = reduction(*inputs)
        return out.target, out.trace
    return call


def _cyclic_order(system: linsys.LinSystem):
    ring = system.ring
    return structure.default_order(ring) if structure.is_local(ring) else structure.table_order(ring)


def _project_local(inputs, args):
    if not args.idempotent:
        raise SpecParseError("project-local requires --idempotent <element>")
    e = inputs[0].ring.parse_element(args.idempotent)
    return reductions.project_to_local(inputs[0], e), {"e": args.idempotent}


# name -> (input system class, number of input files, call(inputs, args) -> (target, trace))
REDUCTIONS = {
    "ring-to-cyclic": (linsys.LinSystem, 1, _traced(lambda s: reductions.ring_to_cyclic(s, _cyclic_order(s)))),
    "group-to-ring": (linsys.GroupSystem, 1, _traced(reductions.group_to_ring)),
    "twosided-numerical": (linsys.TwoSidedSystem, 1, _traced(reductions.twosided_to_numerical)),
    "project-local": (linsys.LinSystem, 1, _project_local),
    "normal-form": (linsys.LinSystem, 1, _traced(reductions.normal_form)),
    "complement": (linsys.LinSystem, 1, _traced(reductions.complement_chain)),
    "and": (linsys.LinSystem, 2, lambda inputs, args: (reductions.and_compose(*inputs), {})),
    "or": (linsys.LinSystem, 2, lambda inputs, args: (reductions.or_compose(*inputs), {})),
    "collapse": (None, 1, lambda inputs, args: (_collapse_from_manifest(*inputs), {})),
}


def _collapse_from_manifest(path: str):
    """Manifest lines: `outer-rows a b`, `outer-cols c d`, `inner a c <path>`."""
    outer_rows: list[str] = []
    outer_cols: list[str] = []
    inner = {}
    base = Path(path).parent
    for lineno, line in sysio._content_lines(_read(path)):
        parts = line.split()
        if parts[0] == "outer-rows":
            outer_rows.extend(parts[1:])
        elif parts[0] == "outer-cols":
            outer_cols.extend(parts[1:])
        elif parts[0] == "inner" and len(parts) == 4:
            inner[(parts[1], parts[2])] = sysio.parse_system(_read(str(base / parts[3])))
        else:
            raise SpecParseError(f"bad manifest line {quote(line)}", lineno)
    return reductions.collapse_nested(outer_rows, outer_cols, inner)


def _square_view(matrix: matalg.Matrix) -> matalg.Matrix:
    """Relabel columns by row ids positionally so square ops apply."""
    if set(matrix.rows) == set(matrix.cols) or len(matrix.rows) != len(matrix.cols):
        return matrix
    return matalg.Matrix._from_arrays(matrix.ring, matrix.rows, matrix.rows, A=matrix.A)


def _cmd_mat(args) -> int:
    matrix = _square_view(sysio.parse_matrix(_read(args.matrix)))
    if args.action == "inverse":
        inv = matalg.inverse(matrix)
        if inv is None:
            print("singular")
            return EXIT_UNSOLVABLE
        _emit(sysio.write_matrix(inv), args.output)
        return EXIT_SOLVABLE
    if args.action == "det":
        print(matalg.determinant(matrix).name)
        return EXIT_SOLVABLE
    if args.action == "charpoly":
        chi = matalg.charpoly_galois(matrix)
        for k, c in enumerate(chi.coefficients):
            print(f"c{k} {c.name}")
        return EXIT_SOLVABLE
    # action == "pow"
    if args.exponent is None or args.exponent < 0:
        raise SpecParseError("pow requires --exponent <non-negative integer>")
    _emit(sysio.write_matrix(matalg.mat_pow(matrix, args.exponent)), args.output)
    return EXIT_SOLVABLE


def _cmd_oracle(args) -> int:
    if args.action == "solve":
        system = sysio.parse_system(_read(args.target))
        report = oracle.brute_force_solve(system)
        print(f"{report.verdict} after {report.instances_checked} assignments")
        return EXIT_SOLVABLE if report.solvable else EXIT_UNSOLVABLE
    if args.action == "det":
        matrix = sysio.parse_matrix(_read(args.target))
        print(oracle.det_cofactor(matrix).name)
        return EXIT_SOLVABLE
    # action == "gl"
    ring = sysio.parse_ring_spec(args.target)
    print(oracle.enumerate_gl(ring, args.dimension))
    return EXIT_SOLVABLE


def _cmd_verify(args) -> int:
    system = sysio.parse_system(_read(args.system))
    cert = sysio.parse_certificate(_read(args.certificate), system)
    ok = linsys.verify_certificate(system, cert)
    print("valid" if ok else "invalid")
    return EXIT_SOLVABLE if ok else EXIT_UNSOLVABLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringsolve",
        description="Solvability of linear equation systems over finite groups and rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ring = sub.add_parser("ring", help="inspect a ring")
    p_ring.add_argument("action", choices=["info", "decompose", "order"])
    p_ring.add_argument("spec")
    p_ring.set_defaults(func=_cmd_ring)

    p_solve = sub.add_parser("solve", help="solve a system file")
    p_solve.add_argument("system")
    p_solve.add_argument("-o", "--output")
    p_solve.add_argument("--oracle-check", action="store_true")
    p_solve.add_argument("--format", choices=["text", "json"], default="text")
    p_solve.set_defaults(func=_cmd_solve)

    p_red = sub.add_parser("reduce", help="apply a reduction")
    p_red.add_argument("name", choices=REDUCTIONS)
    p_red.add_argument("systems", nargs="+")
    p_red.add_argument("-o", "--output", required=True)
    p_red.add_argument("--trace", action="store_true")
    p_red.add_argument("--idempotent", help="base idempotent for project-local")
    p_red.set_defaults(func=_cmd_reduce)

    p_mat = sub.add_parser("mat", help="matrix operations")
    p_mat.add_argument("action", choices=["inverse", "det", "charpoly", "pow"])
    p_mat.add_argument("matrix")
    p_mat.add_argument("-o", "--output")
    p_mat.add_argument("--exponent", type=int)
    p_mat.set_defaults(func=_cmd_mat)

    p_oracle = sub.add_parser("oracle", help="brute-force oracles")
    p_oracle.add_argument("action", choices=["solve", "det", "gl"])
    p_oracle.add_argument("target", help="system/matrix file, or a ring spec for gl")
    p_oracle.add_argument("dimension", nargs="?", type=int, default=1)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_verify = sub.add_parser("verify", help="verify a certificate against a system")
    p_verify.add_argument("system")
    p_verify.add_argument("certificate")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


_parser = functools.cache(build_parser)  # one parser per process


def _stdout_to_devnull():
    """Point stdout's file descriptor, if it has one, at os.devnull, so the
    interpreter's exit flush of the unwritten rest stays quiet."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_SOLVABLE
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that went away shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # stdout's reader closed it: no verdict can reach it, and it is no bug
        _stdout_to_devnull()
        return EXIT_USAGE
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except RingsolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a bug or a bad environment, never a verdict: keep it off exit 1
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
