"""Ring-spec grammar and the line-based file formats for systems, matrices
and certificates.

Ring specs: ``Z/12``, ``GR(4,2)``, ``Z/4[X]/(X^2+X+1)``, ``Z/2 x Z/3``,
``table:<path>`` (JSON add/mul tables), plus the derived forms
``phi(<group>)`` and ``local(<ring>, <element>)`` so every ring a reduction
can produce is round-trippable.

Writers rename row/column ids to ``e0,e1,...`` / ``x0,x1,...`` (sorted by
their string form), which keeps files whitespace-tokenisable; re-parsing
yields a system isomorphic to the original on ids.
"""

from __future__ import annotations

import itertools
import json
import operator
import re
from pathlib import Path

from .errors import SpecParseError, quote, shown
from .linsys import (
    Certificate,
    GroupSystem,
    LinSystem,
    NumericalSystem,
    TwoSidedSystem,
    UnsolvableWitness,
    _by_str,
    _System,
)
from .matalg import Matrix
from .ring import (
    AbelianGroup,
    FiniteRing,
    Poly,
    _check_power_size,
    build_cyclic_group,
    build_poly_quotient,
    build_product,
    build_product_group,
    build_table_ring,
    build_zmod,
    factorize,
    poly_mod_reduce,
)


def _split_top_level(text: str, sep: str) -> list[str]:
    parts, depth, current = [], 0, []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if depth == 0 and text.startswith(sep, i):
            parts.append("".join(current))
            current = []
            i += len(sep)
            continue
        current.append(ch)
        i += 1
    parts.append("".join(current))
    return parts


def _parse_int(text: str, what: str, lineno: int | None = None) -> int:
    """int(text), or SpecParseError naming ``what``; a long text, such as a
    number past Python's digit limit for int(), is quoted by its start."""
    try:
        return int(text)
    except ValueError:
        raise SpecParseError(f"bad {what} {quote(text)}", lineno)


def _parse_poly(text: str, modulus: int) -> Poly:
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    body = body.replace(" ", "")
    if not body:
        raise SpecParseError("empty polynomial")
    terms = re.findall(r"[+-]?[^+-]+", body)
    degree = 0
    parsed = []
    for term in terms:
        m = re.fullmatch(r"([+-]?)(\d+)?\*?(X(?:\^(\d+))?)?", term)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise SpecParseError(f"bad polynomial term {quote(term)}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = _parse_int(m.group(2), "polynomial coefficient") if m.group(2) is not None else 1
        if m.group(3) is None:
            power = 0
        elif m.group(4) is not None:
            power = _parse_int(m.group(4), "exponent")
        else:
            power = 1
        parsed.append((power, sign * coeff))
        degree = max(degree, power)
    _check_quotient(modulus, degree)
    _check_power_size(modulus, degree, "polynomial quotient ring")  # before any list of that length
    coeffs = [0] * (degree + 1)
    for power, c in parsed:
        coeffs[power] = (coeffs[power] + c) % modulus
    return Poly.of(coeffs)


def _check_quotient(q: int, degree: int):
    """Refuse a modulus below 2 or a degree below 1 before q is factored or
    an irreducible polynomial is searched."""
    if q < 2:
        raise SpecParseError(f"modulus must be an integer >= 2, got {q}")
    if degree < 1:
        raise SpecParseError("f must have degree >= 1")


def _factor_prime_power(q: int) -> tuple[int, int]:
    factors = factorize(q)
    if len(factors) > 1:
        raise SpecParseError(f"{q} is not a prime power")
    return factors[0] if factors else (q, 1)


def _is_irreducible_mod_p(coeffs: list[int], p: int) -> bool:
    """No monic polynomial of degree 1 to r // 2 divides coeffs mod p."""
    r = len(coeffs) - 1
    for d in range(1, r // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if not any(poly_mod_reduce(coeffs, tail + (1,), p)):
                return False
    return True


def smallest_galois_polynomial(p: int, n: int, r: int) -> Poly:
    """The lexicographically least monic degree-r polynomial over Z_p that is
    irreducible mod p, lifted coefficientwise to Z_{p^n}."""
    for tail in itertools.product(range(p), repeat=r):
        coeffs = list(tail) + [1]
        if _is_irreducible_mod_p(coeffs, p):
            return Poly(tuple(coeffs))
    raise SpecParseError(f"no irreducible polynomial of degree {r} over Z/{p}")


def build_galois_ring(q: int, r: int) -> FiniteRing:
    _check_quotient(q, r)
    _check_power_size(q, r, "polynomial quotient ring")
    p, n = _factor_prime_power(q)
    return build_poly_quotient(p, n, smallest_galois_polynomial(p, n, r))


def parse_ring_spec(text: str) -> FiniteRing:
    """Construct a ring from its spec string."""
    text = text.strip()
    if not text:
        raise SpecParseError("empty ring spec")
    factors = _split_top_level(text, " x ")
    if len(factors) > 1:
        return build_product([parse_ring_spec(f) for f in factors])
    if text.startswith("table:"):
        return _parse_table_ring(Path(text[len("table:"):]))
    m = re.fullmatch(r"GR\((\d+),(\d+)\)", text)
    if m:
        return build_galois_ring(_parse_int(m.group(1), "modulus"), _parse_int(m.group(2), "degree"))
    m = re.fullmatch(r"Z/(\d+)\[X\]/(\(.*\))", text)
    if m:
        q = _parse_int(m.group(1), "modulus")
        f = _parse_poly(m.group(2), q)  # checks q, the degree and the cap before q is factored
        return build_poly_quotient(*_factor_prime_power(q), f)
    m = re.fullmatch(r"Z/(\d+)", text)
    if m:
        return build_zmod(_parse_int(m.group(1), "modulus"))
    m = re.fullmatch(r"phi\((.*)\)", text)
    if m:
        from .reductions import build_phi_ring

        return build_phi_ring(parse_group_spec(m.group(1)))
    m = re.fullmatch(r"local\((.*)\)", text)
    parts = _split_top_level(m.group(1), ",") if m else []
    if len(parts) > 1:
        # the element is the last top-level part, so a product's "(1,0)" keeps its commas
        from .structure import decompose_local

        parent = parse_ring_spec(",".join(parts[:-1]))
        wanted = parts[-1].strip()
        for summand in decompose_local(parent):
            if summand.e.name == wanted:
                return summand.ring
        raise SpecParseError(f"{quote(wanted)} is not a base idempotent of {parent.spec}")
    raise SpecParseError(f"cannot parse ring spec {quote(text)}")


def _parse_table_ring(path: Path) -> FiniteRing:
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        # an OSError's strerror, unlike its text, does not repeat the path
        reason = getattr(exc, "strerror", None) or exc
        raise SpecParseError(f"cannot read table ring file {shown(str(path))}: {reason}")
    if not isinstance(data, dict):
        raise SpecParseError(f"table ring file {shown(str(path))} does not hold a JSON object")
    for key in ("add", "mul"):
        if key not in data:
            raise SpecParseError(f"table ring file misses the {key!r} table")
    return build_table_ring(
        data["add"],
        data["mul"],
        commutative=data.get("commutative", True),
        names=data.get("names"),
        spec=f"table:{path}",
    )


def write_table_ring(ring: FiniteRing, path: Path):
    add, mul = ring.op_tables()
    path.write_text(json.dumps({
        "add": add,
        "mul": mul,
        "commutative": ring.commutative,
        "names": ring.names,
    }))


def parse_group_spec(text: str) -> AbelianGroup:
    text = text.strip()
    if not text:
        raise SpecParseError("empty group spec")
    factors = _split_top_level(text, " x ")
    if len(factors) > 1:
        return build_product_group([parse_group_spec(f) for f in factors])
    m = re.fullmatch(r"Z/(\d+)", text)
    if m:
        return build_cyclic_group(_parse_int(m.group(1), "modulus"))
    raise SpecParseError(f"cannot parse group spec {quote(text)}")


# ---------------------------------------------------------------------------
# system files


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def _parse_term(term: str, lineno: int):
    """Return (kind, coeff_text, var) with kind in {'left', 'right', 'bare'}."""
    term = term.strip()
    if not term:
        raise SpecParseError("empty term", lineno)
    if "*" not in term:
        return ("bare", None, term)
    head, tail = term.rsplit("*", 1)
    head, tail = head.strip(), tail.strip()
    if re.fullmatch(r"[A-Za-z_]\w*", tail):
        return ("left", head, tail)
    if re.fullmatch(r"[A-Za-z_]\w*", head):
        return ("right", tail, head)
    raise SpecParseError(f"cannot parse term {quote(term)}", lineno)


def parse_system(text: str):
    """Parse a system file into the matching system type."""
    lines = _content_lines(text)
    if not lines:
        raise SpecParseError("empty system file")
    lineno, header = lines[0]
    parts = header.split(None, 1)
    if len(parts) != 2 or parts[0] not in {"ring", "group", "twosided", "numerical"}:
        raise SpecParseError(f"bad header {quote(header)}", lineno)
    kind, spec = parts
    if kind == "group":
        carrier = parse_group_spec(spec)
    else:
        carrier = parse_ring_spec(spec)
        if kind == "numerical":
            from .ring import additive_group

            carrier = additive_group(carrier)
    variables: list[str] = []
    rows, left, right, b = [], {}, {}, {}
    seen: set[str] = set()  # the ids of rows, named or numbered
    eqno = 0
    for lineno, line in lines[1:]:
        if line.startswith("vars"):
            variables.extend(line.split()[1:])
            continue
        if not line.startswith("eq"):
            raise SpecParseError(f"unexpected line {quote(line)}", lineno)
        body = line[2:].strip()
        if ":" in body.split("=", 1)[0]:
            rid, body = body.split(":", 1)
            rid = rid.strip()
        else:
            eqno += 1
            rid = f"e{eqno}"
        if rid in seen:
            raise SpecParseError(f"repeated equation id {quote(rid)}", lineno)
        seen.add(rid)
        if "=" not in body:
            raise SpecParseError("equation misses '='", lineno)
        lhs, rhs = body.rsplit("=", 1)
        rows.append(rid)
        rhs = rhs.strip()
        if rhs not in ("0", ""):
            b[rid] = _parse_element(carrier, rhs, "right-hand side", lineno)
        lhs = lhs.strip()
        if lhs in ("", "0"):
            continue
        for term in _split_top_level(lhs, "+"):
            side, coeff_text, var = _parse_term(term, lineno)
            if var not in variables:
                raise SpecParseError(f"variable {quote(var)} not declared in vars", lineno)
            _accumulate_term(kind, carrier, left, right, rid, side, coeff_text, var, lineno)
    if not variables:
        raise SpecParseError("no variables declared")
    if not rows:
        raise SpecParseError("no equations")
    if kind == "ring":
        ring = carrier
        return LinSystem(ring, rows, variables, left, b)
    if kind == "group":
        return GroupSystem(carrier, rows, variables, left, b)
    if kind == "numerical":
        return NumericalSystem(carrier, rows, variables, left, b)
    return TwoSidedSystem(carrier, rows, variables, left, right, b)


def _parse_element(carrier, text: str, noun: str, lineno: int) -> int:
    """The index of the carrier element named ``text``, or SpecParseError
    "bad {noun} ..."."""
    try:
        return carrier.parse_element(text).index
    except Exception:
        raise SpecParseError(f"bad {noun} {quote(text)}", lineno)


def _coefficient(ring, coeff_text, lineno) -> int:
    """A ring coefficient: one for a bare term, else the element named."""
    return ring.one.index if coeff_text is None else _parse_element(ring, coeff_text, "coefficient", lineno)


def _add_term(table: dict, key, value, add):
    """Sum a repeated term into its key: the one accumulation rule of the file parsers."""
    table[key] = add(table[key], value) if key in table else value


def _accumulate_term(kind, carrier, left, right, rid, side, coeff_text, var, lineno):
    if kind == "group":
        coeff = 1 if coeff_text is None else _parse_int(coeff_text, "integer coefficient", lineno)
        _add_term(left, (rid, var), coeff, operator.add)
        return
    if kind == "numerical" and coeff_text is None:
        raise SpecParseError(f"bare term {quote(var)}: numerical coefficients are group elements", lineno)
    coeff = _coefficient(carrier, coeff_text, lineno)
    if side == "right" and kind == "twosided":
        _add_term(right, (var, rid), coeff, carrier.add_idx)
    else:
        _add_term(left, (rid, var), coeff, carrier.add_idx)


def _rename(ids, prefix):
    """Names prefix0, prefix1, ... in the string order of the ids, zero-padded
    to one width so that the names sort as the ids did and a written file
    reads back to the same names."""
    ordered = sorted(ids, key=str)
    width = len(str(len(ordered) - 1))
    return {i: f"{prefix}{k:0{width}d}" for k, i in enumerate(ordered)}, ordered


def write_system(system) -> str:
    """Serialise a system deterministically (ids renamed, sorted)."""
    if not isinstance(system, _System):
        raise SpecParseError(f"cannot serialise {type(system).__name__}")
    base = system.carrier.spec
    if isinstance(system, NumericalSystem):
        base = base[1:-3] if base.startswith("(") and base.endswith(",+)") else base
    col_map, col_order = _rename(system.cols, "x")
    row_map, _ = _rename(system.rows, "e")
    lines = [f"{system.keyword} {base}", "vars " + " ".join(col_map[j] for j in col_order)]
    lines += system.eq_lines(row_map.__getitem__, col_map.__getitem__)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# matrix files


def parse_matrix(text: str) -> Matrix:
    """Matrix file: ring header, rows/cols headers, one `row` line per row id."""
    lines = _content_lines(text)
    if not lines:
        raise SpecParseError("empty matrix file")
    lineno, header = lines[0]
    if not header.startswith("ring "):
        raise SpecParseError("matrix files start with a ring header", lineno)
    ring = parse_ring_spec(header[5:])
    rows: list[str] = []
    cols: list[str] = []
    entries = {}
    seen: set[str] = set()  # the row ids with a row line
    for lineno, line in lines[1:]:
        if line.startswith("rows"):
            rows.extend(line.split()[1:])
        elif line.startswith("cols"):
            cols.extend(line.split()[1:])
        elif line.startswith("row"):
            body = line[3:].strip()
            if ":" not in body:
                raise SpecParseError("row line misses ':'", lineno)
            rid, terms = body.split(":", 1)
            rid = rid.strip()
            if rid not in rows:
                raise SpecParseError(f"unknown row id {quote(rid)}", lineno)
            if rid in seen:
                raise SpecParseError(f"repeated row {quote(rid)}", lineno)
            seen.add(rid)
            terms = terms.strip()
            if terms in ("", "0"):
                continue
            for term in _split_top_level(terms, "+"):
                side, coeff_text, var = _parse_term(term, lineno)
                if side == "right":
                    raise SpecParseError("matrix entries use coeff*col terms", lineno)
                if var not in cols:
                    raise SpecParseError(f"unknown column id {quote(var)}", lineno)
                _add_term(entries, (rid, var), _coefficient(ring, coeff_text, lineno), ring.add_idx)
        else:
            raise SpecParseError(f"unexpected line {quote(line)}", lineno)
    if not rows or not cols:
        raise SpecParseError("matrix needs rows and cols headers")
    return Matrix(ring, rows, cols, entries)


def write_matrix(matrix: Matrix) -> str:
    col_map, col_order = _rename(matrix.cols, "c")
    row_map, row_order = _rename(matrix.rows, "r")
    lines = [f"ring {matrix.ring.spec}"]
    lines.append("rows " + " ".join(row_map[i] for i in row_order))
    lines.append("cols " + " ".join(col_map[j] for j in col_order))
    texts = matrix._row_texts(_by_str(matrix.rows), _by_str(matrix.cols), [col_map[j] for j in col_order])
    lines += [f"row {row_map[i]}: " + (" + ".join(terms) if terms else "0") for i, terms in zip(row_order, texts)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# certificate files


def write_certificate(cert: Certificate, system) -> str:
    lines = [f"certificate {cert.verdict}"]
    if cert.verdict == "SOLVABLE":
        for var in sorted(cert.assignment, key=str):
            value = cert.assignment[var]
            name = value if isinstance(value, int) else value.name
            lines.append(f"assign {var} = {name}")
    else:
        w = cert.witness
        lines.append(f"summand {w.summand}")
        lines.append(f"chain {w.chain_spec}")
        lines.append(f"digest {w.digest}")
        for rid in sorted(w.rows, key=str):
            lines.append(f"witness {rid} = {w.rows[rid]}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str, system) -> Certificate:
    lines = _content_lines(text)
    if not lines:
        raise SpecParseError("empty certificate file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "certificate":
        raise SpecParseError(f"bad certificate header {quote(header)}", lineno)
    verdict = parts[1]
    if verdict == "SOLVABLE":
        assignment = {}
        carrier = system.carrier
        for lineno, line in lines[1:]:
            m = re.fullmatch(r"assign (.+?) = (.+)", line)
            if not m:
                raise SpecParseError(f"bad assign line {quote(line)}", lineno)
            var = _match_id(system.cols, m.group(1).strip(), lineno)
            if var in assignment:
                raise SpecParseError(f"repeated assign id {quote(m.group(1).strip())}", lineno)
            if isinstance(system, NumericalSystem):
                assignment[var] = _parse_int(m.group(2).strip(), "integer coefficient", lineno)
            else:
                assignment[var] = carrier.parse_element(m.group(2).strip())
        return Certificate("SOLVABLE", assignment=assignment)
    if verdict != "UNSOLVABLE":
        raise SpecParseError(f"unknown verdict {quote(verdict)}", lineno)
    summand = chain_spec = digest = None
    rows = {}
    for lineno, line in lines[1:]:
        if line.startswith("summand "):
            summand = line[len("summand "):].strip()
        elif line.startswith("chain "):
            chain_spec = line[len("chain "):].strip()
        elif line.startswith("digest "):
            digest = line[len("digest "):].strip()
        elif line.startswith("witness "):
            m = re.fullmatch(r"witness (.+?) = (.+)", line)
            if not m:
                raise SpecParseError(f"bad witness line {quote(line)}", lineno)
            rid = m.group(1).strip()
            if rid in rows:
                raise SpecParseError(f"repeated witness id {quote(rid)}", lineno)
            rows[rid] = m.group(2).strip()
        else:
            raise SpecParseError(f"unexpected certificate line {quote(line)}", lineno)
    if summand is None or chain_spec is None or digest is None:
        raise SpecParseError("certificate misses summand/chain/digest fields")
    return Certificate(
        "UNSOLVABLE",
        witness=UnsolvableWitness(summand=summand, chain_spec=chain_spec, digest=digest, rows=rows),
    )


def _match_id(ids, text, lineno):
    for i in ids:
        if str(i) == text:
            return i
    raise SpecParseError(f"id {quote(text)} does not occur in the system", lineno)
