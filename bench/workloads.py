"""The four workloads: their inputs, their ops, checks and traced re-enactments.

An op is one certified verdict, one matrix result, or one fixed round over a
small panel.  ``Op.run`` is the untraced op.  ``Op.trace`` re-enacts it stage
by stage through the program's public functions, in the order the solver
calls them, recording one span per stage in a :class:`Tracer`.
``Op.check`` holds the op's output against the planted facts with the
benchmark's own arithmetic (``planted``), never through the program's ring
objects.
"""

from __future__ import annotations

import io
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

from ringsolve import cli, linsys, matalg, oracle, reductions, structure, sysio
from ringsolve import ring as ringmod

import planted as pt
from planted import GaloisModel, PhiModel, ProductModel, ZMod


class Tracer:
    """Self time per stage name (a span minus its child spans) and counts."""

    def __init__(self):
        self.times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._children: list[float] = []

    @contextmanager
    def span(self, name: str):
        self._children.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            self.times[name] += dur - self._children.pop()
            if self._children:
                self._children[-1] += dur

    def count(self, name: str, k: int):
        self.counts[name] += k

    def covered(self) -> float:
        return sum(self.times.values())

    def merge(self, other: "Tracer"):
        for k, v in other.times.items():
            self.times[k] += v
        for k, v in other.counts.items():
            self.counts[k] += v


@contextmanager
def chain_probe(t: Tracer):
    """Record the shape and time of every system handed to ``solve_chain``.

    The congruence path of group and two-sided solves calls ``solve_chain``
    inside ``linsys``; wrapping the module attribute is the only way to see
    those chain systems from outside the program.
    """
    real = linsys.solve_chain

    def probe(system):
        t.count("reductions.chain_rows", len(system.rows))
        t.count("reductions.chain_cols", len(system.cols))
        with t.span("linsys.solve_chain_s"):
            return real(system)

    linsys.solve_chain = probe
    try:
        yield
    finally:
        linsys.solve_chain = real


def trace_items(trace: dict) -> int:
    """Entries of a ReductionOutput.trace: the length of each sized value, else 1."""
    return sum(len(v) if isinstance(v, (list, tuple, dict)) else 1 for v in trace.values())


# ---------------------------------------------------------------------------
# the solver, re-enacted stage by stage


def _trace_commutative(t: Tracer, system):
    ring = system.ring
    with t.span("structure.decompose_local_s"):
        summands = structure.decompose_local(ring)
    total = {j: ring.zero.index for j in system.cols}
    for s in summands:
        with t.span("ring.units_s"):
            ringmod.unit_indices(s.ring)
        with t.span("structure.min_generators_s"):
            structure.minimal_generators_maximal_ideal(s.ring)
        with t.span("structure.default_order_s"):
            order = structure.default_order(s.ring)
        with t.span("reductions.project_to_local_s"):
            sub = reductions.project_to_local(system, s.e)
        with t.span("reductions.ring_to_cyclic_s"):
            red = reductions.ring_to_cyclic(sub, order)
        t.count("reductions.trace_items", trace_items(red.trace))
        with t.span("structure.chain_data_s"):
            structure.chain_data(red.target.ring)
        cert = linsys.solve_chain(red.target)
        if not cert.solvable:
            witness = linsys.UnsolvableWitness(
                summand=s.e.name, chain_spec=red.target.ring.spec,
                digest=cert.witness.digest, rows=cert.witness.rows,
            )
            return linsys.Certificate("UNSOLVABLE", witness=witness)
        with t.span("linsys.backmap_s"):
            for j, elem in red.backward(cert.assignment).items():
                total[j] = ring.add_idx(total[j], s.embed(elem.index))
    with t.span("linsys.backmap_s"):
        assignment = {j: ring.element(v) for j, v in total.items()}
        if not system.eval(assignment):
            raise AssertionError("re-enacted assignment fails the system")
    return linsys.Certificate("SOLVABLE", assignment=assignment)


def _trace_twosided(t: Tracer, system):
    with t.span("reductions.twosided_to_numerical_s"):
        red = reductions.twosided_to_numerical(system)
    t.count("reductions.trace_items", trace_items(red.trace))
    with t.span("linsys.solve_numerical_s"):
        cert = linsys.solve_numerical(red.target)
    if not cert.solvable:
        return cert
    with t.span("linsys.backmap_s"):
        assignment = red.backward(cert.assignment)
        if not system.eval(assignment):
            raise AssertionError("re-enacted assignment fails the system")
    return linsys.Certificate("SOLVABLE", assignment=assignment)


def trace_solve(t: Tracer, system):
    """``linsys.solve``, one span per stage."""
    if isinstance(system, linsys.LinSystem):
        return _trace_commutative(t, system)
    if isinstance(system, linsys.TwoSidedSystem):
        return _trace_twosided(t, system)
    if isinstance(system, linsys.GroupSystem):
        with t.span("linsys.solve_group_s"):
            return linsys.solve_group(system)
    with t.span("linsys.solve_numerical_s"):
        return linsys.solve_numerical(system)


# ---------------------------------------------------------------------------
# systems: planted instance -> program object, certificate -> plain summary


def to_program(inst: pt.Instance, carrier):
    """The instance as a program system over ``carrier`` (ring or group)."""
    m = inst.model
    rows = [f"e{i}" for i in range(inst.n_rows)]
    cols = [f"x{j}" for j in range(inst.n_cols)]
    idx = {}

    def elem(v):
        key = m.name(v)
        if key not in idx:
            idx[key] = carrier.parse_element(key).index
        return idx[key]

    b = {rows[i]: elem(v) for i, v in enumerate(inst.b)}
    if inst.kind == "group":
        left = {(rows[i], cols[j]): a for i, row in enumerate(inst.A) for j, a in enumerate(row) if a}
        return linsys.GroupSystem(carrier, rows, cols, left, b)
    left = {(rows[i], cols[j]): elem(a) for i, row in enumerate(inst.A) for j, a in enumerate(row)}
    if inst.kind == "ring":
        return linsys.LinSystem(carrier, rows, cols, left, b)
    if inst.kind == "numerical":
        return linsys.NumericalSystem(carrier, rows, cols, left, b)
    right = {(cols[j], rows[i]): elem(a) for i, row in enumerate(inst.R) for j, a in enumerate(row)}
    return linsys.TwoSidedSystem(carrier, rows, cols, left, right, b)


def summarize(cert, verified: bool) -> tuple:
    """(verdict, assignment names, witness, verified) with no program objects."""
    if cert.solvable:
        names = {str(j): (v if isinstance(v, int) else v.name) for j, v in cert.assignment.items()}
        return ("SOLVABLE", names, None, verified)
    w = cert.witness
    rows = tuple(sorted((str(k), str(v)) for k, v in w.rows.items()))
    return ("UNSOLVABLE", None, (w.summand, w.chain_spec, w.digest, rows), verified)


def system_ok(inst: pt.Instance, summary: tuple) -> bool:
    verdict, names, _, verified = summary
    if not verified or verdict != ("SOLVABLE" if inst.solvable else "UNSOLVABLE"):
        return False
    return not inst.solvable or inst.satisfied_by(pt.read_assignment(inst, names))


# ---------------------------------------------------------------------------
# ops


class Op:
    """``run`` the op, ``trace`` it stage by stage, ``check`` its output."""

    def same(self, plain, traced) -> bool:
        """Do the untraced and the re-enacted op agree?"""
        return plain == traced


class ColdOp(Op):
    """Build each panel ring afresh from its spec, then solve and verify over it."""

    def __init__(self, panel: list):
        self.panel = panel  # [(spec, Instance)]

    def run(self):
        out = []
        for spec, inst in self.panel:
            system = to_program(inst, sysio.parse_ring_spec(spec))
            cert = linsys.solve(system)
            out.append(summarize(cert, linsys.verify_certificate(system, cert)))
        return out

    def trace(self, t: Tracer):
        out = []
        for spec, inst in self.panel:
            with t.span("ring.build_s"):
                ring = sysio.parse_ring_spec(spec)
            system = to_program(inst, ring)
            cert = trace_solve(t, system)
            with t.span("linsys.verify_s"):
                ok = linsys.verify_certificate(system, cert)
            out.append(summarize(cert, ok))
        return out

    def check(self, out) -> bool:
        return len(out) == len(self.panel) and all(
            system_ok(inst, s) for (_, inst), s in zip(self.panel, out))


class WarmOp(Op):
    """Solve and verify one prebuilt system over a warm ring or group."""

    def __init__(self, inst: pt.Instance, system):
        self.inst, self.system = inst, system

    def run(self):
        cert = linsys.solve(self.system)
        return summarize(cert, linsys.verify_certificate(self.system, cert))

    def trace(self, t: Tracer):
        cert = trace_solve(t, self.system)
        with t.span("linsys.verify_s"):
            ok = linsys.verify_certificate(self.system, cert)
        return summarize(cert, ok)

    def check(self, out) -> bool:
        return system_ok(self.inst, out)


class MatrixOp(Op):
    """Inverse and determinant of one matrix, and its charpoly over a Galois ring."""

    def __init__(self, case: pt.MatrixCase, matrix, galois: bool):
        self.case, self.matrix, self.galois = case, matrix, galois

    def _summary(self, inv, det, chi):
        ids = self.matrix.rows
        inv_names = None if inv is None else [[inv.entry(i, j).name for j in ids] for i in ids]
        chi_names = None if chi is None else [c.name for c in chi.coefficients]
        return (inv_names, det.name, chi_names)

    def run(self):
        inv = matalg.inverse(self.matrix)
        det = matalg.determinant(self.matrix)
        chi = matalg.charpoly_galois(self.matrix) if self.galois else None
        return self._summary(inv, det, chi)

    def trace(self, t: Tracer):
        with t.span("matalg.inverse_s"):
            inv = matalg.inverse(self.matrix)
        with t.span("matalg.determinant_s"):
            det = matalg.determinant(self.matrix)
        chi = None
        if self.galois:
            with t.span("matalg.charpoly_s"):
                chi = matalg.charpoly_galois(self.matrix)
        return self._summary(inv, det, chi)

    def check(self, out) -> bool:
        case, m = self.case, self.case.model
        inv_names, det, chi = out
        if m.parse(det) != case.det:
            return False
        if case.invertible:
            if inv_names is None or not pt.inverse_ok(case, [[m.parse(v) for v in row] for row in inv_names]):
                return False
        elif inv_names is not None:
            return False
        return not self.galois or pt.charpoly_ok(case, [m.parse(c) for c in chi])


class OracleOp(Op):
    """``ringsolve solve FILE --oracle-check --format json``, in process."""

    def __init__(self, inst: pt.Instance, path: Path):
        self.inst, self.path = inst, str(path)

    def run(self):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["solve", self.path, "--oracle-check", "--format", "json"])
        return (code, buf.getvalue())

    def trace(self, t: Tracer):
        text = Path(self.path).read_text()
        with t.span("sysio.parse_system_s"):
            system = sysio.parse_system(text)
        cert = trace_solve(t, system)
        with t.span("oracle.brute_force_s"):
            report = oracle.brute_force_solve(system)
        t.count("oracle.assignments", report.instances_checked)
        if report.solvable != cert.solvable:
            raise AssertionError("oracle and re-enacted solver disagree")
        with t.span("sysio.write_certificate_s"):
            sysio.write_certificate(cert, system)
        return summarize(cert, True)

    def check(self, out) -> bool:
        code, text = out
        want = "SOLVABLE" if self.inst.solvable else "UNSOLVABLE"
        if code != (0 if self.inst.solvable else 1):
            return False
        payload = json.loads(text)
        if payload["verdict"] != want:
            return False
        return not self.inst.solvable or self.inst.satisfied_by(
            pt.read_assignment(self.inst, payload["assignment"]))

    def same(self, plain, traced) -> bool:
        payload = json.loads(plain[1])
        verdict, names, witness, _ = traced
        if payload["verdict"] != verdict:
            return False
        if verdict == "SOLVABLE":
            # numerical systems assign integers, kept as numbers on both sides
            text = lambda assignment: {k: str(v) for k, v in assignment.items()}
            return text(payload["assignment"]) == text(names)
        return payload["digest"] == witness[2]


# ---------------------------------------------------------------------------
# workloads


def _write_table(model: pt.TableModel, work: Path, commutative: bool) -> str:
    path = work / f"{''.join(c if c.isalnum() else '_' for c in model.label)}.json"
    path.write_text(json.dumps(model.json_tables(commutative)))
    model.spec = f"table:{path}"
    return model.spec


def _check_names(model, carrier):
    """Every model element name must name an element of the program's carrier."""
    names = {model.name(a) for a in model.elements()}
    if len(names) != carrier.size:
        raise AssertionError(f"{model.spec} has {len(names)} names, the program {carrier.size}")
    for name in names:
        carrier.parse_element(name)


class Workload:
    """A fixed panel of items; a run is ``rounds`` passes over it.

    Each pass makes one op per item and verdict (SOLVABLE and UNSOLVABLE, or
    invertible and singular) from fresh seeded inputs.  Sizes are chosen so
    that every op of a workload costs about the same on the reference
    machine, which keeps the reported percentiles inside one cost mode.
    """

    name = ""
    round_s = 1.0  # seconds one pass takes on the reference machine

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))

    def prepare(self, rnd, work: Path, t: Tracer) -> list:
        """Build the carriers; returns the panel items."""
        raise NotImplementedError

    def make_op(self, item, positive: bool, rnd, tag: str):
        raise NotImplementedError

    def setup(self, rnd, rounds: int, work: Path, t: Tracer) -> list:
        """Prepare, warm every cache with one untimed op per item, then make every op."""
        items = self.prepare(rnd, work, t)
        for item in items:
            self.make_op(item, True, rnd, "warm").run()
        return [self.make_op(item, positive, rnd, str(r))
                for r in range(rounds) for item in items for positive in (True, False)]


class ColdStructure(Workload):
    name = "cold_structure"
    round_s = 1.3
    N = 3

    def prepare(self, rnd, work, t):
        f2xy = pt.f2xy_model()
        _write_table(f2xy, work, commutative=True)
        panel = [
            [("phi(Z/2 x Z/4)", PhiModel(pt.group_of("Z/2 x Z/4")))],
            [("Z/512", ZMod(512)), ("GR(4,3)", GaloisModel(2, 2, 3))],
            [("Z/256", ZMod(256)), ("GR(9,2)", GaloisModel(3, 2, 2)),
             ("Z/8 x Z/27", ProductModel([ZMod(8), ZMod(27)])),
             ("Z/16 x GR(4,2)", ProductModel([ZMod(16), GaloisModel(2, 2, 2)])),
             ("Z/3 x GR(4,3)", ProductModel([ZMod(3), GaloisModel(2, 2, 3)])),
             (f2xy.spec, f2xy)],
        ]
        for group in panel:
            for spec, model in group:
                with t.span("ring.build_s"):
                    ring = sysio.parse_ring_spec(spec)
                _check_names(model, ring)
        return [[(spec, pt.Planter("ring", model)) for spec, model in group] for group in panel]

    def make_op(self, item, positive, rnd, tag):
        # within a multi-ring op the verdicts alternate, starting from ``positive``
        return ColdOp([(spec, pt.make_system(pl, self.N, (k % 2 == 0) == positive, rnd))
                       for k, (spec, pl) in enumerate(item)])


class WarmSolve(Workload):
    name = "warm_solve"
    round_s = 1.9
    # (kind, carrier spec, n for SOLVABLE, n for UNSOLVABLE)
    PANEL = [
        ("ring", "Z/8", 66, 66),
        ("ring", "GR(4,2)", 34, 34),
        ("ring", "Z/12", 58, 72),
        ("ring", "Z/2 x GR(4,2)", 32, 32),
        ("group", "Z/4 x Z/8 x Z/9", 31, 38),
        ("twosided", "UT2(F2)", 13, 12),
    ]

    def prepare(self, rnd, work, t):
        items = []
        for kind, spec, n_pos, n_neg in self.PANEL:
            with t.span("ring.build_s"):
                if kind == "group":
                    model = pt.group_of(spec)
                    carrier = sysio.parse_group_spec(spec)
                elif kind == "twosided":
                    model = pt.ut2_model()
                    carrier = sysio.parse_ring_spec(_write_table(model, work, commutative=False))
                else:
                    model = _ring_model(spec)
                    carrier = sysio.parse_ring_spec(spec)
            _check_names(model, carrier)
            items.append((pt.Planter(kind, model), carrier, n_pos, n_neg))
        return items

    def make_op(self, item, positive, rnd, tag):
        pl, carrier, n_pos, n_neg = item
        inst = pt.make_system(pl, n_pos if positive else n_neg, positive, rnd)
        return WarmOp(inst, to_program(inst, carrier))


def _ring_model(spec: str):
    parts = spec.split(" x ")
    if len(parts) > 1:
        return ProductModel([_ring_model(p) for p in parts])
    if spec.startswith("GR("):
        q, r = (int(v) for v in spec[3:-1].split(","))
        p = next(d for d in range(2, q + 1) if q % d == 0)
        return GaloisModel(p, round(math.log(q, p)), r)
    return ZMod(int(spec[2:]))


class MatrixAlgebra(Workload):
    name = "matrix_algebra"
    round_s = 1.5
    # (ring spec, n for invertible, n for singular, charpoly too)
    PANEL = [
        ("Z/4", 10, 10, True),
        ("Z/9", 9, 9, True),
        ("Z/12", 9, 11, False),
        ("GR(4,2)", 5, 5, True),
    ]

    def prepare(self, rnd, work, t):
        items = []
        for spec, n_pos, n_neg, galois in self.PANEL:
            model = _ring_model(spec)
            with t.span("ring.build_s"):
                ring = sysio.parse_ring_spec(spec)
            _check_names(model, ring)
            for s in structure.decompose_local(ring):
                with t.span("structure.galois_representation_s"):
                    structure.galois_representation(s.ring)
            items.append((model, ring, n_pos, n_neg, galois))
        return items

    def make_op(self, item, positive, rnd, tag):
        model, ring, n_pos, n_neg, galois = item
        n = n_pos if positive else n_neg
        case = pt.make_matrix(model, n, positive, rnd)
        ids = [f"r{i}" for i in range(n)]
        entries = {(ids[i], ids[j]): ring.parse_element(model.name(v)).index
                   for i, row in enumerate(case.A) for j, v in enumerate(row)}
        return MatrixOp(case, matalg.Matrix(ring, ids, ids, entries), galois)


class OracleCheck(Workload):
    name = "oracle_check"
    round_s = 0.95
    # (kind, carrier spec, n); the two-sided carrier is UT2(F2) x Z/3
    PANEL = [
        ("ring", "Z/8", 6),
        ("group", "Z/2 x Z/6", 3),
        ("twosided", "UT2(F2) x Z/3", 3),
        ("numerical", "Z/7", 5),
    ]

    def prepare(self, rnd, work, t):
        items = []
        for k, (kind, spec, n) in enumerate(self.PANEL):
            if kind == "group":
                model = pt.group_of(spec)
            elif kind == "twosided":
                model = pt.table_product(pt.ut2_model(), ZMod(3))
                spec = _write_table(model, work, commutative=False)
            else:
                model = _ring_model(spec)
            items.append((k, spec, pt.Planter(kind, model), n, work))
        return items

    def make_op(self, item, positive, rnd, tag):
        k, spec, pl, n, work = item
        inst = pt.make_system(pl, n, positive, rnd, unique=True)
        path = work / f"{tag}-{k}-{int(positive)}.rls"
        path.write_text(pt.system_text(inst, spec))
        return OracleOp(inst, path)


WORKLOADS = {w.name: w for w in (ColdStructure(), WarmSolve(), MatrixAlgebra(), OracleCheck())}
