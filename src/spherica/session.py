"""Session files: a small declarative language for kernels, and the runner.

A session declares one coefficient field, algebras by quiver
presentation, kernels as per-degree lists of standard biprojective
summands P(v,w) = Ae_v (x) e_wB with optional differential matrices,
and then runs commands against the engine:

    field F 101                      (or: field Q)
    algebra Z { vertices 1 2; arrows a: 1 -> 2; arrows b: 2 -> 1;
                relations a*b*a = 0; relations b*a*b = 0; bound 3 }
    kernel P from k to Z { deg 0: P(pt,1) }     (rows of d N: comma-separated)
    check P | spherical P | twist P [as T] | compose T1 T2 as T12
    assert-quasi-iso X Y | faithful P | seed N

Entering kernels through projective summands keeps biprojectivity
syntactically guaranteed; differentials are validated for equivariance
and d^2 = 0 on load.  faithful P reads the unit id -> RF of P's kernel at
the generator (tilting.left_action_is_quasi_iso), and samples nothing.
Reports serialise deterministically (stable key order, timings excluded
unless requested) so reruns are byte-identical for a fixed session, seed
and engine version.
"""

from __future__ import annotations

import dataclasses
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .algebras import Algebra, AlgebraError, Arrow, QuiverPresentation, algebra_from_quiver
from .bimodules import BimoduleError, check_map, direct_sum, projective_bimodule
from .complexes import (
    Complex,
    ComplexError,
    find_quasi_iso,
    homology_dims,
)
from .kernels import (
    Kernel,
    KernelError,
    compose,
    kernel_ops,
)
from .linalg import Field, Matrix, kept
from .spherical import (
    check_adjoint_spherical,
    check_appendix,
    check_conditions,
    check_splitting,
    check_theorem,
    is_spherical,
    verify_two_out_of_four,
)
from .tilting import left_action_is_quasi_iso


class SessionError(Exception):
    """Base for session problems; carries a source position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}:{col}: {message}" if line else message)
        self.message = message
        self.line = line
        self.col = col


class SessionSyntaxError(SessionError):
    pass


class UnresolvedNameError(SessionError):
    pass


class SessionInvariantError(SessionError):
    pass


# ---------------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------------


@dataclass
class KernelDecl:
    name: str
    source: str
    target: str
    degrees: dict[int, list[tuple[str, str]]]
    diff_rows: dict[int, list[list[str]]]
    line: int = 0


@dataclass
class AlgebraDecl:
    name: str
    presentation: QuiverPresentation
    line: int = 0


@dataclass
class Command:
    kind: str
    args: tuple[str, ...]
    line: int = 0

    def render(self) -> str:
        if self.kind == "twist" and len(self.args) == 2:
            return f"twist {self.args[0]} as {self.args[1]}"
        if self.kind == "compose":
            return f"compose {self.args[0]} {self.args[1]} as {self.args[2]}"
        return f"{self.kind} {' '.join(self.args)}".strip()


@dataclass
class Session:
    field: Field
    algebras: dict[str, AlgebraDecl]
    kernels: dict[str, KernelDecl]
    commands: list[Command]
    # each field's elaboration, Field -> (algebras, checked kernels), built on
    # the first run over that field and kept; parse_session fills the
    # declared field's entry, and dataclasses.replace starts with none
    _built: dict[Field, tuple] = dataclasses.field(default_factory=dict, init=False,
                                                   repr=False, compare=False)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _strip_comment(line: str) -> str:
    if "#" in line:
        return line[:line.index("#")]
    return line


def _parse_coeff(tok: str, line: int) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise SessionSyntaxError(f"bad coefficient {tok!r}", line)


def _parse_relation(text: str, line: int):
    """'a*b*a - 2*b = 0' -> ((1, (a,b,a)), (-2, (b,)))  (paths keep names)."""
    lhs, _, rhs = text.partition("=")
    if rhs.strip() != "0":
        raise SessionSyntaxError("relations must end in '= 0'", line)
    terms = []
    current_sign = 1
    for chunk in lhs.replace("-", " - ").replace("+", " + ").split():
        if chunk == "+":
            current_sign = 1
            continue
        if chunk == "-":
            current_sign = -1
            continue
        factors = [f.strip() for f in chunk.split("*") if f.strip()]
        coeff = Fraction(current_sign)
        path = []
        for f in factors:
            if f[0].isdigit() or f[0] == "/":
                coeff *= _parse_coeff(f, line)
            else:
                path.append(f)
        if not path:
            raise SessionSyntaxError("relation term without a path", line)
        terms.append((coeff, tuple(path)))
        current_sign = 1
    if not terms:
        raise SessionSyntaxError("empty relation", line)
    return tuple(terms)


def _parse_algebra_items(items: list[tuple[str, int]], name: str) -> QuiverPresentation:
    vertices: list[str] = []
    arrows: list[Arrow] = []
    relations = []
    bound = 1
    for text, line in items:
        toks = text.split()
        if not toks:
            continue
        head = toks[0]
        if head == "vertices":
            vertices.extend(toks[1:])
        elif head == "arrows":
            rest = text[len("arrows"):].strip()
            if ":" not in rest or "->" not in rest:
                raise SessionSyntaxError("arrows syntax: arrows name: v -> w", line)
            arrow_name, _, ends = rest.partition(":")
            src, _, tgt = ends.partition("->")
            if not arrow_name.strip() or not src.strip() or not tgt.strip():
                raise SessionSyntaxError("arrows syntax: arrows name: v -> w", line)
            arrows.append(Arrow(arrow_name.strip(), src.strip(), tgt.strip()))
        elif head == "relations":
            relations.append(_parse_relation(text[len("relations"):].strip(), line))
        elif head == "bound":
            if len(toks) != 2 or not toks[1].isdecimal():
                raise SessionSyntaxError("bound takes a positive integer", line)
            bound = int(toks[1])
        else:
            raise SessionSyntaxError(f"unknown algebra item {head!r}", line)
    try:
        return QuiverPresentation(tuple(vertices), tuple(arrows),
                                  tuple(relations), bound)
    except AlgebraError as e:
        raise SessionInvariantError(str(e), items[0][1] if items else 0)


def _parse_kernel_items(items: list[tuple[str, int]], decl_line: int):
    degrees: dict[int, list[tuple[str, str]]] = {}
    diff_rows: dict[int, list[list[str]]] = {}
    for text, line in items:
        toks = text.split(None, 1)
        if not toks:
            continue
        head = toks[0]
        rest = toks[1] if len(toks) > 1 else ""
        if head == "deg":
            deg_s, _, summands = rest.partition(":")
            try:
                deg = int(deg_s.strip())
            except ValueError:
                raise SessionSyntaxError("deg syntax: deg N: P(v,w) ...", line)
            entries = []
            for tok in summands.split():
                if not (tok.startswith("P(") and tok.endswith(")")):
                    raise SessionSyntaxError(f"bad summand {tok!r}; expected P(v,w)", line)
                inner = tok[2:-1]
                if "," not in inner:
                    raise SessionSyntaxError(f"bad summand {tok!r}; expected P(v,w)", line)
                v, _, w = inner.partition(",")
                entries.append((v.strip(), w.strip()))
            if not entries:
                raise SessionSyntaxError("degree with no summands", line)
            degrees[deg] = entries
        elif head == "d":
            deg_s, _, rows_text = rest.partition(":")
            try:
                deg = int(deg_s.strip())
            except ValueError:
                raise SessionSyntaxError("differential syntax: d N: entries", line)
            rows = []
            for row in rows_text.split(","):
                entries = row.split()
                for tok in entries:
                    _parse_coeff(tok, line)
                if entries:
                    rows.append(entries)
            diff_rows[deg] = rows
        else:
            raise SessionSyntaxError(f"unknown kernel item {head!r}", line)
    if not degrees:
        raise SessionSyntaxError("kernel with no degrees", decl_line)
    return degrees, diff_rows


def parse_session(text: str) -> Session:
    """Parse and fully validate a session; raises a positioned SessionError.

    Validating elaborates the session over its declared field: its
    algebras are built, its kernels checked and its command names
    resolved.  The session keeps that elaboration, so run_session over the
    declared field reuses it.
    """
    field: Field | None = None
    algebras: dict[str, AlgebraDecl] = {}
    kernels: dict[str, KernelDecl] = {}
    commands: list[Command] = []

    lines = text.splitlines()
    i = 0

    def collect_block(first_line: str, lineno: int) -> tuple[str, list[tuple[str, int]], int]:
        """Return (header, items, next_index) for a braced block."""
        nonlocal i
        if "{" not in first_line:
            raise SessionSyntaxError("expected '{'", lineno, len(first_line))
        header, _, tail = first_line.partition("{")
        body_parts: list[tuple[str, int]] = []
        rest = tail
        ln = lineno
        closed = False
        while True:
            if "}" in rest:
                rest_body = rest[:rest.index("}")]
                after = rest[rest.index("}") + 1:].strip()
                if after:
                    raise SessionSyntaxError("unexpected text after '}'", ln)
                if rest_body.strip():
                    body_parts.extend((p.strip(), ln) for p in rest_body.split(";") if p.strip())
                closed = True
                break
            if rest.strip():
                body_parts.extend((p.strip(), ln) for p in rest.split(";") if p.strip())
            i += 1
            if i >= len(lines):
                break
            rest = _strip_comment(lines[i]).rstrip()
            ln = i + 1
        if not closed:
            raise SessionSyntaxError("unterminated block (missing '}')", lineno)
        return header.strip(), body_parts, i

    while i < len(lines):
        raw = _strip_comment(lines[i]).strip()
        lineno = i + 1
        if not raw:
            i += 1
            continue
        toks = raw.split()
        head = toks[0]
        if head == "field":
            if len(toks) == 2 and toks[1] in ("Q", "q"):
                field = Field.rationals()
            elif len(toks) == 3 and toks[1] == "F" and toks[2].isdecimal():
                try:
                    field = Field.prime(int(toks[2]))
                except ValueError as e:
                    raise SessionInvariantError(str(e), lineno)
            else:
                raise SessionSyntaxError("field syntax: 'field F p' or 'field Q'", lineno)
        elif head == "algebra":
            if len(toks) < 2:
                raise SessionSyntaxError("algebra needs a name", lineno)
            name = toks[1]
            header, items, _ = collect_block(raw, lineno)
            if header.split() != ["algebra", name]:
                raise SessionSyntaxError("algebra header syntax", lineno)
            if name in algebras:
                raise SessionSyntaxError(f"duplicate algebra {name!r}", lineno)
            pres = _parse_algebra_items(items, name)
            algebras[name] = AlgebraDecl(name, pres, lineno)
        elif head == "kernel":
            if len(toks) < 6 or toks[2] != "from" or toks[4] != "to":
                raise SessionSyntaxError(
                    "kernel syntax: kernel NAME from A to B { ... }", lineno)
            name, src, tgt = toks[1], toks[3], toks[5]
            header, items, _ = collect_block(raw, lineno)
            if name in kernels:
                raise SessionSyntaxError(f"duplicate kernel {name!r}", lineno)
            degrees, diff_rows = _parse_kernel_items(items, lineno)
            kernels[name] = KernelDecl(name, src, tgt, degrees, diff_rows, lineno)
        elif head in _HANDLERS:
            args = toks[1:]
            if head == "seed":
                if len(args) != 1 or not args[0].removeprefix("-").isdecimal():
                    raise SessionSyntaxError("seed takes an integer", lineno)
            elif head == "compose":
                if len(args) != 4 or args[2] != "as":
                    raise SessionSyntaxError("compose syntax: compose A B as C", lineno)
                args = (args[0], args[1], args[3])
            elif head == "twist":
                if len(args) == 3 and args[1] == "as":
                    args = (args[0], args[2])
                elif len(args) != 1:
                    raise SessionSyntaxError("twist syntax: twist NAME [as NEW]", lineno)
            elif head == "assert-quasi-iso":
                if len(args) != 2:
                    raise SessionSyntaxError("assert-quasi-iso takes two names", lineno)
            elif len(args) != 1:
                raise SessionSyntaxError(f"{head} takes one name", lineno)
            commands.append(Command(head, tuple(args), lineno))
        else:
            raise SessionSyntaxError(f"unknown statement {head!r}", lineno)
        i += 1

    if field is None:
        field = Field.prime(101)
    session = Session(field, algebras, kernels, commands)
    _elaborated(session, field)                  # full validation: names, invariants
    return session


# ---------------------------------------------------------------------------
# elaboration: build engine objects, checking the input on load
# ---------------------------------------------------------------------------


def _elaborated(session: Session, field: Field) -> dict[str, Kernel]:
    """The session's checked kernels over field, its command names resolved.

    The session's elaboration over field is built on the first call for
    that field and kept in session._built; a failed one keeps nothing.
    The commands are resolved on every call, so a command added to a
    parsed session is checked too.
    """
    kernels = kept(session._built, field, lambda: _elaborate(session, field))[1]
    _resolve_commands(session, kernels)
    return kernels


def _elaborate(session: Session, field: Field):
    """Build algebras and kernels over field, raising positioned errors.

    This is where outside input enters the engine, so each differential
    and each kernel complex is checked here; the objects the engine builds
    from them later are not checked again.  Each call builds fresh
    algebras; parse_session and run_session call it through _elaborated,
    once per session and field.
    """
    built_algebras: dict[str, Algebra] = {}
    for name, decl in session.algebras.items():
        try:
            built_algebras[name] = algebra_from_quiver(decl.presentation, field, name=name)
        except (AlgebraError, ZeroDivisionError) as e:
            raise SessionInvariantError(f"algebra {name}: {e}", decl.line)
    built_kernels: dict[str, Kernel] = {}
    for name, decl in session.kernels.items():
        if decl.source not in built_algebras:
            raise UnresolvedNameError(f"unknown algebra {decl.source!r}", decl.line)
        if decl.target not in built_algebras:
            raise UnresolvedNameError(f"unknown algebra {decl.target!r}", decl.line)
        a = built_algebras[decl.source]
        b = built_algebras[decl.target]
        a_pres = session.algebras[decl.source].presentation
        b_pres = session.algebras[decl.target].presentation
        terms = {}
        for deg, summands in decl.degrees.items():
            mods = []
            for (v, w) in summands:
                if v not in a_pres.vertices:
                    raise UnresolvedNameError(
                        f"unknown vertex {v!r} in algebra {decl.source}", decl.line)
                if w not in b_pres.vertices:
                    raise UnresolvedNameError(
                        f"unknown vertex {w!r} in algebra {decl.target}", decl.line)
                mods.append(projective_bimodule(a, a_pres.vertices.index(v),
                                                b, b_pres.vertices.index(w)))
            terms[deg] = direct_sum(mods)
        diffs = {}
        for deg, rows in decl.diff_rows.items():
            if deg not in terms or (deg + 1) not in terms:
                raise SessionInvariantError(
                    f"differential at degree {deg} has no endpoints", decl.line)
            src, tgt = terms[deg], terms[deg + 1]
            if len(rows) != tgt.dim or any(len(r) != src.dim for r in rows):
                raise SessionInvariantError(
                    f"differential at degree {deg} must be {tgt.dim} rows of "
                    f"{src.dim} entries", decl.line)
            try:
                mat = Matrix.from_rows(field, [[field.elem(Fraction(x)) for x in r]
                                               for r in rows])
            except ZeroDivisionError as e:
                raise SessionInvariantError(f"differential at degree {deg}: {e}", decl.line)
            try:
                check_map(src, tgt, mat)
            except BimoduleError as e:
                raise SessionInvariantError(
                    f"differential at degree {deg} is not equivariant: {e}", decl.line)
            diffs[deg] = mat
        try:
            cx = Complex(a, b, terms, diffs)
            cx.check()
            built_kernels[name] = Kernel(a, b, cx)
        except (ComplexError, KernelError) as e:
            raise SessionInvariantError(f"kernel {name}: {e}", decl.line)
    return built_algebras, built_kernels


def _resolve_commands(session: Session, kernels: dict[str, Kernel]):
    """Raise UnresolvedNameError at the first command naming no kernel."""
    known = set(kernels)
    for c in session.commands:
        if c.kind == "seed":
            continue
        if c.kind == "twist":
            if c.args[0] not in known:
                raise UnresolvedNameError(f"unknown kernel {c.args[0]!r}", c.line)
            if len(c.args) == 2:
                known.add(c.args[1])
        elif c.kind == "compose":
            for n in c.args[:2]:
                if n not in known:
                    raise UnresolvedNameError(f"unknown kernel {n!r}", c.line)
            known.add(c.args[2])
        else:
            for n in c.args:
                if n not in known:
                    raise UnresolvedNameError(f"unknown kernel {n!r}", c.line)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class CommandResult:
    cmd: str
    status: str                  # "ok" | "assert-failed" | "error" | ...
    data: dict
    elapsed_ms: float = 0.0


@dataclass
class Report:
    engine: str
    field: str
    seed: int
    results: list[CommandResult]

    def to_dict(self, include_timings: bool = False) -> dict:
        commands = []
        for r in self.results:
            entry = {"cmd": r.cmd, "status": r.status}
            entry.update(r.data)
            if include_timings:
                entry["elapsed_ms"] = round(r.elapsed_ms, 3)
            commands.append(entry)
        return {"engine": self.engine, "field": self.field, "seed": self.seed,
                "commands": commands}

    def to_json(self, include_timings: bool = False) -> str:
        return json.dumps(self.to_dict(include_timings), sort_keys=True, indent=2) + "\n"

    def render_text(self) -> str:
        lines = [f"engine {self.engine}  field {self.field}  seed {self.seed}"]
        for r in self.results:
            lines.append(f"[{r.status:>13}] {r.cmd}  ({r.elapsed_ms:.0f} ms)")
            for key in sorted(r.data):
                lines.append(f"    {key}: {r.data[key]}")
        return "\n".join(lines) + "\n"

    @property
    def all_passed(self) -> bool:
        return all(r.status == "ok" for r in self.results)


def _profile(dims: dict[int, int]) -> dict[str, int]:
    return {str(n): d for n, d in sorted(dims.items())}


def _conditions_payload(report) -> dict:
    return {
        "twist_equivalence": report.cond_T_equiv,
        "cotwist_equivalence": report.cond_C_equiv,
        "condition_3": report.cond_3,
        "condition_4": report.cond_4,
    }


def _homology_payload(report) -> dict:
    return {"twist": _profile(report.homology_profiles["twist"]),
            "cotwist": _profile(report.homology_profiles["cotwist"])}


class _RunState:
    """What the commands of one session run share: named kernels and the rng."""

    def __init__(self, kernels: dict[str, Kernel], seed: int):
        self.kernels = kernels
        self.reseed(seed)

    def reseed(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)


# each command handler returns (status, data) for the command's arguments


def _run_seed(st: _RunState, args):
    st.reseed(int(args[0]))
    return "ok", {}


def _run_check(st: _RunState, args):
    p = st.kernels[args[0]]
    rep = check_conditions(p)
    data = {
        "conditions": _conditions_payload(rep),
        "two_out_of_four": verify_two_out_of_four(p, rep).status,
        "theorem": check_theorem(p, rep).status,
        "homology": _homology_payload(rep),
    }
    ok = data["two_out_of_four"] == "pass" and data["theorem"] != "fail"
    return ("ok" if ok else "assert-failed"), data


def _run_spherical(st: _RunState, args):
    p = st.kernels[args[0]]
    rep = check_conditions(p)
    data = {
        "is_spherical": is_spherical(p, rep).is_spherical,
        "conditions": _conditions_payload(rep),
        "homology": _homology_payload(rep),
        "splitting": check_splitting(p, rep).status,
        "adjoint_spherical": check_adjoint_spherical(p, rep).status,
        "appendix": check_appendix(p, rep).status,
    }
    bad = any(data[k] == "fail" for k in ("splitting", "adjoint_spherical", "appendix"))
    return ("assert-failed" if bad else "ok"), data


def _run_twist(st: _RunState, args):
    tw = kernel_ops(st.kernels[args[0]]).twist()
    if len(args) == 2:
        st.kernels[args[1]] = tw.kernel
    return "ok", {"homology": {"twist": _profile(homology_dims(tw.kernel.complex))}}


def _run_compose(st: _RunState, args):
    r = compose(st.kernels[args[0]], st.kernels[args[1]])
    st.kernels[args[2]] = r
    return "ok", {"dims": {str(n): r.complex.dim(n) for n in r.complex.degrees()}}


def _run_assert_quasi_iso(st: _RunState, args):
    # no chain map joins kernels between different algebras
    x, y = (st.kernels[a] for a in args[:2])
    if (x.source_algebra.mult, x.target_algebra.mult) != \
            (y.source_algebra.mult, y.target_algebra.mult):
        raise KernelError("the kernels are over different algebras")
    # minimal models are homotopy equivalent to the complexes: they have the
    # same homology and K_0 class, and a witness exists between them exactly
    # when one exists between x and y
    x, y = kernel_ops(x).model(), kernel_ops(y).model()
    hx, hy = homology_dims(x.complex), homology_dims(y.complex)
    w = find_quasi_iso(x.complex, y.complex, st.rng) \
        if hx == hy and not _classes_differ(x, y) else None
    data = {"homology": {args[0]: _profile(hx), args[1]: _profile(hy)},
            "witness_found": w is not None}
    return ("ok" if w is not None else "assert-failed"), data


def _classes_differ(x: Kernel, y: Kernel) -> bool:
    """Whether kernels x and y between the same algebras both have a K_0
    class and the classes differ: then no quasi-isomorphism joins them, and
    the search is not run, so it draws nothing from the session's rng."""
    try:
        return bool((kernel_ops(x).k0_class() != kernel_ops(y).k0_class()).any())
    except KernelError:
        return False


def _run_faithful(st: _RunState, args):
    # F is fully faithful exactly when its unit id -> RF is invertible, and
    # at the generator the unit is the kernel's left action
    if left_action_is_quasi_iso(st.kernels[args[0]].complex):
        return "ok", {"witness_found": True, "verdict": "pass"}
    return "ok", {"witness_found": False, "verdict": "not_applicable",
                  "detail": "no quasi-iso witness id -> RF exists"}


_HANDLERS = {
    "seed": _run_seed,
    "check": _run_check,
    "spherical": _run_spherical,
    "twist": _run_twist,
    "compose": _run_compose,
    "assert-quasi-iso": _run_assert_quasi_iso,
    "faithful": _run_faithful,
}


def run_session(session: Session, seed: int | None = None,
                field: Field | None = None) -> Report:
    """Execute the commands in order; engine errors are captured per command.

    The session is elaborated once per field: the first run over a field
    (parse_session's, for the declared field) builds its algebras and
    checks its complexes, and later runs over that field reuse them, each
    complex in a fresh Kernel, so no report or model carries over from
    another run.  Command names are resolved on every run.
    """
    eff_field = field or session.field
    kernels = {n: Kernel(k.source_algebra, k.target_algebra, k.complex, check=False)
               for n, k in _elaborated(session, eff_field).items()}
    st = _RunState(kernels, seed if seed is not None else 0)
    results: list[CommandResult] = []

    for c in session.commands:
        t0 = time.perf_counter()
        try:
            status, data = _HANDLERS[c.kind](st, c.args)
        except (KernelError, BimoduleError, ComplexError, AlgebraError) as e:
            status, data = "error", {"detail": str(e)}
        results.append(CommandResult(c.render(), status, data, (time.perf_counter() - t0) * 1e3))
    field_str = f"F{eff_field.p}" if eff_field.is_prime_field else "Q"
    return Report(__version__, field_str, st.seed if seed is None else seed, results)


# ---------------------------------------------------------------------------
# builtin examples
# ---------------------------------------------------------------------------


_ZIGZAG_BLOCK = ("algebra Z { vertices 1 2; arrows a: 1 -> 2; arrows b: 2 -> 1; "
                 "relations a*b*a = 0; relations b*a*b = 0; bound 3 }")

BUILTIN_TEXTS: dict[str, str] = {
    "identity": """\
field F 101
algebra k { vertices pt }
kernel ID from k to k { deg 0: P(pt,pt) }
check ID
""",
    "dual_numbers": """\
field F 101
algebra k { vertices pt }
algebra D { vertices v; arrows x: v -> v; relations x*x = 0; bound 2 }
kernel P from k to D { deg 0: P(pt,v) }
check P
spherical P
""",
    "kxk": """\
field F 101
algebra k { vertices pt }
algebra KK { vertices u w }
kernel P from k to KK { deg 0: P(pt,u) P(pt,w) }
check P
spherical P
""",
    "x_cubed": """\
field F 101
algebra k { vertices pt }
algebra X3 { vertices v; arrows x: v -> v; relations x*x*x = 0; bound 3 }
kernel P from k to X3 { deg 0: P(pt,v) }
check P
spherical P
""",
    "zigzag_a2": f"""\
field F 101
algebra k {{ vertices pt }}
{_ZIGZAG_BLOCK}
kernel P from k to Z {{ deg 0: P(pt,1) }}
check P
spherical P
""",
    "zigzag_braid": f"""\
field F 101
algebra k {{ vertices pt }}
{_ZIGZAG_BLOCK}
kernel P1 from k to Z {{ deg 0: P(pt,1) }}
kernel P2 from k to Z {{ deg 0: P(pt,2) }}
seed 1
twist P1 as T1
twist P2 as T2
compose T1 T2 as T12
compose T12 T1 as T121
compose T2 T1 as T21
compose T21 T2 as T212
assert-quasi-iso T121 T212
""",
    "morita_2x2": """\
field F 101
algebra k { vertices pt }
algebra M2 { vertices 1 2; arrows a: 1 -> 2; bound 2 }
kernel P from k to M2 { deg 0: P(pt,1) }
faithful P
""",
}


def builtin_example(name: str) -> Session:
    if name not in BUILTIN_TEXTS:
        known = ", ".join(sorted(BUILTIN_TEXTS))
        raise SessionError(f"unknown builtin {name!r}; available: {known}")
    return parse_session(BUILTIN_TEXTS[name])


def builtin_names() -> list[str]:
    return sorted(BUILTIN_TEXTS)
