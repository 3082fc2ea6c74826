"""Structural checks: how the engine reaches its answers, not what they are.

One corpus (the command line's paths on every builtin, example and
malformed session, each builtin and example twice over Q, random kernels
over F2 and F101, and the benchmark's random-kernel stream) runs once, in
a fresh interpreter as the engine keeps some results per process, under
one sys.setprofile recorder.  From what it sees the tests read three kinds of rule:

- reachability: every function defined in src/spherica is entered, but
  the ALLOWED_UNENTERED ones; code only tests reach belongs in tests/helpers.py;
- kept traffic: every kind of key linalg.kept builds is read back, but the ALLOWED_UNREAD ones;
- the RULES, each on the calls of one guarded function: callees it must
  not reach, callees it may call only so often, results it must not return.

Rule predicates read frame locals only and call no engine code, so the
kept traffic is the engine's own.  A stale table entry fails, and so does
a rule that saw fewer guarded calls than it asks for.  The source-text
checks at the end need no run.
"""

from __future__ import annotations

import ast
import collections
import contextlib
import dis
import inspect
import io
import json
import os
import random
import re
import subprocess
import sys
import types
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import spherica
from spherica import Field, check_adjoint_spherical, check_conditions, cli
from spherica import random_kernel, verify_two_out_of_four
from spherica.complexes import scalar_algebra
from spherica.session import _HANDLERS, BUILTIN_TEXTS, parse_session, run_session

from helpers import RANDOM_SHAPES, dual_numbers, k_times_k, x_cubed, zigzag_a2

PACKAGE = Path(spherica.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"

# "module.py:qualified name" -> why it stays although the corpus never
# enters it; reprs are left out of the scan, as they are there for debugging
ALLOWED_UNENTERED = {
    "algebras.py:Algebra.check": "the validation API: checks the engine's objects on request",
    "algebras.py:Algebra.multiply_vec": "the validation API: Algebra.check multiplies with it",
    "bimodules.py:Bimodule.check": "the validation API: checks the engine's objects on request",
    "complexes.py:ChainMap.check": "the validation API: checks the engine's objects on request",
    "complexes.py:Complex.diff_matrix": "read by ChainMap.check",
    "complexes.py:Complex.euler_characteristic": "public API; the acceptance criteria read it",
    "complexes.py:Complex.total_dim": "read by check_fully_faithful",
    "kernels.py:compose_list": "public API, named in the README",
    "spherical.py:Verdict.passed": "public API; the acceptance assertions read it",
    "spherical.py:check_fully_faithful": "public API; acceptance criterion 7 and test_spherical call it",
}

# kind of kept key (a tuple key's first entry, a string key itself, any
# other key its type's name) -> why it stays although the corpus never reads it back
ALLOWED_UNREAD: dict[str, str] = {}


class Rule(NamedTuple):
    guard: str  # the guarded function, "module.py:qualified name"
    # a test of its locals at the call: the call is guarded when it holds
    when: Callable = lambda loc: True
    # callees it must not enter, each a name or (name, test of the callee's locals)
    forbidden: tuple = ()
    # at its return, from its locals and result: what went wrong, if anything
    broken: Callable = lambda loc, out: None
    # (callee, bound read off its locals at the return): it calls the callee at most that often
    at_most: tuple = ()
    calls: int = 1  # the guarded calls the corpus makes, at least


TENSOR, CONE, MODEL = "complexes.py:tensor_cx", "complexes.py:cone", "complexes.py:minimal_model"
SEARCH, SPACE = "complexes.py:find_quasi_iso", "complexes.py:chain_map_space"
ACTION = "tilting.py:_action_is_quasi_iso"
EQUIVALENCE, IDENTITY = "spherical.py:is_equivalence_kernel", "spherical.py:quasi_iso_to_identity"
FAITHFUL = "session.py:_run_faithful"


def _no_arrows(loc) -> bool:
    return not loc["k"].source_algebra.radical_basis


def _one_record_wrapper(loc, out):
    # a sum of records that is one piece at every coordinate is that piece
    records = out._records
    if isinstance(records, list) and len(records) == 1 and len(records[0][1]) == out.dim:
        return f"a wrapper of one piece, {out!r}"


def _root(m):
    return m._cache["base"][0] if "base" in m._cache else m


def _unshared_piece(loc, out):
    # the pieces of a pair tensor are shared: standard summands, kept by
    # an algebra, and the diagonal, each perhaps reordered
    for p in [p for p, _ in out._records] if isinstance(out._records, list) else [out]:
        root = _root(p)
        if not root.diagonal and not any(t is root for alg in (root.left_algebra, root.right_algebra)
                                         for t in alg._tables.values()):
            return f"a piece {p!r} that is no shared standard summand or diagonal, reordered or not"


def _reads_root(loc) -> bool:
    # a reordered piece whose root passed the check of bimodules._aligned
    return "base" in loc["m"]._cache and bool(_root(loc["m"])._cache.get("aligned"))


def _reordered(loc) -> bool:
    return "base" in loc["m"]._cache


def _equations_off_their_place(loc) -> bool:
    # hom_space solves equations only between two roots of pieces, neither
    # reordered nor with records, whose source is no standard summand
    m, n = loc["m"], loc["n"]
    return m.standard is not None or any("base" in t._cache or t._records is not None for t in (m, n))


def _with_diagonal(loc, out):
    # only chains of whiskers and unitors tensor with the diagonal kernel,
    # and the engine writes their maps straight into their endpoint tensors
    x, y = loc["x"], loc["y"]
    if x is x.left_algebra._tables.get("unit complex") or \
            y is y.right_algebra._tables.get("unit complex"):
        return "a tensor with the diagonal kernel as a factor"


RULES = {
    "equivalence is decided on one-sided models": Rule(EQUIVALENCE, forbidden=(TENSOR, CONE, MODEL)),
    "invertibility with no arrows is read off homology": Rule(EQUIVALENCE, _no_arrows, (ACTION, SEARCH)),
    "identity with no arrows is read off homology": Rule(
        IDENTITY, _no_arrows, (ACTION, SEARCH, "tilting.py:is_identity")),
    "identity with arrows is decided on the one-sided model": Rule(
        IDENTITY, lambda loc: not _no_arrows(loc), (SEARCH, SPACE, MODEL, CONE)),
    # morita_2x2's faithful P in its three runs, and the twists session's two
    "faithful is decided on the one-sided model": Rule(
        FAITHFUL, forbidden=(SEARCH, SPACE, MODEL, TENSOR), calls=5),
    "quasi-isomorphisms are decided on homology": Rule("complexes.py:is_quasi_iso", forbidden=(CONE,)),
    "minimal models read composites off their records": Rule(
        MODEL, forbidden=(("bimodules.py:Bimodule._built", lambda loc: loc["builder"] is None),)),
    "every pair tensor is shared pieces": Rule("bimodules.py:_pair_tensor", broken=_unshared_piece),
    "reordered pieces read their root's splitting": Rule(
        "bimodules.py:_splitting", _reordered,
        (("bimodules.py:_fresh_splitting", _reads_root), ("bimodules.py:_cover", _reads_root))),
    "reordered pieces read their root's multiplicities": Rule(
        "bimodules.py:right_multiplicities", _reordered, (("bimodules.py:_fresh_multiplicities", _reordered),)),
    "hom spaces read their pieces' roots": Rule(
        "bimodules.py:hom_space", forbidden=(("bimodules.py:_solved", _equations_off_their_place),)),
    "no one-record wrappers": Rule("bimodules.py:_recorded", broken=_one_record_wrapper),
    "no tensor with the diagonal kernel": Rule("complexes.py:TensorComplex.__init__", broken=_with_diagonal),
    # a run over a field the session is elaborated over already (its own,
    # by parse_session, or one an earlier run used) builds nothing again
    "each session is elaborated once per field": Rule(
        "session.py:run_session", lambda loc: (loc["field"] or loc["session"].field) in loc["session"]._built,
        ("session.py:_elaborate", "algebras.py:algebra_from_quiver")),
    "an elaboration builds each algebra once": Rule(
        "session.py:_elaborate",
        at_most=(("algebras.py:algebra_from_quiver", lambda loc: len(loc["session"].algebras)),)),
}
WATCHED = collections.defaultdict(list)  # guard -> its rules
FORBIDDEN = collections.defaultdict(list)  # callee -> (rule, test of its locals or None)
for _rule, _row in RULES.items():
    WATCHED[_row.guard].append(_rule)
    for _callee in _row.forbidden:
        _callee, _test = _callee if isinstance(_callee, tuple) else (_callee, None)
        FORBIDDEN[_callee].append((_rule, _test))
COUNTED = {callee for row in RULES.values() for callee, _ in row.at_most}
# the last instruction of a frame that returns, not one an exception unwinds
RETURNS = {dis.opmap[op] for op in ("RETURN_VALUE", "RETURN_CONST") if op in dis.opmap}


class Recorder:
    """The sys.setprofile hook: the engine functions entered, kept's builds
    and reads per kind, and per rule its guarded calls and what broke it."""

    def __init__(self):
        self.names = {}  # id(code) -> (code, "module.py:qualified name" or "" outside the engine)
        self.entered = set()
        self.traffic = collections.defaultdict(lambda: [0, 0])
        self.guarded = collections.Counter()
        self.broken = collections.defaultdict(collections.Counter)
        self.inside = collections.Counter()  # rule -> its guarded frames on the stack
        self.stack = []  # (frame, its guarded rules, its calls of each COUNTED callee) per watched frame

    def __call__(self, frame, event, arg):
        if event != "call" and event != "return":
            return
        code = frame.f_code
        entry = self.names.get(id(code))
        if entry is None:
            path = Path(code.co_filename)
            entry = self.names[id(code)] = (code, path.resolve().parent == PACKAGE
                                            and f"{path.name}:{code.co_qualname}")
        name = entry[1]
        if not name:
            return
        if event == "return":
            if name in WATCHED:
                top, on, calls = self.stack.pop()
                assert top is frame, f"the recorder lost its stack at {name}"
                returned = code.co_code[frame.f_lasti] in RETURNS
                for rule in on:
                    self.inside[rule] -= 1
                    if returned:
                        self._returned(rule, frame.f_locals, arg, calls)
            return
        self.entered.add(name)
        if name in COUNTED and self.stack and self.stack[-1][0] is frame.f_back:
            self.stack[-1][2][name] += 1
        if name == "linalg.py:kept":
            key, cache = frame.f_locals["key"], frame.f_locals["cache"]
            kind = key[0] if isinstance(key, tuple) else key if isinstance(key, str) else type(key).__name__
            self.traffic[kind][key in cache] += 1
        for rule, test in FORBIDDEN.get(name, ()):
            if self.inside[rule] and (test is None or test(frame.f_locals)):
                self.broken[rule][f"{name} inside {RULES[rule].guard}"] += 1
        if name in WATCHED:
            on = [rule for rule in WATCHED[name] if RULES[rule].when(frame.f_locals)]
            for rule in on:
                self.inside[rule] += 1
                self.guarded[rule] += 1
            self.stack.append((frame, on, collections.Counter()))

    def _returned(self, rule, loc, out, calls):
        row = RULES[rule]
        why = [row.broken(loc, out)] + [f"{row.guard} called {f} {calls[f]} times, not at most {bound(loc)}"
                                        for f, bound in row.at_most if calls[f] > bound(loc)]
        for why in filter(None, why):
            self.broken[rule][why] += 1


def _declarations(text: str) -> str:
    """The session text without its commands."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if (line.split() or [""])[0] not in _HANDLERS)


OVER_D = """field F 101
algebra k { vertices pt }
algebra D { vertices v; arrows x: v -> v; relations x*x = 0; bound 2 }
"""
# session file -> (its text, the exit code of `spherica run` on it)
SESSIONS = {
    "d_line": (OVER_D + "kernel X from k to D { deg 0: P(pt,v); deg 1: P(pt,v); d 0: 0 0 , 1 0 }\n"
               "check X\nspherical X\n", 0),
    "not_equivariant": (OVER_D + "kernel X from k to D { deg 0: P(pt,v); deg 1: P(pt,v); d 0: 0 1 , 0 0 }\n"
                        "check X\n", 2),
    "d_squared": (OVER_D + "kernel X from k to D { deg 0: P(pt,v); deg 1: P(pt,v); deg 2: P(pt,v); "
                  "d 0: 1 0 , 0 1 ; d 1: 1 0 , 0 1 }\ncheck X\n", 2),
    # faithful on a spherical twist of zigzag A_4 and on a product of two
    "twists": (_declarations((EXAMPLES / "zigzag_a4_braid6.sph").read_text())
               + "twist P1 as T1\ntwist P2 as T2\ncompose T1 T2 as T12\nfaithful T1\nfaithful T12\n", 0),
    # the squares of the two zigzag A_2 twists have equal homology and K_0
    # classes but are not quasi-isomorphic, so the search draws at random
    "pure_braid": (_declarations(BUILTIN_TEXTS["zigzag_braid"])
                   + "twist P1 as T1\ntwist P2 as T2\ncompose T1 T1 as T11\ncompose T2 T2 as T22\n"
                   "assert-quasi-iso T11 T22\n", 1),
}


def _cli(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def _corpus(tmp: Path) -> None:
    assert _cli("list") == 0
    for name in spherica.builtin_names():
        assert _cli("example", name) == 0
        assert _cli("example", name, "--run") == 0
    assert _cli("run", str(EXAMPLES / "zigzag_a3.sph"), "--json", str(tmp / "a3.json")) == 0
    for name in ("zigzag_a4", "zigzag_a4_braid6"):
        assert _cli("run", str(EXAMPLES / f"{name}.sph")) == 0
    (tmp / "dual_numbers.sph").write_text(BUILTIN_TEXTS["dual_numbers"])
    assert _cli("run", str(tmp / "dual_numbers.sph"), "--field", "2") == 0
    # the command line ran each session over its own field; each runs twice over Q
    for text in [*BUILTIN_TEXTS.values(), *(path.read_text() for path in sorted(EXAMPLES.glob("*.sph")))]:
        session = parse_session(text)
        for _ in range(2):
            run_session(session, field=Field.rationals())
    for name, (text, code) in SESSIONS.items():
        (tmp / f"{name}.sph").write_text(text)
        assert _cli("run", str(tmp / f"{name}.sph")) == code, name
    for field in (Field.prime(2), Field.prime(101)):
        pairs = [(a(field), b(field)) for a, b in RANDOM_SHAPES.values()]
        pairs += [(scalar_algebra(field), b(field)) for b in (dual_numbers, k_times_k, x_cubed, zigzag_a2)]
        for a, b in pairs:
            for seed in range(4):
                p = random_kernel(a, b, random.Random(seed))
                report = check_conditions(p)
                verify_two_out_of_four(p, report)
                if report.cond_C_equiv:
                    check_adjoint_spherical(p, report)
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    for entry in workloads.draw_kernels(20240809):
        p = spherica.Kernel(entry["source"], entry["algebra"], entry["complex"], check=False)
        verify_two_out_of_four(p, check_conditions(p))


def _defined() -> set[str]:
    """Every function, method and nested function defined in the package,
    but for lambdas, comprehensions and reprs."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            for c in stack.pop().co_consts:
                if isinstance(c, types.CodeType):
                    stack.append(c)
                    if c.co_flags & inspect.CO_OPTIMIZED and not c.co_name.startswith("<") \
                            and c.co_name != "__repr__":
                        out.add(f"{path.name}:{c.co_qualname}")
    return out


def _record(tmp: Path) -> dict:
    recorder = Recorder()
    sys.setprofile(recorder)
    try:
        _corpus(tmp)
    finally:
        sys.setprofile(None)
    return {"never": sorted(_defined() - recorder.entered), "traffic": recorder.traffic,
            "rules": {rule: [recorder.guarded[rule], recorder.broken[rule]] for rule in RULES}}


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, __file__, str(tmp_path_factory.mktemp("corpus"))],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def _against(found: list[str], allowed: dict, what: str, stale: str):
    unlisted = [name for name in found if name not in allowed]
    assert not unlisted, f"{what}:\n" + "\n".join(unlisted)
    gone = sorted(set(allowed) - set(found))
    assert not gone, f"{stale}; drop them:\n" + "\n".join(gone)


def test_every_engine_function_is_entered(recorded):
    _against(recorded["never"], ALLOWED_UNENTERED, "the corpus never enters these functions",
             "these ALLOWED_UNENTERED functions are entered now")


def test_every_kept_kind_is_read_again(recorded):
    traffic = recorded["traffic"]
    assert traffic, "kept was never called"
    _against([kind for kind, (_, reads) in sorted(traffic.items()) if not reads], ALLOWED_UNREAD,
             "these kinds are kept but never read again",
             "these ALLOWED_UNREAD kinds are read now, or no longer built")


@pytest.mark.parametrize("rule", RULES)
def test_rule(recorded, rule):
    guarded, broken = recorded["rules"][rule]
    guard, calls = RULES[rule].guard, RULES[rule].calls
    assert guarded >= calls, f"{rule}: the corpus made {guarded} guarded calls of {guard}, fewer than {calls}"
    assert not broken, f"{rule}: " + "; ".join(f"{n} x {why}" for why, n in broken.items())


# pattern -> (the modules where it may stand, what to do instead)
SOURCE_PATTERNS = {
    r"\.arr\b|\.den\b|_zeros\(|_wrap\(": ({"linalg.py"}, "read or write matrix entries in spherica.linalg"),
    r"minimal_model\(": ({"complexes.py", "kernels.py"}, "read kernel_ops(k).model() instead"),
    r"not in [A-Za-z_.]*(_cache|_tables)|_subspace_cache": (set(), "keep derived data through linalg.kept"),
}


@pytest.mark.parametrize("pattern", SOURCE_PATTERNS)
def test_source_pattern_stays_in_its_modules(pattern):
    where, instead = SOURCE_PATTERNS[pattern]
    found = [f"{path.name}:{n}: {line.strip()}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name not in where
             for n, line in enumerate(path.read_text().splitlines(), 1) if re.search(pattern, line)]
    assert not found, "\n".join(found) + f"\n{instead}"


def test_conditions_are_decided_in_one_place():
    # only spherical._condition asks the deciders, so every condition is
    # decided once per kernel, through the report check_conditions keeps
    deciders = {"condition3_map", "condition4_map", "is_equivalence_kernel"}
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {id(node) for top in tree.body if path.name == "spherical.py"
                  and isinstance(top, ast.FunctionDef) and top.name == "_condition"
                  for node in ast.walk(top)}
        for node in ast.walk(tree):
            name = isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in deciders and id(node) not in inside:
                outside.append(f"{path.name}:{node.lineno}: {name}()")
    assert not outside, "\n".join(outside) + "\nask spherical._condition(p, i) instead"


def test_no_unused_imports():
    # __init__.py imports are the public API; "# noqa" marks a deliberate re-export
    unused = []
    for path in [*sorted(PACKAGE.glob("*.py")), *sorted(Path(__file__).parent.glob("*.py"))]:
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__" or \
                    any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
            unused += [f"{path.name}:{node.lineno}: {name}" for name in names if name not in read]
    assert not unused, "imported but never read:\n" + "\n".join(unused)


if __name__ == "__main__":
    print(json.dumps(_record(Path(sys.argv[1]))))
