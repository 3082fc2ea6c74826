"""Session language: parsing, diagnostics, builtins, reports, CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from spherica.cli import main as cli_main
from spherica.session import (
    BUILTIN_TEXTS,
    SessionError,
    SessionInvariantError,
    SessionSyntaxError,
    UnresolvedNameError,
    builtin_example,
    builtin_names,
    parse_session,
    run_session,
)
from spherica.linalg import Field


MINIMAL = """\
field F 101
algebra k { vertices pt }
kernel id from k to k { deg 0: P(pt,pt) }
check id
"""


def test_parse_minimal():
    s = parse_session(MINIMAL)
    assert s.field == Field.prime(101)
    assert list(s.algebras) == ["k"]
    assert list(s.kernels) == ["id"]
    assert len(s.commands) == 1


def test_parse_multiline_block():
    text = """\
field F 101
algebra k { vertices pt }
algebra D {
  vertices v
  arrows x: v -> v
  relations x*x = 0
  bound 2
}
kernel P from k to D { deg 0: P(pt,v) }
spherical P
"""
    s = parse_session(text)
    assert s.algebras["D"].presentation.length_bound == 2
    assert len(s.algebras["D"].presentation.relations) == 1


def test_parse_kernel_with_differential():
    text = """\
field F 101
algebra k { vertices pt }
algebra D { vertices v; arrows x: v -> v; relations x*x = 0; bound 2 }
kernel X from k to D { deg 0: P(pt,v); deg 1: P(pt,v); d 0: 0 0 , 1 0 }
check X
"""
    s = parse_session(text)
    assert s.kernels["X"].diff_rows[0] == [["0", "0"], ["1", "0"]]
    report = run_session(s)
    assert report.results[0].status in ("ok", "assert-failed")


def test_differential_must_be_equivariant():
    text = """\
field F 101
algebra k { vertices pt }
algebra D { vertices v; arrows x: v -> v; relations x*x = 0; bound 2 }
kernel X from k to D { deg 0: P(pt,v); deg 1: P(pt,v); d 0: 0 1 , 0 0 }
check X
"""
    with pytest.raises(SessionInvariantError):
        parse_session(text)


def test_syntax_error_has_position():
    with pytest.raises(SessionSyntaxError) as err:
        parse_session("field F 101\nfrobnicate Z\n")
    assert err.value.line == 2


def test_unknown_vertex_reported():
    text = """\
field F 101
algebra k { vertices pt }
algebra D { vertices v; arrows x: v -> nowhere; bound 2 }
"""
    with pytest.raises((SessionInvariantError, UnresolvedNameError)):
        parse_session(text)


def test_unknown_kernel_vertex():
    text = MINIMAL.replace("P(pt,pt)", "P(pt,elsewhere)")
    with pytest.raises(UnresolvedNameError) as err:
        parse_session(text)
    assert "elsewhere" in str(err.value)


def test_unknown_command_name():
    with pytest.raises(UnresolvedNameError):
        parse_session(MINIMAL + "check ghost\n")


def test_unterminated_block():
    with pytest.raises(SessionSyntaxError):
        parse_session("algebra k { vertices pt\n")


def test_builtin_names_and_unknown():
    assert "dual_numbers" in builtin_names()
    with pytest.raises(SessionError) as err:
        builtin_example("no_such_thing")
    assert "available" in str(err.value)


@pytest.mark.parametrize("name", sorted(BUILTIN_TEXTS))
def test_builtin_round_trip(name, capsys):
    assert cli_main(["example", name]) == 0
    printed = capsys.readouterr().out
    assert printed == BUILTIN_TEXTS[name]
    assert parse_session(printed) == builtin_example(name)


def test_builtin_dual_numbers_matches_inline_text():
    s1 = builtin_example("dual_numbers")
    s2 = parse_session(BUILTIN_TEXTS["dual_numbers"])
    assert s1 == s2
    assert s1 is not s2


def test_report_determinism_and_schema():
    s = builtin_example("x_cubed")
    r1 = run_session(s)
    r2 = run_session(s)
    assert r1.to_json() == r2.to_json()
    payload = json.loads(r1.to_json())
    assert payload["engine"]
    assert payload["field"] == "F101"
    assert "seed" in payload
    for entry in payload["commands"]:
        assert "cmd" in entry and "status" in entry
        assert "elapsed_ms" not in entry
    timed = json.loads(r1.to_json(include_timings=True))
    assert all("elapsed_ms" in e for e in timed["commands"])


def test_identity_session_results():
    report = run_session(builtin_example("identity"))
    entry = report.results[0]
    assert entry.status == "ok"
    assert entry.data["conditions"] == {
        "twist_equivalence": False, "cotwist_equivalence": False,
        "condition_3": False, "condition_4": False}
    assert entry.data["two_out_of_four"] == "pass"


def test_x_cubed_session_results():
    report = run_session(builtin_example("x_cubed"))
    spherical_entry = report.results[1]
    assert spherical_entry.data["is_spherical"] is False
    assert spherical_entry.data["homology"]["cotwist"] == {"1": 2}


def test_engine_errors_captured_per_command():
    # composing with a mismatched middle algebra is an engine error, not a crash
    text = """\
field F 101
algebra k { vertices pt }
algebra D { vertices v; arrows x: v -> v; relations x*x = 0; bound 2 }
kernel P from k to D { deg 0: P(pt,v) }
compose P P as QQ
check P
"""
    report = run_session(parse_session(text))
    assert report.results[0].status == "error"
    assert report.results[1].status == "ok"       # run continued


def test_seed_override_changes_report_seed():
    s = builtin_example("identity")
    assert run_session(s, seed=7).seed == 7


def test_field_override():
    s = builtin_example("identity")
    rep = run_session(s, field=Field.prime(7))
    assert rep.field == "F7"


def test_rational_field_session():
    text = MINIMAL.replace("field F 101", "field Q")
    s = parse_session(text)
    rep = run_session(s)
    assert rep.field == "Q"
    assert rep.results[0].status == "ok"


def test_cli_run_and_exit_codes(tmp_path, capsys):
    f = tmp_path / "session.sph"
    f.write_text(MINIMAL)
    out_json = tmp_path / "report.json"
    code = cli_main(["run", str(f), "--json", str(out_json)])
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["commands"][0]["status"] == "ok"
    capsys.readouterr()

    # input error -> 2
    bad = tmp_path / "bad.sph"
    bad.write_text("algebra { vertices\n")
    assert cli_main(["run", str(bad)]) == 2
    capsys.readouterr()

    # failing assertion -> 1
    failing = tmp_path / "failing.sph"
    failing.write_text("""\
field F 101
algebra k { vertices pt }
algebra D { vertices v; arrows x: v -> v; relations x*x = 0; bound 2 }
kernel P from k to D { deg 0: P(pt,v) }
kernel QQ from k to D { deg 0: P(pt,v) P(pt,v) }
assert-quasi-iso P QQ
""")
    assert cli_main(["run", str(failing)]) == 1
    capsys.readouterr()


def test_cli_unwritable_json_path_is_an_input_error(tmp_path, capsys, monkeypatch):
    """A --json path in a missing directory prints an error and exits 2, for
    run and for example --run, without a traceback and before the session
    runs."""
    def must_not_run(*args, **kwargs):
        raise AssertionError("run_session was called before the report path was opened")

    monkeypatch.setattr("spherica.cli.run_session", must_not_run)
    f = tmp_path / "session.sph"
    f.write_text(MINIMAL)
    out_json = tmp_path / "missing" / "report.json"
    assert cli_main(["run", str(f), "--json", str(out_json)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert cli_main(["example", "identity", "--run", "--json", str(out_json)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_json.parent.exists()


def test_cli_session_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "latin1.sph"
    f.write_bytes(MINIMAL.encode() + b"# caf\xe9\n")
    assert cli_main(["run", str(f)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_list_and_example(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "zigzag_braid" in out
    assert cli_main(["example", "identity"]) == 0
    out = capsys.readouterr().out
    assert "kernel ID" in out
    assert cli_main(["example", "who"]) == 2


@pytest.mark.parametrize("name", ["identity", "x_cubed", "dual_numbers"])
def test_golden_reports(name):
    """Byte-for-byte comparison against checked-in reports."""
    from pathlib import Path
    golden = Path(__file__).parent / "golden" / f"{name}.json"
    report = run_session(builtin_example(name))
    assert report.to_json() == golden.read_text()


@pytest.mark.parametrize("name", ["identity", "x_cubed", "dual_numbers"])
def test_golden_reports_at_the_largest_prime(name):
    """Over F_p with p = 2^31 - 1 the verdicts are those of F101."""
    from pathlib import Path
    from spherica.linalg import MAX_PRIME
    golden = json.loads((Path(__file__).parent / "golden" / f"{name}.json").read_text())
    report = json.loads(run_session(builtin_example(name), field=Field.prime(MAX_PRIME)).to_json())
    assert report.pop("field") == f"F{MAX_PRIME}"
    golden.pop("field")
    assert report == golden


def test_all_builtin_sessions_run_clean():
    """Every builtin session completes with no engine errors."""
    for name in builtin_names():
        report = run_session(builtin_example(name))
        statuses = {r.cmd: r.status for r in report.results}
        assert all(s != "error" for s in statuses.values()), (name, statuses)
        assert report.all_passed, (name, statuses)


def test_dual_numbers_over_rationals_cross_check():
    """The same verdicts over Q as over F_101 (exact cross-check route)."""
    text = BUILTIN_TEXTS["dual_numbers"].replace("field F 101", "field Q")
    rep = run_session(parse_session(text))
    check = rep.results[0]
    assert check.status == "ok"
    assert all(check.data["conditions"].values())
    assert check.data["homology"] == {"twist": {"-1": 2}, "cotwist": {"1": 1}}


@pytest.mark.parametrize("name", builtin_names())
def test_rational_reports_equal_the_f101_reports(name):
    """F_p against Q: every verdict, dimension and witness of a builtin
    session comes out the same over both fields."""
    rational = run_session(builtin_example(name), field=Field.rationals()).to_dict()
    modular = run_session(builtin_example(name)).to_dict()
    assert (rational.pop("field"), modular.pop("field")) == ("Q", "F101")
    assert rational == modular


def test_differential_entry_without_image_in_the_field(tmp_path, capsys):
    text = """\
field F 101
algebra k { vertices pt }
algebra D { vertices v; arrows x: v -> v; relations x*x = 0; bound 2 }
kernel X from k to D { deg 0: P(pt,v); deg 1: P(pt,v); d 0: 1/101 0 , 0 1/101 }
check X
"""
    with pytest.raises(SessionInvariantError) as err:
        parse_session(text)
    assert err.value.line == 4
    assert "1/101" in str(err.value)
    f = tmp_path / "bad_entry.sph"
    f.write_text(text)
    assert cli_main(["run", str(f)]) == 2
    assert "line 4" in capsys.readouterr().err


def test_differential_with_nonzero_square_is_rejected_on_load(tmp_path, capsys):
    text = """\
field F 101
algebra k { vertices pt }
algebra D { vertices v; arrows x: v -> v; relations x*x = 0; bound 2 }
kernel X from k to D { deg 0: P(pt,v); deg 1: P(pt,v); deg 2: P(pt,v); d 0: 1 0 , 0 1 ; d 1: 1 0 , 0 1 }
check X
"""
    for field_line in ("field F 101", "field Q"):
        with pytest.raises(SessionInvariantError, match=r"kernel X: d\^2 != 0 at degree 0") as err:
            parse_session(text.replace("field F 101", field_line))
        assert err.value.line == 4
    f = tmp_path / "d_squared.sph"
    f.write_text(text)
    assert cli_main(["run", str(f)]) == 2
    assert cli_main(["run", str(f), "--field", "q"]) == 2
    assert "line 4" in capsys.readouterr().err


def test_coefficients_without_value_are_positioned_errors():
    bad_entry = """\
field F 101
algebra k { vertices pt }
algebra D { vertices v; arrows x: v -> v; relations x*x = 0; bound 2 }
kernel X from k to D {
  deg 0: P(pt,v); deg 1: P(pt,v)
  d 0: 1/0 0 , 0 1
}
"""
    with pytest.raises(SessionSyntaxError) as err:
        parse_session(bad_entry)
    assert err.value.line == 6 and "1/0" in str(err.value)
    bad_relation = """\
field F 101
algebra k { vertices pt }
algebra D { vertices v; arrows x: v -> v; relations 1/101*x*x = 0; bound 2 }
kernel X from k to D { deg 0: P(pt,v) }
"""
    with pytest.raises(SessionInvariantError) as err:
        parse_session(bad_relation)
    assert err.value.line == 3


def test_prime_above_the_limit_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "big_prime.sph"
    f.write_text(MINIMAL.replace("field F 101", "field F 4294967291"))
    assert cli_main(["run", str(f)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "4294967291" in err


@pytest.mark.parametrize("text, line", [
    (MINIMAL + "seed ²\n", 5),
    (MINIMAL + "seed --5\n", 5),
    (MINIMAL.replace("vertices pt }", "vertices pt; bound ² }"), 2),
    (MINIMAL.replace("field F 101", "field F ²"), 1),
], ids=["seed-superscript", "seed-two-minus-signs", "bound-superscript", "field-superscript"])
def test_numbers_that_int_rejects_are_positioned_syntax_errors(tmp_path, capsys, text, line):
    # '²' is a digit to str.isdigit() but not to int()
    with pytest.raises(SessionSyntaxError) as err:
        parse_session(text)
    assert err.value.line == line
    f = tmp_path / "bad_number.sph"
    f.write_text(text, encoding="utf-8")
    assert cli_main(["run", str(f)]) == 2
    assert f"line {line}" in capsys.readouterr().err


def test_field_flag_rejects_superscript_digits(tmp_path, capsys):
    f = tmp_path / "minimal.sph"
    f.write_text(MINIMAL)
    assert cli_main(["run", str(f), "--field", "²"]) == 2
    assert "--field expects a prime or 'q', got '²'" in capsys.readouterr().err


EXAMPLES = Path(__file__).parent.parent / "examples"


@pytest.mark.parametrize("name", ["zigzag_a3", "zigzag_a4", "zigzag_a4_braid6"])
def test_example_files_reproduce_their_reports(name, tmp_path):
    """The braid-relation sessions in examples/ give their recorded reports,
    byte for byte."""
    out = tmp_path / f"{name}.json"
    assert cli_main(["run", str(EXAMPLES / f"{name}.sph"), "--json", str(out)]) == 0
    assert out.read_bytes() == (EXAMPLES / f"{name}.json").read_bytes()


def test_quasi_iso_search_fails_between_distinct_kernels_with_equal_homology():
    """Over zigzag A_2 these pairs have equal homology profiles but are not
    quasi-isomorphic, so the search on their minimal models finds nothing."""
    text = BUILTIN_TEXTS["zigzag_braid"].split("seed 1")[0] + """\
twist P1 as T1
twist P2 as T2
compose T1 T2 as T12
compose T2 T1 as T21
assert-quasi-iso P1 P2
assert-quasi-iso T1 T2
assert-quasi-iso T12 T21
"""
    asserts = [r for r in run_session(parse_session(text)).results
               if r.cmd.startswith("assert-quasi-iso")]
    assert len(asserts) == 3
    for r in asserts:
        a, b = r.cmd.split()[1:]
        assert r.status == "assert-failed", r.cmd
        assert r.data["witness_found"] is False
        assert r.data["homology"][a] == r.data["homology"][b]


@pytest.mark.parametrize("field", [Field.prime(2), Field.prime(101)], ids=["F2", "F101"])
def test_differing_classes_answer_assert_quasi_iso_without_a_search(field, monkeypatch):
    """Over zigzag A_2, T1T2 and T2T1 have equal homology but different K_0
    classes, so they are not quasi-isomorphic: the report is the one the
    search gives, but no chain map space is built and find_quasi_iso, the
    only reader of the session's rng here, is not called."""
    import spherica.complexes as complexes_module
    import spherica.session as session_module
    text = BUILTIN_TEXTS["zigzag_braid"].split("seed 1")[0] + """\
twist P1 as T1
twist P2 as T2
compose T1 T2 as T12
compose T2 T1 as T21
assert-quasi-iso T12 T21
"""
    spaces, searches = [], []
    space, search = complexes_module.chain_map_space, session_module.find_quasi_iso
    monkeypatch.setattr(complexes_module, "chain_map_space",
                        lambda *args: spaces.append(args) or space(*args))
    monkeypatch.setattr(session_module, "find_quasi_iso",
                        lambda *args: searches.append(args) or search(*args))
    report = run_session(parse_session(text), field=field)
    assert spaces == [] and searches == []
    (result,) = [r for r in report.results if r.cmd == "assert-quasi-iso T12 T21"]
    assert result.status == "assert-failed" and result.data["witness_found"] is False
    assert result.data["homology"]["T12"] == result.data["homology"]["T21"]
    # the same report as the search gave before classes were compared
    monkeypatch.setattr(session_module, "_classes_differ", lambda x, y: False)
    searched = run_session(parse_session(text), field=field)
    assert searches and report.to_dict() == searched.to_dict()


OVER_D = """\
field F 101
algebra k { vertices pt }
algebra D { vertices v; arrows x: v -> v; relations x*x = 0; bound 2 }
algebra X3 { vertices v; arrows x: v -> v; relations x*x*x = 0; bound 3 }
algebra KK { vertices u w }
kernel A from k to D { deg 0: P(pt,v); deg 1: P(pt,v); d 0: 1 0 , 0 1 }
kernel H from k to D { deg 0: P(pt,v) }
"""


@pytest.mark.parametrize("other", [
    "kernel B from k to X3 { deg 0: P(pt,v); deg 1: P(pt,v); d 0: 1 0 0 , 0 1 0 , 0 0 1 }\n"
    "assert-quasi-iso A B\n",
    "kernel B from k to KK { deg 0: P(pt,u) P(pt,w) }\nassert-quasi-iso H B\n",
    "kernel H3 from k to D { deg 0: P(pt,v) P(pt,v) P(pt,v) }\n"
    "kernel B from k to X3 { deg 0: P(pt,v) P(pt,v) }\nassert-quasi-iso H3 B\n",
    "kernel B from k to X3 { deg 0: P(pt,v) }\nassert-quasi-iso H B\n",
], ids=["acyclic", "equal-homology", "other-classes", "other-homology"])
def test_assert_quasi_iso_over_different_algebras_is_an_error(other):
    """Two acyclic kernels, two kernels of equal homology, two of equal
    homology whose K_0 classes differ, and two of different homology, over
    different target algebras: no chain map joins them, so each ends in
    the same error and none reports a witness or a failed assertion."""
    (result,) = run_session(parse_session(OVER_D + other)).results
    assert result.status == "error"
    assert result.data == {"detail": "the kernels are over different algebras"}


def test_assert_quasi_iso_searches_between_minimal_models(monkeypatch):
    """zigzag_braid's T121 and T212 have total dimension 78; the search runs
    on their minimal models, of total dimension 42, and the report keeps the
    homology of the complexes as given."""
    import spherica.session as session_module
    search, seen = session_module.find_quasi_iso, []

    def recording(x, y, rng, *args, **kwargs):
        seen.append((x.total_dim(), y.total_dim()))
        return search(x, y, rng, *args, **kwargs)

    monkeypatch.setattr(session_module, "find_quasi_iso", recording)
    report = run_session(builtin_example("zigzag_braid"))
    assert seen == [(42, 42)]
    (result,) = [r for r in report.results if r.cmd == "assert-quasi-iso T121 T212"]
    assert result.status == "ok" and result.data["witness_found"] is True
    assert result.data["homology"] == {"T121": {"-2": 6}, "T212": {"-2": 6}}


SESSION_TEXTS = {**BUILTIN_TEXTS, **{f"examples/{path.stem}": path.read_text()
                                    for path in sorted(EXAMPLES.glob("*.sph"))}}


@pytest.mark.parametrize("name", sorted(SESSION_TEXTS))
def test_each_declared_algebra_is_built_once(name, monkeypatch):
    """Parsing elaborates a session; runs over its own field reuse that
    elaboration instead of building the algebras again."""
    import spherica.session as session_module
    build, built = session_module.algebra_from_quiver, []

    def counting(presentation, field, name=None):
        built.append(name)
        return build(presentation, field, name=name)

    monkeypatch.setattr(session_module, "algebra_from_quiver", counting)
    s = parse_session(SESSION_TEXTS[name])
    for _ in range(2):
        assert run_session(s).all_passed
    assert sorted(built) == sorted(s.algebras)


@pytest.mark.parametrize("name", ["dual_numbers", "zigzag_a2"])
def test_runs_of_one_parsed_session_stay_independent(name, monkeypatch):
    """Two runs of one parsed session share its algebras and standard
    summands, but each run gets fresh kernels and builds its own reports."""
    import spherica.spherical as spherical_module
    from spherica import bimodules
    conditions, checked = spherical_module._conditions, []

    def recording(p):
        checked[-1].append(p)
        return conditions(p)

    monkeypatch.setattr(spherical_module, "_conditions", recording)
    s = parse_session(BUILTIN_TEXTS[name])
    for seed in (None, 7):
        reports = []
        for _ in range(2):
            checked.append([])
            reports.append(run_session(s, seed=seed).to_json())
        assert reports[0] == reports[1]
    assert [len(c) for c in checked] == [1, 1, 1, 1]
    kernels = [p for (p,) in checked]
    assert len({id(p) for p in kernels}) == 4
    summands = lambda k: [id(s) for t in k.complex.terms.values() for s, _ in bimodules._pieces(t)]
    assert summands(kernels[0]) and all(summands(p) == summands(kernels[0]) for p in kernels)


def _reference_report(name: str) -> dict:
    golden = Path(__file__).parent / "golden" / f"{name}.json"
    if not golden.exists():
        golden = Path(__file__).parent.parent / "bench" / "expected" / f"session_{name}.json"
    return json.loads(golden.read_text())


@pytest.mark.parametrize("name", sorted(BUILTIN_TEXTS))
def test_each_algebra_is_built_once_per_field(name, monkeypatch):
    """Runs that alternate between fields on one parsed session build each
    algebra once per field, and each report is the declared field's."""
    import collections
    import spherica.session as session_module
    build, built = session_module.algebra_from_quiver, collections.Counter()

    def counting(presentation, field, name=None):
        built[name, field] += 1
        return build(presentation, field, name=name)

    monkeypatch.setattr(session_module, "algebra_from_quiver", counting)
    s = parse_session(BUILTIN_TEXTS[name])
    reference = _reference_report(name)
    fields = [Field.rationals(), None, Field.rationals(), None, Field.prime(2)]
    for field in fields:
        want = reference if field is None else {**reference, "field": repr(field)}
        assert run_session(s, field=field).to_dict() == want
    assert built == {(a, f): 1 for a in s.algebras
                     for f in (Field.prime(101), Field.rationals(), Field.prime(2))}
    assert s == parse_session(BUILTIN_TEXTS[name])


def test_a_failed_elaboration_over_an_override_field_keeps_nothing():
    text = """\
field F 101
algebra k { vertices pt }
algebra D { vertices v; arrows x: v -> v; relations x*x = 0; bound 2 }
kernel X from k to D { deg 0: P(pt,v); deg 1: P(pt,v); d 0: 0 0 , 1/7 0 }
check X
"""
    s = parse_session(text)
    f7 = Field.prime(7)
    for _ in range(2):
        with pytest.raises(SessionInvariantError) as err:
            run_session(s, field=f7)
        assert err.value.line == 4 and "1/7" in str(err.value)
        assert f7 not in s._built
    assert run_session(s).results[0].status in ("ok", "assert-failed")


def test_a_command_added_after_parsing_is_resolved_on_every_run():
    import dataclasses
    from spherica.session import Command
    s = parse_session(BUILTIN_TEXTS["dual_numbers"])
    s.commands.append(Command("check", ("NOPE",), 99))
    for session in (s, dataclasses.replace(s)):
        for field in (None, Field.rationals()):
            with pytest.raises(UnresolvedNameError) as err:
                run_session(session, field=field)
            assert err.value.line == 99 and "NOPE" in str(err.value)
