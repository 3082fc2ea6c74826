"""Session language: parsing, diagnostics, builtins, reports, CLI."""

from __future__ import annotations

import json

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
def test_builtin_round_trip(name):
    s = builtin_example(name)
    s2 = parse_session(s.render())
    assert s.structural_key() == s2.structural_key()


def test_builtin_dual_numbers_matches_inline_text():
    s1 = builtin_example("dual_numbers")
    s2 = parse_session(BUILTIN_TEXTS["dual_numbers"])
    assert s1.structural_key() == s2.structural_key()


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
