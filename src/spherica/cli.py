"""Command line interface: run session files, show and run builtin examples.

Exit codes: 0 when every assertion passes, 1 on an assertion failure or
captured engine error, 2 on invalid input (parse errors, unknown names,
bad flags).
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .linalg import Field
from .session import (
    BUILTIN_TEXTS,
    SessionError,
    builtin_example,
    builtin_names,
    parse_session,
    run_session,
)


def _parse_field_flag(text: str) -> Field:
    if text.lower() == "q":
        return Field.rationals()
    if text.isdecimal():
        return Field.prime(int(text))
    raise ValueError(f"--field expects a prime or 'q', got {text!r}")


def _run(args, session, field: Field | None = None) -> int:
    """Run the session and emit its report.  The --json file is opened
    before the run, so a path that cannot be written costs no work."""
    try:
        out = open(args.json, "w") if args.json else contextlib.nullcontext()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        with out as fh:
            report = run_session(session, seed=args.seed, field=field)
            if fh is not None:
                fh.write(report.to_json(include_timings=args.timings))
    except (SessionError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(report.render_text())
    return 0 if report.all_passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="spherica",
        description="exact twist-functor calculus over quiver algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a session file")
    p_run.add_argument("file")
    p_run.add_argument("--json", help="write the JSON report to this path")
    p_run.add_argument("--field", help="override the session field: a prime or 'q'")
    p_run.add_argument("--seed", type=int, help="override the starting seed")
    p_run.add_argument("--timings", action="store_true",
                       help="include elapsed_ms in the JSON report")

    p_ex = sub.add_parser("example", help="print (or run) a builtin example")
    p_ex.add_argument("name")
    p_ex.add_argument("--run", action="store_true")
    p_ex.add_argument("--json", help="write the JSON report to this path")
    p_ex.add_argument("--seed", type=int)
    p_ex.add_argument("--timings", action="store_true")

    sub.add_parser("list", help="list builtin example names")

    args = parser.parse_args(argv)

    if args.command == "list":
        for name in builtin_names():
            print(name)
        return 0

    if args.command == "example":
        try:
            session = builtin_example(args.name)
        except SessionError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        if not args.run:
            sys.stdout.write(BUILTIN_TEXTS[args.name])
            return 0
        return _run(args, session)

    # run
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        session = parse_session(text)
        field = _parse_field_flag(args.field) if args.field else None
    except (SessionError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return _run(args, session, field)


if __name__ == "__main__":
    sys.exit(main())
