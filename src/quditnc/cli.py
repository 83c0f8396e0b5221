"""Command-line front end: sweeps, the anticlassicality search, and reports."""

from __future__ import annotations

import argparse
import functools
import math
import shutil
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Sequence

from .states import NumericalError, StateKind, build_state
from .sweep import (
    SweepSpec,
    echo,
    klyshko_bars,
    report,
    resolve_amplitude,
    run_sweep,
    table1_search,
    write_rows_csv,
    write_rows_json,
)


def _parse_quantities(text: str) -> tuple[tuple[str, int | None], ...]:
    out: list[tuple[str, int | None]] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" in chunk:
            ident, _, order_text = chunk.partition(":")
            try:
                order = int(order_text)
            except ValueError:
                raise ValueError(f"bad order in quantity token {echo(chunk)}") from None
            out.append((ident.strip(), order))
        else:
            out.append((chunk, None))
    if not out:
        raise ValueError("no quantities given")
    return tuple(out)


def _parse_d_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"bad level-count list {echo(text)}") from None


def _parse_range(text: str) -> tuple[str, str]:
    start, sep, stop = text.partition(":")
    if not sep or not start.strip() or not stop.strip():
        raise ValueError(f"range must look like start:stop, got {echo(text)}")
    return start.strip(), stop.strip()


def _flag(convert, what: str, hint: str = ""):
    """An argparse ``type=`` that converts a flag's value and, on a ValueError, words
    argparse's message with the value cut by ``sweep.echo``: argparse shows it whole."""

    def parse(text: str):
        try:
            return convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {what}: {echo(text)}{hint}") from None

    return parse


def _choices(*names: str) -> dict:
    """``choices=`` for the help text, and a ``type=`` that refuses any other token first."""

    def pick(text: str) -> str:
        if text not in names:
            raise ValueError(text)
        return text

    hint = f" (choose from {', '.join(map(repr, names))})"
    return {"choices": names, "type": _flag(pick, "choice", hint)}


#: What each config key must hold, and the test of it.  JSON values have exact types, so a
#: bool is no int: int() would truncate 3.9 and float(true) would sweep from 1.0.
_CONFIG_KEYS = {
    "state_kind": ("'linear' or 'nonlinear'", lambda v: v in ("linear", "nonlinear")),
    "d_list": ("a list of integers", lambda v: type(v) is list and all(type(d) is int for d in v)),
    "amp_start": ("a number or a token", lambda v: type(v) in (int, float, str)),
    "amp_stop": ("a number or a token", lambda v: type(v) in (int, float, str)),
    "steps": ("an integer", lambda v: type(v) is int),
    "quantities": ("a string or a list", lambda v: type(v) in (str, list)),
    "format": ("'csv' or 'json'", lambda v: v in ("csv", "json")),
}


def _malformed(what: str, value) -> ValueError:
    return ValueError(f"malformed config: {what}, got {echo(value)}")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    import json  # loaded only where JSON is read or written: a CSV sweep never needs it
    try:
        raw = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # bad text or JSON, or nested past the limit
        raise ValueError(f"malformed config: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError("malformed config: the top level is not a JSON object")
    unknown = [key for key in raw if key not in _CONFIG_KEYS]
    if unknown:
        raise ValueError(f"malformed config: unknown key {echo(unknown[0])}")
    for key, value in raw.items():
        want, ok = _CONFIG_KEYS[key]
        if not ok(value):
            raise _malformed(f"{key} must be {want}", value)
    return raw


def _config_quantities(value) -> tuple[tuple[str, int | None], ...]:
    # Accepts "hoa:1,a3", ["hoa:1", "a3"], or [["hoa", 1], ["a3", null]].
    if isinstance(value, str):
        return _parse_quantities(value)
    out: list[tuple[str, int | None]] = []
    for item in value:
        if isinstance(item, str):
            out.extend(_parse_quantities(item))
        elif isinstance(item, list) and len(item) == 2 and isinstance(item[0], str):
            if not (item[1] is None or type(item[1]) is int):
                raise _malformed("a quantity order must be an integer or null", item[1])
            out.append(tuple(item))
        else:
            raise _malformed("a quantity must be a token or an [id, order] pair", item)
    return tuple(out)


def _build_sweep_spec(args: argparse.Namespace) -> SweepSpec:
    cfg = _load_config(args.config)
    kind = args.kind if args.kind is not None else cfg.get("state_kind")
    if kind is None:
        raise ValueError("a state kind is required (--kind or config)")
    d_list = _parse_d_list(args.d) if args.d is not None else tuple(cfg.get("d_list", ()))
    if args.range is not None:
        amp_start, amp_stop = _parse_range(args.range)
    else:
        amp_start = cfg.get("amp_start")
        amp_stop = cfg.get("amp_stop")
        if amp_start is None or amp_stop is None:
            raise ValueError("an amplitude range is required (--range or config)")
    steps = args.steps if args.steps is not None else cfg.get("steps")
    if steps is None:
        raise ValueError("a step count is required (--steps or config)")
    if args.quantities is not None:
        quantities = _parse_quantities(args.quantities)
    elif "quantities" in cfg:
        quantities = _config_quantities(cfg["quantities"])
    else:
        raise ValueError("quantities are required (--quantities or config)")
    return SweepSpec(
        state_kind=StateKind(kind),
        d_list=d_list,
        amp_start=amp_start,
        amp_stop=amp_stop,
        steps=steps,
        quantities=quantities,
        output_format=args.format if args.format is not None else cfg.get("format", "csv"),
    )


def _emit(payload, out: str | None) -> int:
    import json  # loaded only where JSON is read or written: a CSV sweep never needs it
    text = json.dumps(payload, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _build_sweep_spec(args)
    result = run_sweep(spec)  # before --out is opened: a failed sweep leaves no file
    write = write_rows_csv if spec.output_format == "csv" else write_rows_json
    with nullcontext(sys.stdout) if args.out is None else open(args.out, "w") as stream:
        write(result, stream)
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    return _emit(table1_search(args.tolerance), args.out)


def _cmd_klyshko(args: argparse.Namespace) -> int:
    amplitudes = [tok.strip() for tok in args.amplitudes.split(",") if tok.strip()]
    if not amplitudes:
        raise ValueError("at least one amplitude is required")
    return _emit(klyshko_bars(StateKind(args.kind), args.d, amplitudes), args.out)


def _cmd_report(args: argparse.Namespace) -> int:
    amp = resolve_amplitude(args.amplitude, args.d)
    battery = report(build_state(args.kind, args.d, amp))
    if any(map(math.isinf, battery["measures"].values())):  # the splitter, from d = 1031
        where = f"kind={args.kind} d={args.d} amplitude={amp!r}"
        raise NumericalError(f"the report overflows the double range at {where}")
    payload = {
        "kind": args.kind,
        "d": args.d,
        "amplitude": amp,
        **battery,
    }
    return _emit(payload, args.out)


def build_parser() -> argparse.ArgumentParser:
    # HelpFormatter would probe the terminal for every parser and argument (an
    # environment lookup and an ioctl each): take its width once, by its rule.
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2
    )
    parser = argparse.ArgumentParser(
        prog="quditnc",
        formatter_class=formatter,
        description=(
            "Finite-level coherent states: nonclassicality witness sweeps, "
            "anticlassicality searches, and per-state reports."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser(
        "sweep", help="evaluate quantities over an amplitude grid", formatter_class=formatter
    )
    sweep.add_argument("--kind", **_choices("linear", "nonlinear"))
    sweep.add_argument("--d", help="comma-separated level counts, e.g. 3,4")
    sweep.add_argument(
        "--range",
        help="amplitude range start:stop; Td/2 and Td/4 resolve per level count; "
        "write a negative start as --range=-1:1",
    )
    sweep.add_argument("--steps", type=_flag(int, "int value"))
    sweep.add_argument(
        "--quantities",
        help="comma-separated ids, ordered ones as id:order, e.g. hoa:1,a3",
    )
    sweep.add_argument("--out", help="output path (default: stdout)")
    sweep.add_argument("--format", **_choices("csv", "json"))
    sweep.add_argument("--config", help="JSON file with SweepSpec fields; flags win")
    sweep.set_defaults(handler=_cmd_sweep)

    table1 = sub.add_parser(
        "table1",
        help="search level counts for anticlassicality targets",
        formatter_class=formatter,
    )
    table1.add_argument("--tolerance", type=_flag(float, "float value"), default=0.005)
    table1.add_argument("--out")
    table1.set_defaults(handler=_cmd_table1)

    kly = sub.add_parser(
        "klyshko", help="per-level probability bars for one family", formatter_class=formatter
    )
    kly.add_argument("--kind", required=True, **_choices("linear", "nonlinear"))
    kly.add_argument("--d", required=True, type=_flag(int, "int value"))
    kly.add_argument(
        "--amplitudes", required=True, help="comma-separated values or Td/2, Td/4"
    )
    kly.add_argument("--out")
    kly.set_defaults(handler=_cmd_klyshko)

    report = sub.add_parser(
        "report", help="all witnesses and measures for one state", formatter_class=formatter
    )
    report.add_argument("--kind", required=True, **_choices("linear", "nonlinear"))
    report.add_argument("--d", required=True, type=_flag(int, "int value"))
    report.add_argument("--amplitude", required=True)
    report.add_argument("--out")
    report.set_defaults(handler=_cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:  # parse_args, with the tokens echoed cut
        parser.error(f"unrecognized arguments: {echo(' '.join(unknown))}")
    try:
        return args.handler(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        message = str(exc)
        if isinstance(exc, OSError) and exc.filename is not None:  # str(exc) shows it whole
            message = f"[Errno {exc.errno}] {exc.strerror}: {echo(exc.filename)}"
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
