"""Command-line front end: sweeps, the anticlassicality search, and reports."""

from __future__ import annotations

import argparse
import ctypes
import math
import os
import re
import sys
from contextlib import nullcontext
from typing import Callable, NamedTuple, Sequence

from .states import KINDS, NumericalError, build_state
from .sweep import (
    WRITERS,
    SweepSpec,
    cut,
    echo,
    klyshko_bars,
    report,
    resolve_amplitude,
    run_sweep,
    table1_search,
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


def _malformed(what: str, value) -> ValueError:
    return ValueError(f"malformed config: {what}, got {echo(value)}")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    import json  # loaded only where JSON is read or written: a CSV sweep never needs it
    try:
        with open(path) as file:
            raw = json.loads(file.read())
    except (ValueError, RecursionError) as exc:  # bad text or JSON, or nested past the limit
        raise ValueError(f"malformed config: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError("malformed config: the top level is not a JSON object")
    settings = {key: setting for setting in _SWEEP_SETTINGS for key in setting.keys}
    unknown = [key for key in raw if key not in settings]
    if unknown:
        raise ValueError(f"malformed config: unknown key {echo(unknown[0])}")
    for key, value in raw.items():
        want, ok = settings[key].check
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


def _one_of(names) -> tuple[str, Callable]:
    # A config key's check for a name: ``in`` on a dict would raise TypeError on a list.
    return " or ".join(map(repr, names)), lambda v: type(v) is str and v in names


class _Setting(NamedTuple):
    """A ``sweep`` flag and its ``add_argument`` options; its config keys and their check,
    what each must hold and its test (JSON values have exact types, so a bool is no int:
    int() would truncate 3.9 and float(true) would sweep from 1.0); how the flag's text, or
    else the config's values, give those keys' values; and what to say when neither is
    given, if one must be.  Every key but ``format`` is a SweepSpec field."""

    flag: str
    options: dict
    keys: tuple[str, ...] = ()
    check: tuple[str, Callable[[object], bool]] | None = None
    parse: Callable[[str], tuple] = lambda text: (text,)
    read: Callable[..., tuple] = lambda *values: values
    required: str | None = None


#: The ``sweep`` flags in help order, ``--config`` last.  Flags win over the config; its key
#: ``format`` picks the writer, and a sweep given no level counts has none.
_SWEEP_SETTINGS = (
    _Setting("--kind", {"choices": KINDS}, ("state_kind",), _one_of(KINDS),
             required="a state kind is required"),
    _Setting("--d", {"help": "comma-separated level counts, e.g. 3,4"}, ("d_list",),
             ("a list of integers", lambda v: type(v) is list and all(type(d) is int for d in v)),
             lambda text: (_parse_d_list(text),), lambda v: (tuple(v),)),
    _Setting("--range", {"help": "amplitude range start:stop; Td/2 and Td/4 resolve per level "
                                 "count; write a negative start as --range=-1:1"},
             ("amp_start", "amp_stop"),
             ("a number or a token", lambda v: type(v) in (int, float, str)), _parse_range,
             required="an amplitude range is required"),
    _Setting("--steps", {"type": int}, ("steps",), ("an integer", lambda v: type(v) is int),
             required="a step count is required"),
    _Setting("--quantities", {"help": "comma-separated ids, ordered ones as id:order, e.g. "
                                      "hoa:1,a3"},
             ("quantities",), ("a string or a list", lambda v: type(v) in (str, list)),
             lambda text: (_parse_quantities(text),), lambda v: (_config_quantities(v),),
             "quantities are required"),
    _Setting("--out", {"help": "output path (default: stdout)"}),
    _Setting("--format", {"choices": WRITERS}, ("format",), _one_of(WRITERS)),
)


def _build_sweep_spec(args: argparse.Namespace) -> tuple[SweepSpec, str]:
    cfg = _load_config(args.config)
    fields = {"d_list": ()}
    for setting in _SWEEP_SETTINGS:
        text = getattr(args, setting.flag[2:])
        if text is not None:
            fields.update(zip(setting.keys, setting.parse(text)))
        elif all(key in cfg for key in setting.keys):
            fields.update(zip(setting.keys, setting.read(*map(cfg.get, setting.keys))))
        elif setting.required:
            raise ValueError(f"{setting.required} ({setting.flag} or config)")
    output_format = fields.pop("format", "csv")
    return SweepSpec(**fields), output_format


def _output(out: str | None):
    """Where a verb writes, as a ``with`` target: the ``--out`` file, or else stdout."""
    return nullcontext(sys.stdout) if out is None else open(out, "w")


def _emit(payload, out: str | None) -> int:
    import json  # loaded only where JSON is read or written: a CSV sweep never needs it
    text = json.dumps(payload, indent=2) + "\n"
    with _output(out) as stream:
        stream.write(text)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec, output_format = _build_sweep_spec(args)
    result = run_sweep(spec)  # before --out is opened: a failed sweep leaves no file
    with _output(args.out) as stream:
        WRITERS[output_format](result, stream)
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    return _emit(table1_search(args.tolerance), args.out)


def _cmd_klyshko(args: argparse.Namespace) -> int:
    amplitudes = [tok.strip() for tok in args.amplitudes.split(",") if tok.strip()]
    if not amplitudes:
        raise ValueError("at least one amplitude is required")
    return _emit(klyshko_bars(args.kind, args.d, amplitudes), args.out)


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


class _Parser(argparse.ArgumentParser):
    """argparse's parser, for the full tree, its subparsers and a verb's own parser alike,
    with each user token in a message (a repr, or a bare word, as in "ambiguous option:
    --=...") cut as ``sweep.echo`` cuts it: argparse shows the token whole."""

    def error(self, message: str):
        token = r"'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\"|\S{41,}"
        super().error(re.sub(token, lambda m: cut(m[0]), message))


#: The flags that ``klyshko`` and ``report`` share, with their ``add_argument`` options.
_KIND = ("--kind", {"required": True, "choices": KINDS})
_D = ("--d", {"required": True, "type": int})
_OUT = ("--out", {})


#: Each verb's line in the top-level help, and its flags with their ``add_argument`` options
#: in help order.  The full tree and a verb's own parser are both built from here.
_VERBS = {
    "sweep": ("evaluate quantities over an amplitude grid", (
        *((setting.flag, setting.options) for setting in _SWEEP_SETTINGS),
        ("--config", {"help": "JSON file with keys "
                      f"{', '.join(key for setting in _SWEEP_SETTINGS for key in setting.keys)}; "
                      "flags win"}),
    )),
    "table1": ("search level counts for anticlassicality targets",
               (("--tolerance", {"type": float, "default": 0.005}), _OUT)),
    "klyshko": ("per-level probability bars for one family", (
        _KIND, _D, ("--amplitudes", {"required": True,
                                     "help": "comma-separated values or Td/2, Td/4"}), _OUT,
    )),
    "report": ("all witnesses and measures for one state",
               (_KIND, _D, ("--amplitude", {"required": True}), _OUT)),
}


def _verb_parser(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    for flag, options in _VERBS[name][1]:
        parser.add_argument(flag, **options)
    # The handler is looked up when the parser is built, so a replaced _cmd_<verb> is the one run.
    parser.set_defaults(handler=globals()[f"_cmd_{name}"])
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quditnc",
        description=(
            "Finite-level coherent states: nonclassicality witness sweeps, "
            "anticlassicality searches, and per-state reports."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (text, _) in _VERBS.items():
        _verb_parser(sub.add_parser(name, help=text), name)
    return parser


def _keep_freed_heap() -> bool:
    """Keep the heap one block frees mapped for the next, unless the environment sets malloc."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return False
    malloc_vars = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TOP_PAD_",
                   "MALLOC_MMAP_MAX_")
    if not glibc or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "") or any(
        name in os.environ for name in malloc_vars
    ):
        return False
    # glibc's own ceilings on 64-bit: M_MMAP_THRESHOLD (-3) 32 MiB, M_TRIM_THRESHOLD (-1) 64 MiB
    mallopt = ctypes.CDLL(None).mallopt
    return mallopt(-3, 32 << 20) == 1 and mallopt(-1, 64 << 20) == 1


def main(argv: Sequence[str] | None = None) -> int:
    _keep_freed_heap()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _VERBS:  # the parser that add_parser makes for the verb, and no other
        parser = _verb_parser(_Parser(prog=f"quditnc {argv[0]}"), argv[0])
        args, unknown = parser.parse_known_args(argv[1:])
    else:  # the full tree's text: its usage, its help, or its error on the verb
        args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # parse_args, with the tokens shown as a repr under the top-level usage
        build_parser().error(f"unrecognized arguments: {' '.join(unknown)!r}")
    try:
        return args.handler(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:  # json.JSONDecodeError is a ValueError
        message = str(exc) or "out of memory"  # numpy's MemoryError names the allocation
        if isinstance(exc, OSError) and exc.filename is not None:  # str(exc) shows it whole
            message = f"[Errno {exc.errno}] {exc.strerror}: {echo(exc.filename)}"
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
