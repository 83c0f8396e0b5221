"""Drawn command lines for every verb, and drawn ``sweep --config`` files, run
in-process: each ends in exit 0, 2 or 3 with nothing raised, and an exit-0
call writes the same bytes twice.

pytest turns a RuntimeWarning into an error, so a warning fails the test too.
The heavy state builds are replaced by checks that fail the test past the
drawn sizes: a guard that lets a huge level count through cannot allocate.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from quditnc import states
from quditnc.cli import main
from quditnc.sweep import QUANTITIES

DRAWN_LEVELS = 12

KINDS = st.sampled_from(["linear", "nonlinear"])
DIMS = st.integers(-2, DRAWN_LEVELS).map(str)
HUGE = st.sampled_from([2**63, 2**64, 10**20])
NUMBERS = ["0", "1.0", "-1.3", "2.5", "1e-320", "1e308", "-1e308", "Td/2", "td/4", "TD / 4"]
AMPLITUDES = st.sampled_from([*NUMBERS, "nan", "inf", "-inf", "x", "1:2", ""])

# Half of each sweep field is drawn well formed, so that many sweeps run.
SWEEP_DIMS = st.one_of(st.integers(2, DRAWN_LEVELS).map(str), DIMS)
RANGES = st.one_of(
    st.tuples(st.sampled_from(["-1.3", "0", "1.0"]), st.sampled_from(["2.5", "Td/2", "td/4"])),
    st.tuples(AMPLITUDES, AMPLITUDES),
)
STEPS = st.one_of(st.integers(2, 5), st.integers(-1, 5))
VALID_TOKENS = st.one_of(
    st.sampled_from([ident for ident, q in QUANTITIES.items() if q.check_order is None]),
    st.tuples(st.sampled_from(["hoa", "hosps"]), st.one_of(st.integers(1, 12), HUGE)),
    st.tuples(st.just("hos"), st.sampled_from([2, 4, 6, 8])),
    st.tuples(st.just("klyshko"), st.one_of(st.integers(0, 12), HUGE)),
)
WILD_TOKENS = st.tuples(
    st.sampled_from([*QUANTITIES, "bogus"]), st.one_of(st.integers(-2, 12), HUGE)
)


def _token_text(token):
    return token if isinstance(token, str) else f"{token[0]}:{token[1]}"


TOKENS = st.one_of(VALID_TOKENS, WILD_TOKENS).map(_token_text)


@st.composite
def sweep_argv(draw):
    d = ",".join(draw(st.lists(SWEEP_DIMS, min_size=1, max_size=2)))
    start, stop = draw(RANGES)
    quantities = ",".join(draw(st.lists(TOKENS, min_size=1, max_size=3)))
    return ["sweep", "--kind", draw(KINDS), f"--d={d}", f"--range={start}:{stop}",
            "--steps", str(draw(STEPS)), f"--quantities={quantities}",
            "--format", draw(st.sampled_from(["csv", "json"]))]


@st.composite
def report_argv(draw):
    return ["report", "--kind", draw(KINDS), f"--d={draw(DIMS)}", f"--amplitude={draw(AMPLITUDES)}"]


@st.composite
def klyshko_argv(draw):
    amplitudes = ",".join(draw(st.lists(AMPLITUDES, min_size=1, max_size=3)))
    return ["klyshko", "--kind", draw(KINDS), f"--d={draw(DIMS)}", f"--amplitudes={amplitudes}"]


TOLERANCES = st.sampled_from(["0.005", "0.1", "0", "-1", "nan", "inf", "1e308", "x"])
ARGV = st.one_of(
    sweep_argv(),
    sweep_argv(),
    report_argv(),
    klyshko_argv(),
    TOLERANCES.map(lambda t: ["table1", f"--tolerance={t}"]),
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _within_the_drawn_sizes(fn):
    def checked(d, *args):
        if d > DRAWN_LEVELS:
            pytest.fail(f"a state build on {d} levels was reached")
        return fn(d, *args)

    return checked


SWEEP = ["sweep", "--range", "0.5:1", "--steps", "2"]
LONG = "x" * 5000  # a user token is echoed cut to 40 characters
DIGITS = "3" * 4000  # an order that int() parses


@settings(max_examples=200, deadline=None)
@given(ARGV)
@example([*SWEEP, "--kind", "linear", "--d", "5", "--quantities", "hosps:10000000"])
@example(["klyshko", "--kind", "linear", "--d", "0", "--amplitudes", "1"])
@example(["report", "--kind", "nonlinear", "--d", "100000", "--amplitude", "1"])
@example([*SWEEP, "--kind", "nonlinear", "--d", "100000", "--quantities", "hoa:1"])
@example(["klyshko", "--kind", "linear", "--d", "300000000", "--amplitudes", "1"])
@example([*SWEEP, "--kind", "linear", "--d", "300000000", "--quantities", "hoa:1"])
@example(["report", "--kind", "nonlinear", "--d", "5", "--amplitude", "1e308"])
@example([*SWEEP, "--kind", "nonlinear", "--d", "3", "--range=-1e308:1e308", "--quantities", "a3"])
@example([*SWEEP, "--kind", "linear", "--d", "5", "--quantities", LONG])
@example([*SWEEP, "--kind", "linear", "--d", "5", "--quantities", f"hoa:{LONG}"])
@example([*SWEEP, "--kind", "linear", "--d", "5", "--quantities", f"hos:{DIGITS}"])
@example([*SWEEP, "--kind", "linear", "--d", "5", "--quantities", f"hoa:{DIGITS},hoa:{DIGITS}"])
@example([*SWEEP, "--kind", "linear", "--d", f"5,{LONG}", "--quantities", "hoa:1"])
@example([*SWEEP, "--kind", "linear", "--d", "5", f"--range={LONG}", "--quantities", "a3"])
@example([*SWEEP, "--kind", "linear", "--d", "5", f"--range=0:{LONG}", "--quantities", "a3"])
@example(["report", "--kind", "linear", "--d", "5", f"--amplitude={LONG}"])
@example(["klyshko", "--kind", "linear", "--d", "5", f"--amplitudes={LONG}"])
@example([LONG])
@example([f"{LONG}'"])
@example(["table1", f"--help={LONG}"])
@example(["table1", f"--={LONG}"])
def test_every_command_ends_in_exit_0_2_or_3(argv):
    err = _ends_cleanly(argv, argv)
    assert len(err.encode()) < 300, err[:300]  # a user token is echoed cut short


def _ends_cleanly(argv, drawn):
    with pytest.MonkeyPatch.context() as patch:
        for name in ("he_roots", "_linear_coefficients", "_nonlinear_coefficients"):
            patch.setattr(states, name, _within_the_drawn_sizes(getattr(states, name)))
        code, out, err = _run(argv)
        assert code in (0, 2, 3), (drawn, code, err)
        assert "Traceback" not in err
        if code == 0:
            assert _run(argv) == (0, out, err)
    return err


# A config file: well formed, or with some fields of the wrong value or JSON type.
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, DRAWN_LEVELS), HUGE,
              st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)
VALID_TEXT_TOKENS = VALID_TOKENS.map(_token_text)
PAIRS = VALID_TOKENS.map(lambda token: [token, None] if isinstance(token, str) else list(token))
CONFIG_FIELDS = {
    "state_kind": KINDS,
    "d_list": st.lists(st.integers(2, DRAWN_LEVELS), min_size=1, max_size=2),
    "amp_start": st.sampled_from([0, 0.5, -1.3, "Td/4"]),
    "amp_stop": st.sampled_from([1, 2.5, "Td/2"]),
    "steps": st.integers(2, 5),
    "quantities": st.one_of(
        st.lists(VALID_TEXT_TOKENS, min_size=1, max_size=3).map(",".join),
        st.lists(st.one_of(VALID_TEXT_TOKENS, PAIRS), min_size=1, max_size=3),
    ),
    "format": st.sampled_from(["csv", "json"]),
}
# true and floats where integers belong, pairs of one or three items, junk tokens, any JSON.
WRONG_VALUES = st.one_of(
    st.sampled_from([True, False, 2.0, 3.9, -1, "yaml", "x", [], ["hoa"], [["hoa"]],
                     [["hoa", 1, 2]], [["hoa", 1.5]], [["hoa", True]], [[]], [5]]),
    st.lists(TOKENS, min_size=1, max_size=2),
    JSON_VALUES,
)


@st.composite
def config_bytes(draw):
    shape = draw(st.sampled_from(["valid", "valid", "mixed", "mixed", "top", "deep", "utf8"]))
    wrong = shape == "mixed"
    fields = {
        key: draw(WRONG_VALUES if wrong and draw(st.booleans()) else values)
        for key, values in CONFIG_FIELDS.items()
        if not wrong or draw(st.integers(0, 9))  # now and then a field is missing
    }
    if wrong:
        fields.update(draw(st.dictionaries(st.sampled_from(["fromat", "output_format", ""]),
                                           JSON_VALUES, max_size=1)))
    if shape == "top":
        return json.dumps(draw(JSON_VALUES)).encode()
    if shape == "deep":  # nested in place of one field, or as the whole file
        depth = draw(st.sampled_from([10, 300, 5000, 100_000]))
        nested = "[" * depth + "1" + "]" * depth
        key = draw(st.sampled_from([None, *CONFIG_FIELDS]))
        return (nested if key is None else json.dumps({**fields, key: 0}).replace(
            f'"{key}": 0', f'"{key}": {nested}')).encode()
    text = json.dumps(fields).encode()
    if shape == "utf8":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + text[at:]
    return text


CONFIG_FLAGS = st.sampled_from([[], ["--format", "json"], ["--steps", "2"], ["--kind", "linear"]])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config_bytes(), CONFIG_FLAGS)
@example(b"[" * 100_000 + b"]" * 100_000, [])
@example(json.dumps({"state_kind": "linear", "d_list": [3], "amp_start": 0.5, "amp_stop": 2,
                     "steps": 3, "quantities": [["hoa"]]}).encode(), [])
@example(b'{"state_kind": "linear", "format": ' + b"[" * 900 + b"]" * 900 + b"}", [])
@example(b'{"state_kind": 3.9}', [])
def test_every_config_ends_in_exit_0_2_or_3(tmp_path, text, flags):
    cfg = tmp_path / "sweep.json"
    cfg.write_bytes(text)
    err = _ends_cleanly(["sweep", "--config", str(cfg), *flags], text[:200])
    assert len(err.encode()) < 300, err[:300]  # a config value is echoed cut short
