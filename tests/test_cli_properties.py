"""Property tests of the CLI's exit-code contract over generated flag values.

Exit codes are 0 (success), 2 (configuration error) or 3 (solver failure)
for every argv; successful reports hold finite numbers, non-negative key
rates, shrinking factors in [0, 1] and collision probabilities in [1/2, 1].
"""

import contextlib
import io
import json
import math

from hypothesis import event, given, settings
from hypothesis import strategies as st

from dpsqkd.cli import main

PULSES = st.sampled_from([-1, 2, 3, 7, 13])


def flag(name: str, values: st.SearchStrategy) -> st.SearchStrategy:
    """``--name=value``, or nothing so that the default applies."""
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v!r}"]))


def in_and_out(lo: float, hi: float, *outside: float) -> st.SearchStrategy:
    """Mostly floats of the physical domain [lo, hi], sometimes values outside it."""
    inside = st.floats(lo, hi)
    return st.one_of(inside, inside, st.sampled_from(outside))


@st.composite
def channel_argv(draw) -> list[str]:
    argv = [draw(st.sampled_from(["keyrate", "wcs"]))]
    start = draw(in_and_out(0.0, 100.0, -20.0))
    stop = start + draw(in_and_out(0.0, 100.0, -5.0, math.inf))
    for name, values in [
        ("loss-db-per-km", in_and_out(0.0, 1.0, -0.1, 50.0)),
        ("dark-count-prob", in_and_out(0.0, 1e-3, -1e-6, 0.0, 1.5)),
        ("detector-efficiency", in_and_out(1e-3, 1.0, 0.0, 1.1)),
        ("baseline-error", in_and_out(0.0, 0.1, -0.01, 0.6)),
        ("start-km", st.just(start)),
        ("stop-km", st.just(stop)),
        ("step-km", in_and_out(5.0, 50.0, 0.0, -1.0, 1e-9)),
        ("n-pulses", PULSES),
    ]:
        argv += draw(flag(name, values))
    if argv[0] == "keyrate":
        argv += draw(st.sampled_from([[], ["--finite-size=n=1e6,k=1e4,eps=1e-9"]]))
    return argv


def run(argv: list[str]) -> dict | None:
    """The parsed report of a successful run, None after an error exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    event(f"{argv[0]} exit {code}")
    return json.loads(out.getvalue()) if code == 0 else None


def check_values(doc) -> None:
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        if isinstance(value, (dict, list)):
            check_values(value)
        elif isinstance(value, float):
            assert math.isfinite(value), key
            if str(key).startswith("r_"):
                assert value >= 0.0, key
            elif str(key).startswith("tau_"):
                assert 0.0 <= value <= 1.0, key
            elif key == "collision_probability":
                assert 0.5 <= value <= 1.0, key


@settings(max_examples=80)
@given(argv=channel_argv())
def test_channel_commands_keep_exit_contract(argv):
    doc = run(argv)
    if doc is not None:
        check_values(doc)


@settings(max_examples=30)
@given(n=st.integers(-10, 10 ** 7), k=st.integers(-10, 10 ** 5),
       eps=st.floats(-0.5, 1.5), e_obs=st.floats(-0.1, 1.1))
def test_finite_size_keeps_exit_contract(n, k, eps, e_obs):
    doc = run(["finite-size", f"--params=n={n},k={k},eps={eps!r}", f"--e-obs={e_obs!r}"])
    if doc is not None:
        check_values(doc)


@given(n=PULSES)
def test_med_keeps_exit_contract(n):
    doc = run(["med", f"--n={n}"])
    if doc is not None:
        check_values(doc)
