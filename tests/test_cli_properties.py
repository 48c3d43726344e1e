"""Property tests of the CLI's exit-code contract over generated flag values.

Exit codes are 0 (success), 2 (configuration error) or 3 (solver failure)
for every argv; successful reports hold finite numbers, non-negative key
rates, shrinking factors in [0, 1], click probabilities in (0, 1] and
collision probabilities in [1/2, 1]; NaN and infinity never reach a report,
which must parse as strict JSON.
"""

import contextlib
import io
import json
import math
import warnings

from hypothesis import event, given, settings
from hypothesis import strategies as st

from dpsqkd.cli import main

PULSES = st.sampled_from([-1, 2, 3, 7, 13])
NON_FINITE = (math.nan, math.inf, -math.inf)


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
        ("loss-db-per-km", in_and_out(0.0, 1.0, -0.1, 50.0, *NON_FINITE)),
        # with an efficiency near 1, dark counts of 0.05..1 push the click
        # probability near the source above 1
        ("dark-count-prob", in_and_out(0.0, 1e-3, -1e-6, 0.0, 0.05, 0.5, 1.0, 1.5)),
        ("detector-efficiency", in_and_out(1e-3, 1.0, 0.0, 1.0, 1.1)),
        ("baseline-error", in_and_out(0.0, 0.1, -0.01, 0.6)),
        ("f-ec", in_and_out(1.0, 2.0, 0.9, *NON_FINITE)),
        ("start-km", st.just(start)),
        ("stop-km", st.just(stop)),
        ("step-km", in_and_out(5.0, 50.0, 0.0, -1.0, 1e-9)),
        ("n-pulses", PULSES),
    ]:
        argv += draw(flag(name, values))
    if argv[0] == "keyrate":
        argv += draw(st.sampled_from([[], ["--finite-size=n=1e6,k=1e4,eps=1e-9"]]))
    else:
        argv += draw(flag("mu", in_and_out(0.01, 1.0, 0.0, -0.1, 2.5, *NON_FINITE)))
    return argv


@st.composite
def boundary_argv(draw) -> list[str]:
    """A one-point sweep whose channel sits on or past a physical boundary:
    non-finite parameters, or a click probability of exactly or above 1."""
    command = draw(st.sampled_from(["keyrate", "wcs"]))
    eff, dark = draw(st.sampled_from([(0.1, 1e-6), (1.0, 0.0), (0.5, 0.5),
                                      (1.0, 1e-6), (1.0, 0.5), (1.0, 1.0)]))
    argv = [command, "--stop-km=0", f"--detector-efficiency={eff!r}",
            f"--dark-count-prob={dark!r}"]
    argv += draw(flag("f-ec", st.sampled_from([1.0, 1.16, *NON_FINITE])))
    argv += draw(flag("loss-db-per-km", st.sampled_from([0.0, 0.2, *NON_FINITE])))
    if command == "keyrate":
        argv.append("--attacks=ir")
    else:
        argv += draw(flag("mu", st.sampled_from([0.4, 1.0, *NON_FINITE])))
    return argv


def _reject_constant(name: str):
    raise AssertionError(f"report holds the non-JSON constant {name}")


HIGH_MU = "mean photon number above 1 leaves the weak-coherent regime"


def run(argv: list[str]) -> dict | None:
    """The parsed report of a successful run, None after an error exit.

    The only warning a run may raise is the weak-coherent-regime one, and
    it is raised exactly when ``wcs`` gets a finite ``--mu`` above 1.
    """
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        code = main(argv)
    mu = [float(a.partition("=")[2]) for a in argv if a.startswith("--mu=")]
    high = argv[0] == "wcs" and any(math.isfinite(v) and v > 1.0 for v in mu)
    assert [str(w.message) for w in caught] == ([HIGH_MU] if high else []), argv
    assert code in (0, 2, 3), (argv, err.getvalue())
    event(f"{argv[0]} exit {code}")
    return json.loads(out.getvalue(), parse_constant=_reject_constant) if code == 0 else None


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
            elif key == "p_click":
                assert 0.0 < value <= 1.0, key


@settings(max_examples=80)
@given(argv=channel_argv())
def test_channel_commands_keep_exit_contract(argv):
    doc = run(argv)
    if doc is not None:
        check_values(doc)


@settings(max_examples=40)
@given(argv=boundary_argv())
def test_boundary_channels_keep_exit_contract(argv):
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
