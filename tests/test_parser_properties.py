"""Property tests: every parser turns arbitrary text into a value or a
``HoromuError``, never another exception; accepted observables are finite."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from horomu import cli
from horomu.errors import HoromuError

# Characters of the mini-languages, so that generated text reaches past the
# prefixes into the value parsers, mixed with arbitrary text.
GRAMMAR = st.text(alphabet="0123456789+-./:;,=_ eEijnaftxyoqrsbpdwhlumcvg()*",
                  max_size=40)
ANY = st.one_of(st.text(max_size=40), GRAMMAR)


def prefixed(*prefixes):
    return st.one_of(ANY, st.builds(str.__add__, st.sampled_from(prefixes), ANY))


def only_horomu_errors(parse, spec):
    try:
        return parse(spec)
    except HoromuError:
        return None


OBS_PREFIXES = ("obs:const:c=", "obs:bump:y0=", "obs:bump:width=", "obs:step:",
                "obs:windy:y0=2,width=", "obs:windy:", "obs:")
# Observable specs with one numeric parameter, special float spellings included.
NUMBERS = st.one_of(st.sampled_from(["nan", "inf", "-inf", "1e400", "0", "-0", "-1"]),
                    st.floats().map(repr))
OBS_PARAMS = st.builds("obs:{}={}".format,
                       st.sampled_from(["const:c", "bump:y0", "bump:width", "step:y0",
                                        "step:width", "windy:y0", "windy:width"]),
                       NUMBERS)


@given(prefixed("point:identity", "point:lower:t=", "point:upper:t=",
                "point:matrix:", "lower:t=", "matrix:1;0;"))
def test_parse_point(spec):
    only_horomu_errors(cli.parse_point, spec)


@given(st.one_of(prefixed(*OBS_PREFIXES), OBS_PARAMS))
def test_parse_observable(spec):
    only_horomu_errors(cli.parse_observable, spec)


@given(st.one_of(OBS_PARAMS, st.builds(str.__add__, st.sampled_from(OBS_PREFIXES), ANY)))
def test_accepted_observables_are_finite(spec):
    f = only_horomu_errors(cli.parse_observable, spec)
    if f is None:
        return
    x = np.array([0.0, 0.3, -0.5, 0.1])
    y = np.array([1.0, 2.5, 0.9, 1e3])
    theta = np.array([0.0, 1.0, 3.0, 6.0])
    with np.errstate(all="ignore"):
        vals = np.asarray(f.eval(x, y, theta), float)
    assert np.isfinite(vals).all(), (spec, vals)


@given(st.one_of(NUMBERS.map("const:{}".format), prefixed("const:", "exp:theta=", "exp:", "horocycle:point:identity:obs:",
                "horocycle:point:lower:t=", "horocycle:")))
def test_parse_sequence(spec):
    if spec.startswith("table:"):  # reads a file
        return
    only_horomu_errors(lambda s: cli.parse_sequence(s, 20), spec)


@given(prefixed("sqrt:", "surd:", "surd:1,", "inf", "golden", "e", "1/"))
def test_parse_descriptor(spec):
    only_horomu_errors(cli.parse_descriptor, spec)


@given(prefixed("2:3,", "2:", ","))
def test_parse_excluded(spec):
    only_horomu_errors(cli.parse_excluded, spec)


@pytest.mark.parametrize("count,sep", [(None, ","), (2, ":"), (3, ",")])
@given(spec=ANY)
def test_ints(spec, count, sep):
    only_horomu_errors(lambda s: cli._ints(s, "test list", count, sep), spec)
