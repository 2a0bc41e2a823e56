"""Property test: no JSON value given to ``verify --input`` ends in a traceback."""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from cryptononlocal.cli import (  # noqa: E402
    EXIT_BAD_INPUT,
    EXIT_IO,
    EXIT_OK,
    EXIT_VERIFY_FAIL,
    main,
)

# integers past 2**1024 do not fit a float; NaN and Infinity are written as
# the bare tokens json reads back
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**1100), max_value=2**1100)
    | st.floats()
    | st.text(max_size=4)
)
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=40,
)
_sizes = st.integers(min_value=-1, max_value=3) | _json
_fixtures = _json | st.fixed_dictionaries({"d": _sizes, "n": _sizes, "probs": _json})


@pytest.fixture(scope="module")
def fixture_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fixture.json"


# the explain phase imports modules that warn on import, and warnings are errors
@hypothesis.settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[hypothesis.Phase.explicit, hypothesis.Phase.generate, hypothesis.Phase.shrink],
)
@hypothesis.given(payload=_fixtures)
@hypothesis.example(payload={"d": 2, "n": 2, "probs": 2**1100})
def test_verify_input_exits_2_or_4_without_a_traceback(fixture_path, payload):
    fixture_path.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--suite", "theorem1", "--input", str(fixture_path)])
    if code in (EXIT_OK, EXIT_VERIFY_FAIL):
        # a JSON value that happens to be a valid no-signaling distribution
        assert out.getvalue().startswith("theorem1 fixture: ")
    else:
        assert code in (EXIT_BAD_INPUT, EXIT_IO)
        assert err.getvalue().startswith("error: ")
        assert out.getvalue() == ""
