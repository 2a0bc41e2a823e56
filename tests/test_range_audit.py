"""Property tests over the range the API accepts: each closed form against a
reference that shares no code path with it."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from cryptononlocal.quantum import (  # noqa: E402
    ChainedSettings,
    closed_form_probs,
    joint_distribution,
    maximally_entangled,
)


@st.composite
def _settings(draw):
    d = draw(st.integers(min_value=2, max_value=8))
    n = draw(st.integers(min_value=1, max_value=6))
    phases = st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=n, max_size=n)
    return ChainedSettings(d, draw(phases), draw(phases))


# the explain phase imports modules that warn on import, and warnings are errors
@hypothesis.settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[hypothesis.Phase.explicit, hypothesis.Phase.generate, hypothesis.Phase.shrink],
)
@hypothesis.given(settings=_settings())
# a phase gap 1e-9 from -d, where the closed form's sines once lost
# their relative accuracy
@hypothesis.example(settings=ChainedSettings(3, [0.0], [-1e-9]))
def test_closed_form_probs_matches_born_rule_at_any_finite_phase(settings):
    # the Born-rule path validates its tensor, no-signaling included
    born = joint_distribution(maximally_entangled(settings.d), settings)
    assert np.abs(closed_form_probs(settings).probs - born.probs).max() <= 1e-12
