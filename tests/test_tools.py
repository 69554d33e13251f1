import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_values.py"
_spec = importlib.util.spec_from_file_location("same_values", _PATH)
same_values = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_values)

REQ = {"kind": "mpl", "args": [[2], "0.5"], "bits": 128}


def _result(value_exp, claim_exp):
    """3/4 + 2^value_exp (no offset for None) with claim 2^claim_exp (no
    claim for None), as exact [mantissa, exponent] pairs."""
    value = [3 << 198, -200]
    if value_exp is not None:
        value[0] += 1 << (200 + value_exp)
    claim = None if claim_exp is None else [1, claim_exp]
    return {"value": value, "abs_error": claim}


@pytest.mark.parametrize("a, b, fails, moved", [
    # identical
    (_result(None, -108), _result(None, -108), False, False),
    # the value moved by 2^-110, more than 2^-120 relative but within the
    # two claims, 2^-108 + 2^-109; the claim halved
    (_result(-110, -108), _result(None, -109), False, True),
    # the value moved by 2^-100, beyond both claims
    (_result(-100, -108), _result(None, -108), True, False),
    # an error in one tree only
    ({"error": "ToleranceNotReached"}, _result(None, -108), True, False),
    # no claims (a finite sum): only the 2^-(bits - 8) relative rule
    (_result(-110, None), _result(None, None), True, False),
])
def test_compare(a, b, fails, moved):
    units, ratio, failure = same_values.compare(REQ, a, b)
    assert (failure is not None) is fails
    assert (ratio is not None and ratio > same_values.CLAIM_RATIO) is moved
    if a == b:
        assert units == 0
