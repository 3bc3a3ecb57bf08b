import pytest
from hypothesis import HealthCheck, settings

from gvlam import cli, oracles, vequation

settings.register_profile(
    "suite", deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")

_VALIDATE = vequation.validate


def cross_checked(theory, proof):
    """vequation.validate, compared with oracles.reinfer_validate: both
    return equal equations, or both raise the same exception type."""
    try:
        eq = _VALIDATE(theory, proof)
    except Exception as exc:
        _oracle_raises(theory, proof, type(exc))
        raise
    ref = oracles.reinfer_validate(theory, proof)
    assert ref == eq, f"validate proved {eq}, the oracle proved {ref}"
    return eq


def _oracle_raises(theory, proof, cls):
    try:
        ref = oracles.reinfer_validate(theory, proof)
    except cls:
        return
    except Exception as exc:
        raise AssertionError(f"validate raised {cls.__name__}, the oracle "
                             f"raised {exc!r}") from exc
    raise AssertionError(f"validate raised {cls.__name__}, the oracle "
                         f"proved {ref}")


@pytest.fixture(autouse=True, scope="module")
def validate_against_oracle(request):
    """Every proof the suite validates, whether a test builds, parses or
    synthesizes it, goes through cross_checked."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vequation, "validate", cross_checked)
        mp.setattr(cli, "validate", cross_checked)
        if getattr(request.module, "validate", None) is _VALIDATE:
            mp.setattr(request.module, "validate", cross_checked)
        yield
