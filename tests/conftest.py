import contextlib

import pytest
from hypothesis import HealthCheck, settings

from gvlam import cli, oracles, vequation

import support

settings.register_profile(
    "suite", deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")

_VALIDATE = vequation.validate


def cross_checked(theory, proof, tables=None):
    """vequation.validate, compared with oracles.reinfer_validate: both
    return equal equations, or both raise the same exception type.  Given
    the tables of the search that built the proof, validate must also
    prove the same equation, or raise the same exception type, with
    fresh tables."""
    try:
        eq = _VALIDATE(theory, proof, tables)
    except Exception as exc:
        with _checking():
            _oracle_raises(theory, proof, type(exc))
            if tables is not None:
                with pytest.raises(type(exc)):
                    _VALIDATE(theory, proof)
        raise
    with _checking():
        fresh = eq if tables is None else _VALIDATE(theory, proof)
        ref = oracles.reinfer_validate(theory, proof)
    assert fresh == eq, \
        f"validate proved {eq} on the search's tables, {fresh} on fresh"
    assert ref == eq, f"validate proved {eq}, the oracle proved {ref}"
    return eq


@contextlib.contextmanager
def _checking():
    support.cross_checking.append(True)
    try:
        yield
    finally:
        support.cross_checking.pop()


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
