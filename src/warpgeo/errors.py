"""Exception hierarchy shared by all warpgeo modules.

Exit-code contract for the CLI: 0 success, 1 check failure,
2 usage/configuration error, 3 numerical/domain error.  Any WarpgeoError
raised while a scene file loads is re-raised as a SceneError (exit 2), an
EvalDomainError included; the same failure met while a loaded scene is
evaluated exits 3.  Whether a number left the float range is decided by
value, by the checks that read it, under the one `range_policy`.
"""

from contextlib import nullcontext
from contextvars import ContextVar

import numpy as np

_INSIDE = ContextVar("warpgeo_range_policy", default=False)
_NESTED = nullcontext()


def range_policy():
    """The context of every public call that does float arithmetic: only
    the outermost enters np.errstate(all="ignore"), once per outside call."""
    return _NESTED if _INSIDE.get() else _Outermost()


class _Outermost:
    def __enter__(self):
        self._token, self._state = _INSIDE.set(True), np.errstate(all="ignore")
        self._state.__enter__()

    def __exit__(self, *exc):
        _INSIDE.reset(self._token)
        self._state.__exit__(*exc)


def first_failing(ok, *values):
    """The one lookup of every per-point refusal: None if the check's mask
    `ok` (a bool at one point, an array over a batch) holds everywhere, else
    `values` (floats at one point, or arrays that broadcast to the mask) as
    floats at the first point where it does not, in flat order.  At one
    point the mask is tested by its truth value, with no numpy call."""
    if not isinstance(ok, np.ndarray):
        return None if ok else [float(v) for v in values]
    if ok.all():
        return None
    i = ok.argmin()
    return [float(np.broadcast_to(v, ok.shape).flat[i]) for v in values]


class WarpgeoError(Exception):
    exit_code = 1


class ConfigError(WarpgeoError):
    """Invalid construction arguments (bad dimensions, orders, models)."""

    exit_code = 2


class UsageError(WarpgeoError):
    """Operands or call patterns that can never be valid (shape mismatch,
    unbound identifier, empty point list)."""

    exit_code = 2


class SceneError(ConfigError):
    """Malformed or inconsistent scene file."""


class ExprSyntaxError(SceneError):
    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.expected = frozenset(expected)


class EvalDomainError(WarpgeoError):
    """A numeric operation left its domain (log of a non-positive value,
    warp factor <= 0, chart boundary)."""

    exit_code = 3

    def __init__(self, message, value=None, span=None):
        super().__init__(message)
        self.value = value
        self.span = span


class SingularJetError(EvalDomainError):
    """Division by a jet whose value coefficient is (numerically) zero."""


class DegenerateImmersionError(EvalDomainError):
    """Induced metric not invertible at the queried point."""

    def __init__(self, message, det=None):
        super().__init__(message, value=det)
        self.det = det
