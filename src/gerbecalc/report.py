"""The check record shared by the structure checkers and the CLI.

Standard library only, so importing it loads neither numpy nor the rest
of the package.  The records are named tuples: every CLI process imports
this module, and a named tuple costs a tenth of a dataclass to define.
"""

from __future__ import annotations

from collections import namedtuple


class Check(namedtuple("Check", "name residual tol ok where", defaults=(None,))):
    """One verified equation: its worst residual against ``tol``, and
    where that residual occurs (None when not located)."""

    __slots__ = ()

    @classmethod
    def worst(cls, name, tol, pairs):
        """The check over (residual, where) pairs: the largest residual and
        the first place it occurs; 0.0 and None when there are no pairs.
        A NaN is worse than any number: the first NaN fails the check.
        Residuals are compared as they are, so ``Fraction``s stay exact."""
        residual, where = 0.0, None
        for r, at in pairs:
            if r > residual or (r != r and residual == residual):
                residual, where = r, at
        return cls(name, residual, tol, residual <= tol, where)


class CheckReport(namedtuple("CheckReport", "checks")):
    """The checks (a tuple of Check) of one checker call."""

    __slots__ = ()

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def residual(self, name):
        for c in self.checks:
            if c.name == name:
                return c.residual
        raise KeyError(name)

    def as_dict(self):
        return {
            c.name: {"ok": c.ok, "max_residual": c.residual, "detail": c.where}
            for c in self.checks
        }
