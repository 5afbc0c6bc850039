"""Power series in x truncated at a fixed order, with polynomial coefficients.

All arithmetic is exact modulo x^(N+1).  Coefficients are MultiPoly values
over a shared variable tuple (possibly empty, for plain integer series).

Inputs are validated once, at the public boundary: ``TruncatedSeries(
variables, coeffs, order)`` checks the order and that every coefficient is
an int or a MultiPoly over the series variables.  Ring operations build
their results with the trusted ``TruncatedSeries._raw``, which checks
nothing.  Its invariant: ``variables`` is a tuple, ``order`` an int >= 0,
and ``coeffs`` a tuple of exactly order+1 MultiPoly values over
``variables``.  Only this module may call it.  Products accumulate each
output coefficient into one term map through ``polynomials._mul_into``,
whose keys are packed exponent vectors (see ``catpark.polynomials``), and
wrap it with ``MultiPoly._raw`` once, under that module's invariant, after
``polynomials._nonzero`` has dropped its zeros.  Each product bounds its
keys' total degree once, before its loop: the sum of each factor's
largest total degree over all its coefficients, and for a reciprocal the
order times its input's largest.  ``_nonzero`` scans a term map's guard
bits only when that bound passes ``polynomials.MAX_EXPONENT``, so a
product or reciprocal whose exponents would pass it still raises
``ValueError``.
"""

from catpark.polynomials import (MultiPoly, _LAYOUTS, _degree, _mul_into,
                                 _nonzero, _power)


class TruncatedSeries:
    """Coefficients of x^0 .. x^N over a fixed coefficient ring."""

    __slots__ = ("order", "variables", "coeffs")

    def __init__(self, variables, coeffs, order=None):
        self.variables = tuple(variables)
        coeffs = list(coeffs)
        if order is None:
            order = len(coeffs) - 1
        if not isinstance(order, int):
            raise ValueError(f"order must be an integer, got {order!r}")
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        zero = MultiPoly._raw(self.variables, {})
        coeffs = coeffs[: order + 1]
        coeffs += [zero] * (order + 1 - len(coeffs))
        fixed = []
        for c in coeffs:
            if isinstance(c, int):
                c = MultiPoly.const(self.variables, c)
            elif not isinstance(c, MultiPoly):
                raise ValueError(
                    f"coefficient {c!r} is neither an integer nor a MultiPoly"
                )
            if c.variables != self.variables:
                raise ValueError(
                    f"coefficient variables {c.variables} != series variables "
                    f"{self.variables}"
                )
            fixed.append(c)
        self.order = order
        self.coeffs = tuple(fixed)

    @classmethod
    def _raw(cls, variables, coeffs, order):
        """Trusted constructor for ring operations; see the module docstring
        for the invariant the caller must guarantee."""
        series = object.__new__(cls)
        series.variables = variables
        series.coeffs = coeffs
        series.order = order
        return series

    # -- constructors ----------------------------------------------------

    @classmethod
    def one(cls, variables, order):
        return cls(variables, [1], order)

    @classmethod
    def from_function(cls, variables, order, fn):
        """Coefficient of x^j taken from fn(j) (int or MultiPoly)."""
        return cls(variables, [fn(j) for j in range(order + 1)], order)

    # -- inspection ------------------------------------------------------

    def coefficient(self, j):
        if not 0 <= j <= self.order:
            raise ValueError(f"index {j} outside 0..{self.order}")
        return self.coeffs[j]

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.variables == other.variables
                and self.order == other.order
                and self.coeffs == other.coeffs)

    def __repr__(self):
        inner = ", ".join(c.render() for c in self.coeffs[:4])
        tail = ", ..." if self.order > 3 else ""
        return f"TruncatedSeries(order={self.order}, [{inner}{tail}])"

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, MultiPoly)):
            return TruncatedSeries(self.variables, [other], self.order)
        if isinstance(other, TruncatedSeries):
            if other.variables != self.variables:
                raise ValueError(
                    f"variable mismatch: {self.variables} vs {other.variables}"
                )
            if other.order != self.order:
                raise ValueError(
                    f"order mismatch: {self.order} vs {other.order}"
                )
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return TruncatedSeries._raw(
            self.variables,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
            self.order,
        )

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._raw(self.variables,
                                    tuple(-c for c in self.coeffs), self.order)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a = [c._terms for c in self.coeffs]
        b = [c._terms for c in other.coeffs]
        layout = _LAYOUTS[len(self.variables)]
        guard = layout.guard
        degree = _degree(a, layout.dshift) + _degree(b, layout.dshift)
        out = []
        for n in range(self.order + 1):
            acc = {}
            for i in range(n + 1):
                if a[i] and b[n - i]:
                    _mul_into(acc, a[i], b[n - i])
            out.append(MultiPoly._raw(self.variables,
                                      _nonzero(acc, guard, degree)))
        return TruncatedSeries._raw(self.variables, tuple(out), self.order)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent}")
        if exponent == 0:
            return TruncatedSeries.one(self.variables, self.order)
        return _power(self, exponent)

    def reciprocal(self):
        """1/self; the constant term must be 1.

        With s = self, inv[j] = sum over k = 1..j of (-s[k]) * inv[j - k]."""
        one = {0: 1}  # the key of a constant is 0 at every width
        if self.coeffs[0]._terms != one:
            raise ValueError(
                f"reciprocal requires constant term 1, got {self.coeffs[0].render()}"
            )
        neg = [{k: -v for k, v in c._terms.items()} for c in self.coeffs]
        layout = _LAYOUTS[len(self.variables)]
        guard = layout.guard
        # inv[j] sums products of at most j of the input's coefficients, so
        # no product below passes the order times their largest degree
        degree = self.order * _degree(neg, layout.dshift)
        inv = [one]
        for j in range(1, self.order + 1):
            acc = {}
            for k in range(1, j + 1):
                if neg[k] and inv[j - k]:
                    _mul_into(acc, neg[k], inv[j - k])
            inv.append(_nonzero(acc, guard, degree))
        return TruncatedSeries._raw(
            self.variables,
            tuple(MultiPoly._raw(self.variables, t) for t in inv),
            self.order,
        )

    def shifted(self, k):
        """Multiply by x^k (coefficients above the order fall off)."""
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"shift must be an integer >= 0, got {k!r}")
        zero = MultiPoly._raw(self.variables, {})
        return TruncatedSeries._raw(
            self.variables,
            ((zero,) * min(k, self.order + 1) + self.coeffs)[: self.order + 1],
            self.order,
        )

    def scale_arg(self, factor):
        """Substitute x -> factor * x for a coefficient-ring monomial factor;
        the coefficient of x^j picks up factor^j."""
        if isinstance(factor, int):
            factor = MultiPoly.const(self.variables, factor)
        elif not isinstance(factor, MultiPoly):
            raise ValueError(f"argument factor {factor!r} is neither an integer "
                             f"nor a MultiPoly")
        if factor.variables != self.variables:
            raise ValueError(
                f"factor variables {factor.variables} != {self.variables}"
            )
        if len(factor) > 1:
            raise ValueError(f"argument factor must be a monomial, got "
                             f"{factor.render()}")
        out = [self.coeffs[0]]
        power = factor
        for c in self.coeffs[1:]:
            out.append(c * power)
            power = power * factor
        return TruncatedSeries._raw(self.variables, tuple(out), self.order)
