"""Sparse exact multivariate polynomials.

Coefficients are Python integers (never floats); exponent vectors are tuples
aligned with an ordered variable list.  Terms iterate in descending
graded-lexicographic order, which fixes rendering and serialization so that
equal polynomials produce byte-identical output.

Values are immutable: every operation returns a fresh polynomial and the
term map is never exposed for mutation.

Inputs are validated once, at the public boundary.  ``MultiPoly(variables,
terms)`` and the named constructors check every term: exponent vectors are
int tuples of the right width with no negative entry, and coefficients are
ints.  Ring operations (``+``, ``-``, ``*``, ``**``, ``divide_by_monomial``
and ``rename``) build their results, and turn int operands of ``+``, ``*``
and ``==`` into constants, with the trusted ``MultiPoly._raw``, which
checks nothing.  Its invariant: ``variables`` is a tuple, and ``terms`` is
a fresh dict, owned by the new value, from exponent tuples of that width
to nonzero ints.  Only this module and ``catpark.series`` may call
``_raw``, read ``_terms`` or use ``_mul_into``, and only with values that
already hold the invariant.

``+`` copies the larger term map and walks the smaller one, so adding a
constant or a short polynomial to a long one costs only the short side,
whichever operand is on the left.
"""

from operator import add


def _grlex_key(exps):
    return (sum(exps), exps)


class MultiPoly:
    """A polynomial over named variables with integer coefficients."""

    __slots__ = ("variables", "_terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        width = len(self.variables)
        clean = {}
        for exps, coeff in (terms or {}).items():
            if not isinstance(exps, tuple) or len(exps) != width:
                raise ValueError(
                    f"exponent vector {exps!r} does not match variables {self.variables}"
                )
            if not all(isinstance(e, int) for e in exps):
                raise ValueError(f"non-integer exponent in {exps!r}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if not isinstance(coeff, int):
                raise ValueError(f"coefficient {coeff!r} of {exps} is not an integer")
            if coeff:
                clean[exps] = coeff
        self._terms = clean

    @classmethod
    def _raw(cls, variables, terms):
        """Trusted constructor for ring operations; see the module docstring
        for the invariant the caller must guarantee."""
        poly = object.__new__(cls)
        poly.variables = variables
        poly._terms = terms
        return poly

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls(variables)

    @classmethod
    def const(cls, variables, value):
        variables = tuple(variables)
        if not value:
            return cls(variables)
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, variables, name):
        return cls.monomial(variables, {name: 1})

    @classmethod
    def monomial(cls, variables, powers):
        """powers maps variable name -> exponent; omitted names get 0."""
        variables = tuple(variables)
        exps = [0] * len(variables)
        for name, e in powers.items():
            exps[variables.index(name)] = e
        return cls(variables, {tuple(exps): 1})

    # -- inspection ------------------------------------------------------

    def items(self):
        """Terms in descending graded-lex order."""
        return sorted(self._terms.items(), key=lambda kv: _grlex_key(kv[0]),
                      reverse=True)

    def coefficient(self, exps):
        return self._terms.get(tuple(exps), 0)

    def total_degree(self):
        return max((sum(e) for e in self._terms), default=0)

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self._coerce(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self._terms == other._terms

    def __hash__(self):
        return hash((self.variables, frozenset(self._terms.items())))

    # -- ring operations -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):  # a constant, built trusted
            return MultiPoly._raw(self.variables,
                                  {(0,) * len(self.variables): other} if other else {})
        if isinstance(other, MultiPoly):
            if other.variables != self.variables:
                raise ValueError(
                    f"variable mismatch: {self.variables} vs {other.variables}"
                )
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        big, small = self._terms, other._terms
        if len(big) < len(small):
            big, small = small, big
        terms = dict(big)
        for exps, coeff in small.items():
            new = terms.get(exps, 0) + coeff
            if new:
                terms[exps] = new
            else:
                terms.pop(exps, None)
        return MultiPoly._raw(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw(self.variables,
                              {e: -c for e, c in self._terms.items()})

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
        acc = {}
        _mul_into(acc, self._terms, other._terms)
        return MultiPoly._raw(self.variables, _nonzero(acc))

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent}")
        if exponent == 0:
            return MultiPoly.const(self.variables, 1)
        return _power(self, exponent)

    # -- substitution ----------------------------------------------------

    def substitute(self, assignment):
        """Substitute integers for a subset of variables; the result lives
        over the remaining variables (in their original order)."""
        keep = [i for i, v in enumerate(self.variables) if v not in assignment]
        values = {i: assignment[v] for i, v in enumerate(self.variables)
                  if v in assignment}
        new_vars = tuple(self.variables[i] for i in keep)
        terms = {}
        for exps, coeff in self._terms.items():
            for i, val in values.items():
                if exps[i]:
                    coeff *= val ** exps[i]
            if not coeff:
                continue
            key = tuple(exps[i] for i in keep)
            new = terms.get(key, 0) + coeff
            if new:
                terms[key] = new
            else:
                terms.pop(key, None)
        return MultiPoly(new_vars, terms)

    def rename(self, mapping_or_vars):
        """Rename variables (dict old->new) or re-embed into a wider
        variable tuple that contains every current variable."""
        if isinstance(mapping_or_vars, dict):
            new_vars = tuple(mapping_or_vars.get(v, v) for v in self.variables)
            if len(set(new_vars)) != len(new_vars):
                raise ValueError(f"renaming collapses variables: {new_vars}")
            return MultiPoly._raw(new_vars, dict(self._terms))
        new_vars = tuple(mapping_or_vars)
        if len(set(new_vars)) != len(new_vars):
            raise ValueError(f"variable tuple repeats a name: {new_vars}")
        positions = [new_vars.index(v) for v in self.variables]
        terms = {}
        for exps, coeff in self._terms.items():
            key = [0] * len(new_vars)
            for pos, e in zip(positions, exps):
                key[pos] = e
            terms[tuple(key)] = coeff
        return MultiPoly._raw(new_vars, terms)

    def divide_by_monomial(self, powers):
        """Exact division by a monomial given as name -> exponent; raises if
        some term lacks the required exponents."""
        variables = self.variables
        drop = [0] * len(variables)
        for name, e in powers.items():
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponent of {name} must be an integer >= 0, got {e!r}")
            drop[variables.index(name)] = e
        terms = {}
        for exps, coeff in self._terms.items():
            if any(e < d for e, d in zip(exps, drop)):
                raise ValueError(
                    f"term {exps} is not divisible by {powers}"
                )
            terms[tuple(e - d for e, d in zip(exps, drop))] = coeff
        return MultiPoly._raw(variables, terms)

    # -- rendering and serialization --------------------------------------

    def render(self):
        """Canonical text form: descending graded-lex, explicit * and ^."""
        if not self._terms:
            return "0"
        chunks = []
        for exps, coeff in self.items():
            factors = []
            for name, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            chunks.append(("-" if coeff < 0 else "+", body))
        sign, body = chunks[0]
        text = body if sign == "+" else f"-{body}"
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"MultiPoly({self.variables!r}, {self.render()!r})"

    def to_dict(self):
        """Stable structured form: variables plus graded-lex term list."""
        return {
            "variables": list(self.variables),
            "terms": [[list(e), c] for e, c in self.items()],
        }


def _mul_into(acc, t1, t2):
    """Add the product of term maps t1 and t2 into the term map acc.

    Summed coefficients may cancel, so acc can hold zeros; the caller drops
    them once, after its last accumulation."""
    get = acc.get
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            exps = tuple(map(add, e1, e2))
            acc[exps] = get(exps, 0) + c1 * c2


def _nonzero(acc):
    return {e: c for e, c in acc.items() if c}


def _power(base, exponent):
    """base ** exponent for exponent >= 1 by repeated squaring, for any
    value with an associative ``*``; squares only while bits remain."""
    result = None
    while True:
        if exponent & 1:
            result = base if result is None else result * base
        exponent >>= 1
        if not exponent:
            return result
        base = base * base


def complete_homogeneous(variables, degree):
    """h_d: the sum of all degree-d monomials in the given variables."""
    variables = tuple(variables)
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    width = len(variables)
    if width == 0:
        return MultiPoly.const(variables, 1 if degree == 0 else 0)
    terms = {}

    def spread(i, remaining, prefix):
        if i == width - 1:
            terms[prefix + (remaining,)] = 1
            return
        for e in range(remaining + 1):
            spread(i + 1, remaining - e, prefix + (e,))

    spread(0, degree, ())
    return MultiPoly(variables, terms)
