"""Sparse exact multivariate polynomials.

Coefficients are Python integers (never floats); exponent vectors are tuples
aligned with an ordered variable list.  Terms iterate in descending
graded-lexicographic order, which fixes rendering and serialization so that
equal polynomials produce byte-identical output.

Values are immutable: every operation returns a fresh polynomial and the
term map is never exposed for mutation.

The term map is keyed by one packed int per exponent vector, so the key of
a product term is the sum of its factors' keys.  Each variable owns a
32-bit field, the first variable the highest one; with two or more
variables the total degree sits above every field.  Int order is then
graded-lex order, the key of a constant is 0 at every width, and a
polynomial in one variable is keyed by its exponent.  ``_LAYOUTS[width]``
holds the layout of one width; its ``pack`` and ``unpack`` turn exponent
vectors into keys and back.

Every exponent is at most ``MAX_EXPONENT`` = 2**31 - 1, so the top bit of
each field is a guard bit: a sum of two fields never carries into the next
field, and it sets the guard bit exactly when it passes the limit.  The
guard runs wherever keys are made.  The validating constructor refuses an
exponent above the limit.  Every product, power and
``TruncatedSeries.reciprocal`` bounds the total degree of the keys it
makes from its factors' largest total degrees (a key's total degree is
``key >> dshift``).  No field exceeds its key's total degree, so
``_nonzero``, through which each passes its term maps, runs
``_scan_guard`` over the keys, refusing one with a guard bit set, only
when that bound passes the limit.  ``divide_by_monomial`` refuses a
quotient key that is negative or has a guard bit set, which is exactly a
field that borrowed.  Each raises ``ValueError``; no exponent ever
carries silently.

Inputs are validated once, at the public boundary.  ``MultiPoly(variables,
terms)`` and the named constructors check every term: exponent vectors are
int tuples of the right width with entries in 0..MAX_EXPONENT, and
coefficients are ints.  Ring operations (``+``, ``-``, ``*``, ``**``,
``substitute``, ``divide_by_monomial`` and ``rename``) build their results,
and turn int operands of ``+``, ``*`` and ``==`` into constants, with the
trusted ``MultiPoly._raw``, which checks nothing.  Its invariant:
``variables`` is a tuple, and ``terms`` is a fresh dict, owned by the new
value, from packed keys of that width to nonzero ints.  Only this module
and ``catpark.series`` may call ``_raw``, read ``_terms`` or use
``_LAYOUTS``, ``_degree``, ``_mul_into`` and ``_nonzero``, and only with
values that already hold the invariant.  ``_nonzero`` hands back the very
map it was given when no coefficient cancelled, so a product's fresh
accumulator becomes its result's term map without a copy.

``+`` copies the larger term map and walks the smaller one, so adding a
constant or a short polynomial to a long one costs only the short side,
whichever operand is on the left.
"""

from functools import reduce
from itertools import repeat
from operator import or_
from struct import Struct, error as StructError

FIELD_BITS = 32  # the width of the struct format "I"
MAX_EXPONENT = (1 << FIELD_BITS - 1) - 1
_FIELD = (1 << FIELD_BITS) - 1
_INTS = repeat(int)  # the second argument of map(isinstance, exps, _INTS)


class _Layout:
    """The packed-key layout of one number of variables."""

    __slots__ = ("width", "shifts", "guard", "fields", "dshift", "codec")

    def __init__(self, width):
        self.width = width
        # the shift of each variable's field, first variable highest
        self.shifts = tuple(FIELD_BITS * i for i in reversed(range(width)))
        self.guard = sum(1 << s + FIELD_BITS - 1 for s in self.shifts)
        self.fields = (1 << FIELD_BITS * width) - 1
        self.dshift = FIELD_BITS * width if width > 1 else 0
        self.codec = Struct(f">{width}I")

    def pack(self, exps):
        """The key of an exponent vector whose entries are in range."""
        key = int.from_bytes(self.codec.pack(*exps), "big")
        return key | sum(exps) << self.dshift if self.dshift else key

    def unpack(self, key):
        return self.codec.unpack(
            (key & self.fields).to_bytes(4 * self.width, "big"))


class _Layouts(dict):
    """width -> _Layout, each built on its first use."""

    def __missing__(self, width):
        layout = self[width] = _Layout(width)
        return layout


_LAYOUTS = _Layouts()


class MultiPoly:
    """A polynomial over named variables with integer coefficients."""

    __slots__ = ("variables", "_terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        width = len(self.variables)
        layout = _LAYOUTS[width]
        pack, guard, dshift = layout.codec.pack, layout.guard, layout.dshift
        from_bytes = int.from_bytes
        clean = {}
        for exps, coeff in (terms or {}).items():
            if not isinstance(exps, tuple) or len(exps) != width:
                raise ValueError(
                    f"exponent vector {exps!r} does not match variables {self.variables}"
                )
            if not all(map(isinstance, exps, _INTS)):
                raise ValueError(f"non-integer exponent in {exps!r}")
            try:  # layout.pack, inlined
                key = from_bytes(pack(*exps), "big")
            except StructError:  # an entry below 0 or at least 2**32
                key = guard
            if key & guard:
                if min(exps) < 0:
                    raise ValueError(f"negative exponent in {exps}")
                raise ValueError(f"exponent above {MAX_EXPONENT} in {exps}")
            if not isinstance(coeff, int):
                raise ValueError(f"coefficient {coeff!r} of {exps} is not an integer")
            if coeff:
                clean[key | sum(exps) << dshift if dshift else key] = coeff
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
        terms = self._terms
        keys = sorted(terms, reverse=True)
        if len(self.variables) == 1:  # the key is the exponent
            return [((key,), terms[key]) for key in keys]
        layout = _LAYOUTS[len(self.variables)]
        unpack, fields, size = layout.codec.unpack, layout.fields, 4 * layout.width
        return [(unpack((key & fields).to_bytes(size, "big")), terms[key])
                for key in keys]

    def coefficient(self, exps):
        """The coefficient of an exponent vector; 0 for one that no term
        can have (wrong width, or an entry that is not an int in range)."""
        exps = tuple(exps)
        layout = _LAYOUTS[len(self.variables)]
        if len(exps) != layout.width or not all(map(isinstance, exps, _INTS)):
            return 0
        if exps and not 0 <= min(exps) <= max(exps) <= MAX_EXPONENT:
            return 0
        return self._terms.get(layout.pack(exps), 0)

    def total_degree(self):
        return max(self._terms, default=0) >> _LAYOUTS[len(self.variables)].dshift

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
            return MultiPoly._raw(self.variables, {0: other} if other else {})
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
        for key, coeff in small.items():
            new = terms.get(key, 0) + coeff
            if new:
                terms[key] = new
            else:
                terms.pop(key, None)
        return MultiPoly._raw(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw(self.variables,
                              {k: -c for k, c in self._terms.items()})

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
        a, b = self._terms, other._terms
        if not (a and b):
            return MultiPoly._raw(self.variables, {})
        layout = _LAYOUTS[len(self.variables)]
        acc = {}
        _mul_into(acc, a, b)
        # the largest key of a term map has its largest total degree
        degree = (max(a) >> layout.dshift) + (max(b) >> layout.dshift)
        return MultiPoly._raw(self.variables,
                              _nonzero(acc, layout.guard, degree))

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
        variables = self.variables
        layout = _LAYOUTS[len(variables)]
        drops = []  # (field shift, value) of each substituted variable
        moves = {}  # right shift -> mask of the kept fields that move by it
        for i, (name, shift) in enumerate(zip(variables, layout.shifts)):
            if name in assignment:
                value = assignment[name]
                if not isinstance(value, int):
                    raise ValueError(f"value {value!r} for {name} is not an integer")
                drops.append((shift, value))
            else:  # down one field per substituted variable below it
                down = FIELD_BITS * sum(v in assignment for v in variables[i + 1:])
                moves[down] = moves.get(down, 0) | _FIELD << shift
        new_vars = tuple(v for v in variables if v not in assignment)
        dshift, new_dshift = layout.dshift, _LAYOUTS[len(new_vars)].dshift
        moves = moves.items()
        terms = {}
        for key, coeff in self._terms.items():
            dropped = 0
            for shift, value in drops:
                e = key >> shift & _FIELD
                if e:
                    coeff *= value ** e
                    dropped += e
            if not coeff:
                continue
            new_key = 0
            for down, mask in moves:
                new_key |= (key & mask) >> down
            if new_dshift:
                new_key |= ((key >> dshift) - dropped) << new_dshift
            new = terms.get(new_key, 0) + coeff
            if new:
                terms[new_key] = new
            else:
                terms.pop(new_key, None)
        return MultiPoly._raw(new_vars, terms)

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
        unpack = _LAYOUTS[len(self.variables)].unpack
        pack = _LAYOUTS[len(new_vars)].pack
        terms = {}
        for key, coeff in self._terms.items():
            exps = [0] * len(new_vars)
            for pos, e in zip(positions, unpack(key)):
                exps[pos] = e
            terms[pack(exps)] = coeff
        return MultiPoly._raw(new_vars, terms)

    def divide_by_monomial(self, powers):
        """Exact division by a monomial given as name -> exponent; raises if
        some term lacks the required exponents."""
        variables = self.variables
        layout = _LAYOUTS[len(variables)]
        drop = [0] * len(variables)
        for name, e in powers.items():
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponent of {name} must be an integer >= 0, got {e!r}")
            drop[variables.index(name)] = e
        fits = max(drop, default=0) <= MAX_EXPONENT  # else it divides no term
        divisor = layout.pack(drop) if fits else 0
        guard = layout.guard
        terms = {}
        for key, coeff in self._terms.items():
            quotient = key - divisor  # a field that borrows sets its guard bit
            if not fits or quotient < 0 or quotient & guard:
                raise ValueError(
                    f"term {layout.unpack(key)} is not divisible by {powers}"
                )
            terms[quotient] = coeff
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


def _degree(maps, dshift):
    """The largest total degree of a key in the term maps, 0 if they hold
    none.  Keys run in graded-lex order, so the largest key has it."""
    return max(map(max, filter(None, maps)), default=0) >> dshift


def _mul_into(acc, t1, t2):
    """Add the product of term maps t1 and t2 into the term map acc.

    Summed coefficients may cancel, so acc can hold zeros, and summed keys
    may carry a guard bit; the caller passes acc through ``_nonzero`` once,
    after its last accumulation, with a bound on its keys' total degree:
    the largest total degree of any t1 it summed plus that of any t2."""
    get = acc.get
    for k1, c1 in t1.items():
        for k2, c2 in t2.items():
            key = k1 + k2
            acc[key] = get(key, 0) + c1 * c2


def _nonzero(acc, guard, degree):
    """acc as a term map: acc itself when no coefficient is 0, else a copy
    without its zeros.

    degree bounds the total degree of every key in acc.  A field never
    exceeds its key's total degree, so a degree up to MAX_EXPONENT proves
    that no key has a bit of guard set; only a larger one runs
    ``_scan_guard`` over the keys, which raises ValueError if an exponent
    was summed past MAX_EXPONENT."""
    if degree > MAX_EXPONENT:
        _scan_guard(acc, guard)
    if 0 in acc.values():
        return {k: c for k, c in acc.items() if c}
    return acc


def _scan_guard(acc, guard):
    """Raises ValueError if a key of acc has a bit of guard set."""
    if reduce(or_, acc, 0) & guard:
        raise ValueError(f"a product exponent exceeds {MAX_EXPONENT}")


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
