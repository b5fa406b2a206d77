"""The ``Scalar``-valued lam arithmetic that the package replaced, kept as the
reference its kernels are pinned against bit for bit.

``scalars.LambdaPoly`` is a read-only view (``c``, ``lam``, ``degree``,
``coeff``); ``rankinlab.numerator`` is the package's one lam arithmetic, on
plain numbers.  :class:`LambdaPoly` here is that view with the arithmetic it
had before (``const``, ``is_zero``, ``+``, unary and binary ``-``, ``*``,
``scale``, ``eval`` and ``==``), and :func:`num_mul`, :func:`series_inverse`
and :func:`negated` are the entry points the package had for the tests
(``laurent._num_mul``, ``laurent._series_inverse``, ``numerator.negated``).
The bodies are the old ones, except that ``==`` accepts any view, so that a
reference compares with what the package hands out.  :func:`lifted` turns
those views into this class.
"""

from rankinlab import numerator as nm
from rankinlab import scalars
from rankinlab.laurent import _lower_num
from rankinlab.numerator import Terms
from rankinlab.scalars import SC_ZERO, Scalar, ScalarLike, SeriesNum, _view


class LambdaPoly(scalars.LambdaPoly):
    """Polynomial in the formal symbol lam with Scalar coefficients."""

    __slots__ = ()

    @classmethod
    def const(cls, value: ScalarLike) -> "LambdaPoly":
        v = Scalar.wrap(value)
        return cls({} if v.is_zero() else {0: v})

    def is_zero(self) -> bool:
        return not self.c

    def __add__(self, other: "LambdaPoly") -> "LambdaPoly":
        out = dict(self.c)
        for k, v in other.c.items():
            cur = out.get(k)
            s = v if cur is None else cur + v
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return LambdaPoly(out)

    def __neg__(self) -> "LambdaPoly":
        return LambdaPoly({k: -v for k, v in self.c.items()})

    def __sub__(self, other: "LambdaPoly") -> "LambdaPoly":
        return self + (-other)

    def __mul__(self, other: "LambdaPoly") -> "LambdaPoly":
        if not self.c or not other.c:
            return LambdaPoly()
        out: dict[int, Scalar] = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                k = k1 + k2
                prod = v1 * v2
                cur = out.get(k)
                s = prod if cur is None else cur + prod
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
        return LambdaPoly(out)

    def scale(self, factor: ScalarLike) -> "LambdaPoly":
        f = Scalar.wrap(factor)
        if f.is_zero():
            return LambdaPoly()
        return LambdaPoly({k: v * f for k, v in self.c.items()})

    def eval(self, lam: ScalarLike) -> Scalar:
        lam = Scalar.wrap(lam)
        total = SC_ZERO
        for k, v in self.c.items():
            total = total + v * lam ** k
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, scalars.LambdaPoly):
            return NotImplemented
        return set(self.c) == set(other.c) and all(self.c[k] == other.c[k] for k in self.c)


def lifted(num: SeriesNum) -> dict:
    """A ``dict[(i, j)] -> view`` numerator with reference LambdaPolys."""
    return {m: LambdaPoly(lp.c) for m, lp in num.items()}


def num_mul(a: SeriesNum, b: SeriesNum, depth: int) -> SeriesNum:
    """Product of two ``dict[(i, j)] -> LambdaPoly`` numerators up to total
    degree depth, through the kernel form."""
    return _view(*nm.mul(_lower_num(a), _lower_num(b), depth))


def series_inverse(num: SeriesNum, depth: int) -> SeriesNum:
    """Inverse of a unit ``dict[(i, j)] -> LambdaPoly`` numerator up to total
    degree depth, through the kernel form."""
    return _view(*nm.inverse(_lower_num(num), depth))


def negated(terms: Terms) -> Terms:
    return {m: {k: -v for k, v in c.items()} for m, c in terms.items()}
