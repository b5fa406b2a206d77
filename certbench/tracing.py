"""Per-layer tracing built from wrappers that live only in the benchmark.

Installing a :class:`Tracer` replaces, for the duration of a ``with`` block,

* the arithmetic methods of ``Scalar``, ``Poly2``, ``RationalFunction2`` and
  ``LaurentSeries2`` on their classes, and
* every public function defined in a layer module, in *every* ``rankinlab``
  namespace that bound it by name (``degenerate`` imports
  ``ls_inverse_regular``, ``zetaint`` imports ``zeta_local``, and so on),

with wrappers that push a span on a stack.  A span's self time is its
duration minus the time covered by the spans it caused, and is charged to the
module (layer) that defined the wrapped callable.  The wrappers also count
calls and the work measures named in ``certbench/README.md``.  Bookkeeping
done outside the wrapped call (pair counts, coefficient scans) is charged to
no layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("scalars", "exactalg", "localdata", "laurent", "whittaker", "zetaint", "degenerate")

CLASS_METHODS = {
    ("scalars", "Scalar"): (
        "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "inverse", "__truediv__", "__rtruediv__", "__pow__", "conjugate", "abs2"),
    ("exactalg", "Poly2"): (
        "__add__", "__neg__", "__sub__", "__mul__", "scale", "shift", "__pow__", "eval",
        "to_numeric"),
    ("exactalg", "RationalFunction2"): (
        "__mul__", "__rmul__", "inverse", "__truediv__", "__neg__", "__add__", "__radd__",
        "__sub__", "__pow__", "equals", "canonical", "with_factor", "den_expanded", "eval_t",
        "eval_zw", "to_numeric"),
    ("laurent", "LaurentSeries2"): (
        "__mul__", "__add__", "__sub__", "__neg__", "scale", "flip", "normalized",
        "split_singular", "singular_part", "constant_term", "from_direction", "exp_direction"),
}

# results leaving these layers are scanned for coefficient size
INSPECTED = ("exactalg", "laurent")

ORACLE_TERMS = {
    "whittaker.weighted_integral_oracle": "whittaker.oracle.terms",
    "whittaker.whittaker_norm_sq_oracle": "whittaker.oracle.terms",
    "zetaint.rs_local_oracle": "zetaint.oracle.terms",
    "zetaint.reg_local_oracle": "zetaint.oracle.terms",
}

CONTEXTS = ("zetaint.psi_closed", "zetaint.psi_oracle")


def _scalar_bits(s) -> int:
    if s.z is not None:
        return 0
    bits = max(s.a.numerator.bit_length(), s.a.denominator.bit_length())
    if s.b:
        bits = max(bits, s.b.numerator.bit_length(), s.b.denominator.bit_length())
    return bits


class Tracer:
    """Span stack, self times and work counts for one traced pass."""

    def __init__(self):
        self.stack: list[list] = []          # [layer, time covered by child spans]
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()      # per wrapped callable, "layer.qualname"
        self.work: Counter = Counter()       # pairs, terms, repeats
        self.seen: dict[str, set] = defaultdict(set)
        self.max_bits = 0
        self.max_terms = 0
        self.max_lam_degree = 0
        self.context: str | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._modules = {name: importlib.import_module(f"rankinlab.{name}") for name in LAYERS}

    # -- installation ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for (layer, cls_name), names in CLASS_METHODS.items():
            cls = getattr(self._modules[layer], cls_name)
            for name in names:
                raw = cls.__dict__[name]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, layer,
                                                     f"{layer}.{cls_name}.{name}"))
                else:
                    wrapped = self._wrap(raw, layer, f"{layer}.{cls_name}.{name}")
                self._patch(cls, name, wrapped)
        wrappers = {}
        for layer, module in self._modules.items():
            for name, value in vars(module).items():
                if (isinstance(value, types.FunctionType) and not name.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = self._wrap(value, layer, f"{layer}.{name}")
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "rankinlab" or n.startswith("rankinlab.")]
        for namespace in namespaces:
            for name, value in list(vars(namespace).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(namespace, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, wrapper) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, layer: str, key: str):
        stack, self_s, calls = self.stack, self.self_s, self.calls
        clock = time.perf_counter
        before = self._before_hook(fn, key)
        inspect_result = layer in INSPECTED
        context = key if key in CONTEXTS else None
        zetaint = layer == "zetaint"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            calls[key] += 1
            if before is not None:
                b0 = clock()
                before(args, kwargs)
                if stack:
                    stack[-1][1] += clock() - b0
            saved = self.context
            if context is not None:
                self.context = context
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                own = elapsed - frame[1]
                self_s[layer] += own
                if stack:
                    stack[-1][1] += elapsed
                if zetaint and self.context is not None:
                    self_s[self.context] += own
                self.context = saved
            if inspect_result and (not stack or stack[-1][0] != layer):
                i0 = clock()
                self._inspect(result)
                if stack:
                    stack[-1][1] += clock() - i0
            return result
        return span

    def _before_hook(self, fn, key: str):
        work, seen = self.work, self.seen
        if key == "exactalg.Poly2.__mul__":
            def hook(args, kwargs):
                work["exactalg.poly_mul.pairs"] += len(args[0].c) * len(args[1].c)
            return hook
        if key == "laurent.LaurentSeries2.__mul__":
            def hook(args, kwargs):
                a, b = args
                pairs, inside = _window_pairs(a, b)
                work["laurent.mul.pairs"] += pairs
                work["laurent.mul.pairs_in_window"] += inside
            return hook
        if key in ("localdata.zeta_local", "degenerate.build_h"):
            sig = inspect.signature(fn)

            def hook(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                ident = repr(sorted(bound.arguments.items(), key=lambda kv: kv[0]))
                if ident in seen[key]:
                    work[f"{key}.repeats"] += 1
                else:
                    seen[key].add(ident)
            return hook
        if key in ORACLE_TERMS:
            sig = inspect.signature(fn)

            def hook(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                work[ORACLE_TERMS[key]] += bound.arguments["terms"]
            return hook
        return None

    # -- coefficient scans ----------------------------------------------------

    def _inspect(self, value) -> None:
        cls = type(value).__name__
        if cls == "Scalar":
            self.max_bits = max(self.max_bits, _scalar_bits(value))
        elif cls == "Poly2":
            self._scan(value.c.values())
        elif cls == "RationalFunction2":
            self._scan(value.num.c.values())
            self._scan((value.scale,))
            for poly, _ in value.fac.values():
                self._scan(poly.c.values())
        elif cls == "LambdaPoly":
            self._scan(value.c.values())
            self.max_lam_degree = max(self.max_lam_degree, value.degree())
        elif cls == "LaurentSeries2":
            self.max_terms = max(self.max_terms, len(value.num))
            for lp in value.num.values():
                self._scan(lp.c.values())
                self.max_lam_degree = max(self.max_lam_degree, lp.degree())
        elif isinstance(value, tuple):
            for item in value:
                self._inspect(item)

    def _scan(self, scalars) -> None:
        best = self.max_bits
        for s in scalars:
            bits = _scalar_bits(s)
            if bits > best:
                best = bits
        self.max_bits = best

    # -- report ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and self times, keyed by the names in BENCHMARK.json."""
        calls, work, self_s = self.calls, self.work, self.self_s

        def layer_calls(layer):
            return sum(n for key, n in calls.items() if key.startswith(f"{layer}."))

        def frac(part, whole):
            return part / whole if whole else 0.0

        zeta_calls = calls["localdata.zeta_local"]
        build_h_calls = calls["degenerate.build_h"]
        out = {
            "scalars.ops": sum(n for key, n in calls.items() if key.startswith("scalars.Scalar.")),
            "scalars.self_s": self_s["scalars"],
            "scalars.max_bits": self.max_bits,
            "exactalg.calls": layer_calls("exactalg"),
            "exactalg.self_s": self_s["exactalg"],
            "exactalg.equals.calls": calls["exactalg.RationalFunction2.equals"],
            "exactalg.canonical.calls": calls["exactalg.RationalFunction2.canonical"],
            "exactalg.gcd.calls": calls["exactalg.poly_gcd"],
            "exactalg.poly_mul.pairs": work["exactalg.poly_mul.pairs"],
            "localdata.zeta_local.calls": zeta_calls,
            "localdata.zeta_local.repeat_frac":
                frac(work["localdata.zeta_local.repeats"], zeta_calls),
            "localdata.self_s": self_s["localdata"],
            "laurent.mul.calls": calls["laurent.LaurentSeries2.__mul__"],
            "laurent.mul.pairs": work["laurent.mul.pairs"],
            "laurent.mul.pair_yield":
                frac(work["laurent.mul.pairs_in_window"], work["laurent.mul.pairs"]),
            "laurent.split.calls": (calls["laurent.LaurentSeries2.split_singular"]
                                    + calls["laurent.LaurentSeries2.normalized"]),
            "laurent.from_rational.calls": calls["laurent.ls_from_rational"],
            "laurent.max_terms": self.max_terms,
            "laurent.max_lam_degree": self.max_lam_degree,
            "laurent.self_s": self_s["laurent"],
            "whittaker.value.calls": calls["whittaker.whittaker_value"],
            "whittaker.oracle.terms": work["whittaker.oracle.terms"],
            "whittaker.self_s": self_s["whittaker"],
            "zetaint.oracle.terms": work["zetaint.oracle.terms"],
            "zetaint.psi_closed.self_s": self_s["zetaint.psi_closed"],
            "zetaint.psi_oracle.self_s": self_s["zetaint.psi_oracle"],
            "zetaint.self_s": self_s["zetaint"],
            "degenerate.build_h.calls": build_h_calls,
            "degenerate.build_h.repeat_frac":
                frac(work["degenerate.build_h.repeats"], build_h_calls),
            "degenerate.build_G.calls": calls["degenerate.build_G"],
            "degenerate.self_s": self_s["degenerate"],
        }
        return out


def _window_pairs(a, b) -> tuple[int, int]:
    """Coefficient pairs of a LaurentSeries2 product, and those inside the
    truncation window the product keeps (same depth rule as ``__mul__``)."""
    da = Counter(i + j for i, j in a.num)
    db = Counter(i + j for i, j in b.num)
    val_a = min(da, default=0)
    val_b = min(db, default=0)
    depth = min(a.depth + val_b, b.depth + val_a)
    inside = sum(na * nb for ka, na in da.items() for kb, nb in db.items() if ka + kb <= depth)
    return len(a.num) * len(b.num), inside
