"""Out-of-package tracing of socone's layers.

The tracer wraps named public functions and ring dunders of the socone
modules and rebinds every name a socone module imported by name, so calls
made inside the package go through the wrappers too. Nothing under src/
knows about it, and untimed code never carries the wrappers: a worker
installs them only for a traced pass.

Each wrapped call is a span (name, start, end, parent span, job). Spans are
kept in memory and written out when the pass ends. Self time is a span's
duration minus the time its child spans cover. The high-frequency leaf
kernels (scalar and polynomial ring operations, name parsing) are
aggregated in place instead of being kept one by one, which would take
hundreds of megabytes; their counts and self times are still exact.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time

# (module, attribute path, span name). A name ending in "!" marks a wrapped
# callable whose spans are aggregated but not kept individually.
TARGETS = [
    ("scalars", "GaussianRational.__mul__", "scalars.mul!"),
    ("scalars", "GaussianRational.__rmul__", "scalars.mul!"),
    ("scalars", "GaussianRational.__add__", "scalars.add!"),
    ("scalars", "GaussianRational.__radd__", "scalars.add!"),
    ("scalars", "GaussianRational.__sub__", "scalars.add!"),
    ("scalars", "GaussianRational.__rsub__", "scalars.add!"),
    ("scalars", "GaussianRational.__truediv__", "scalars.div!"),
    ("poly", "MultiPoly.__mul__", "poly.mul!"),
    ("poly", "MultiPoly.__rmul__", "poly.mul!"),
    ("poly", "MultiPoly.__add__", "poly.add!"),
    ("poly", "MultiPoly.__radd__", "poly.add!"),
    ("poly", "MultiPoly.subs", "poly.subs"),
    ("poly", "MultiPoly.exact_divide", "poly.exact_divide"),
    ("poly", "series_power", "poly.series_power"),
    ("poly", "exp_series", "poly.exp_series"),
    ("matrices", "DenseMatrix.__mul__", "matrices.mul"),
    ("matrices", "DenseMatrix.__rmul__", "matrices.scale"),
    ("matrices", "DenseMatrix.__add__", "matrices.add"),
    ("matrices", "DenseMatrix.apply", "matrices.apply"),
    ("matrices", "exp_nilpotent", "matrices.exp_nilpotent"),
    ("matrices", "exact_ldl", "matrices.exact_ldl"),
    ("algebra", "build_algebra", "algebra.build_algebra"),
    ("algebra", "build_observables", "algebra.build_observables"),
    ("states", "vacuum", "states.vacuum"),
    ("states", "coherent_state", "states.coherent_state"),
    ("states", "leibniz_from_matrices", "states.leibniz_from_matrices"),
    ("states", "leibniz_closed_form", "states.leibniz_closed_form"),
    ("states", "recover_coordinates", "states.recover_coordinates"),
    ("fock", "gram_matrix", "fock.gram_matrix"),
    ("fock", "build_hat", "fock.build_hat"),
    # FockMatrix.__rmul__ delegates to __mul__, so wrapping it would count twice
    ("fock", "FockMatrix.__mul__", "fock.fock_mul"),
    ("fock", "positivity_probe", "fock.positivity_probe"),
    ("spectral", "exp_zX_vacuum", "spectral.exp_zX_vacuum"),
    ("spectral", "spectral_transform", "spectral.spectral_transform"),
    ("spectral", "moments", "spectral.moments"),
    ("spectral", "moment_positivity_probe", "spectral.moment_positivity_probe"),
    ("berezin", "berezin_transform", "berezin.berezin_transform"),
    ("cli", "main", "cli.main"),
    ("jsonio", "scalar_to_json", "jsonio.encode"),
    ("jsonio", "poly_to_json", "jsonio.encode"),
    ("jsonio", "gaussian_to_json", "jsonio.encode"),
    ("jsonio", "matrix_to_json", "jsonio.encode"),
    ("jsonio", "state_to_json", "jsonio.encode"),
]

# counted only: called on every monomial product and truncation test
COUNTED = [("poly", "group_of"), ("poly", "var_key")]

# per-layer metrics: name -> unit; every "_s" metric is self time
LAYER_UNITS = {
    "scalars.mul_calls": "count",
    "scalars.add_calls": "count",
    "scalars.mul_zero_operand_ratio": "ratio",
    "scalars.max_coeff_bits": "bits",
    "scalars.self_s": "s",
    "poly.mul_calls": "count",
    "poly.mul_pairs": "count",
    "poly.mul_kept_ratio": "ratio",
    "poly.peak_terms": "terms",
    "poly.mul_self_s": "s",
    "poly.name_parse_calls": "count",
    "poly.series_power_calls": "count",
    "poly.series_power_s": "s",
    "poly.subs_calls": "count",
    "poly.subs_s": "s",
    "poly.exact_divide_calls": "count",
    "poly.exact_divide_s": "s",
    "matrices.matmul_calls": "count",
    "matrices.matmul_s": "s",
    "matrices.apply_calls": "count",
    "matrices.apply_s": "s",
    "matrices.exp_nilpotent_calls": "count",
    "matrices.exp_nilpotent_s": "s",
    "matrices.exact_ldl_calls": "count",
    "matrices.exact_ldl_s": "s",
    "matrices.ldl_max_order": "rows",
    "algebra.build_algebra_calls": "count",
    "algebra.build_algebra_repeat_ratio": "ratio",
    "algebra.build_observables_calls": "count",
    "algebra.build_s": "s",
    "states.vacuum_calls": "count",
    "states.coherent_state_calls": "count",
    "states.leibniz_from_matrices_calls": "count",
    "states.leibniz_from_matrices_s": "s",
    "states.leibniz_closed_form_calls": "count",
    "states.leibniz_closed_form_s": "s",
    "states.recover_coordinates_calls": "count",
    "fock.gram_matrix_calls": "count",
    "fock.gram_matrix_repeat_ratio": "ratio",
    "fock.gram_matrix_s": "s",
    "fock.build_hat_calls": "count",
    "fock.build_hat_s": "s",
    "fock.fock_mul_calls": "count",
    "fock.fock_mul_s": "s",
    "fock.positivity_probe_s": "s",
    "spectral.exp_zX_vacuum_calls": "count",
    "spectral.exp_zX_vacuum_s": "s",
    "spectral.spectral_transform_s": "s",
    "spectral.moments_s": "s",
    "spectral.moment_positivity_probe_s": "s",
    "berezin.berezin_transform_calls": "count",
    "berezin.berezin_transform_s": "s",
    "cli.main_s": "s",
    "jsonio.encode_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _coeff_bits(value) -> int:
    re, im = value.re, value.im
    return max(
        re.numerator.bit_length(),
        re.denominator.bit_length(),
        im.numerator.bit_length(),
        im.denominator.bit_length(),
    )


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    """Span recorder for one traced pass; install() patches socone in place."""

    def __init__(self, package):
        self.package = package
        self.clock = time.perf_counter
        self.names = []
        self.name_ids = {}
        self.count = []
        self.self_s = []
        self.stack = []
        self.spans = []
        self.next_id = 1
        self.job = -1
        self.counted = {}
        # work counters measured at the boundaries
        self.zero_operand_muls = 0
        self.max_coeff_bits = 0
        self.mul_pairs = 0
        self.mul_kept = 0
        self.peak_terms = 0
        self.ldl_max_order = 0
        self.algebra_keys = set()
        self.gram_keys = set()

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.count.append(0)
            self.self_s.append(0.0)
        return self.name_ids[name]

    def span(self, name: str, fn, hook=None, pick=None):
        """Wrap fn so each call is a span; pick=(key_fn, names) may choose the
        span name from the arguments."""
        keep = not name.endswith("!")
        nid = self._name_id(name.rstrip("!"))
        alt = None
        if pick is not None:
            key_fn, choices = pick
            alt = {k: self._name_id(v) for k, v in choices.items()}
        stack, clock, spans = self.stack, self.clock, self.spans
        count, self_s = self.count, self.self_s

        def wrapper(*args, **kwargs):
            sid = 0
            if keep:
                sid = self.next_id
                self.next_id = sid + 1
            frame = [0.0, sid]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                own = nid if alt is None else alt[key_fn(args)]
                if not ok or result is not NotImplemented:
                    count[own] += 1
                    if ok and hook is not None:
                        hook(args, kwargs, result)
                self_s[own] += (end - start) - frame[0]
                if keep:
                    spans.append((sid, _parent_id(stack), self.job, own, start, end))
                if stack:
                    # the parent's child time also covers the hook, so hook
                    # time lands in no span's self time
                    stack[-1][0] += clock() - start

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        box = self.counted.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def begin_job(self, index: int) -> None:
        self.job = index

    # -- hooks ---------------------------------------------------------------

    def _scalar_mul(self, args, kwargs, result):
        a, b = args
        if not a or not b:
            self.zero_operand_muls += 1
        bits = _coeff_bits(result)
        if bits > self.max_coeff_bits:
            self.max_coeff_bits = bits

    def _scalar_add(self, args, kwargs, result):
        bits = _coeff_bits(result)
        if bits > self.max_coeff_bits:
            self.max_coeff_bits = bits

    def _poly_mul(self, args, kwargs, result):
        a, b = args
        other = len(b.terms) if isinstance(b, type(a)) else 1
        self.mul_pairs += len(a.terms) * other
        self.mul_kept += len(result.terms)
        self._poly_result(args, kwargs, result)

    def _poly_result(self, args, kwargs, result):
        terms = getattr(result, "terms", None)
        if terms is not None and len(terms) > self.peak_terms:
            self.peak_terms = len(terms)

    def _ldl(self, args, kwargs, result):
        (matrix,) = _bind(self.package.matrices.exact_ldl, args, kwargs)
        self.ldl_max_order = max(self.ldl_max_order, len(matrix))

    def _algebra_key(self, args, kwargs, result):
        self.algebra_keys.add(_bind(self.package.algebra.build_algebra, args, kwargs))

    def _gram_key(self, args, kwargs, result):
        self.gram_keys.add(_bind(self.package.fock.gram_matrix, args, kwargs))

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        pkg = self.package
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == pkg.__name__ or name.startswith(pkg.__name__ + "."))
        ]
        hooks = {
            "scalars.mul!": self._scalar_mul,
            "scalars.add!": self._scalar_add,
            "poly.mul!": self._poly_mul,
            "poly.add!": self._poly_result,
            "poly.subs": self._poly_result,
            "poly.exact_divide": self._poly_result,
            "poly.series_power": self._poly_result,
            "poly.exp_series": self._poly_result,
            "matrices.exact_ldl": self._ldl,
            "algebra.build_algebra": self._algebra_key,
            "fock.gram_matrix": self._gram_key,
        }
        matrix_cls = getattr(pkg.matrices, "DenseMatrix")
        picks = {
            "matrices.mul": (
                lambda args: isinstance(args[1], matrix_cls),
                {True: "matrices.matmul", False: "matrices.scale"},
            )
        }
        for module_name, path, name in TARGETS:
            module = getattr(pkg, module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = getattr(module, owner_path) if owner_path else module
            original = getattr(owner, attr)
            wrapped = self.span(name, original, hooks.get(name), picks.get(name))
            setattr(owner, attr, wrapped)
            if not owner_path:
                _rebind(modules, original, wrapped)
        for module_name, attr in COUNTED:
            module = getattr(pkg, module_name)
            original = getattr(module, attr)
            _rebind(modules, original, self.counter(f"{module_name}.{attr}", original))

    # -- results ---------------------------------------------------------------

    def totals(self) -> dict:
        return {
            name: {"count": self.count[i], "self_s": self.self_s[i]}
            for i, name in enumerate(self.names)
        }

    def metrics(self) -> dict:
        t = self.totals()

        def c(name):
            return t.get(name, {}).get("count", 0)

        def s(*names):
            return sum(t.get(n, {}).get("self_s", 0.0) for n in names)

        mul_calls = c("scalars.mul")
        poly_mul = c("poly.mul")
        algebra_calls = c("algebra.build_algebra")
        gram_calls = c("fock.gram_matrix")
        return {
            "scalars.mul_calls": mul_calls,
            "scalars.add_calls": c("scalars.add"),
            "scalars.mul_zero_operand_ratio": _ratio(self.zero_operand_muls, mul_calls),
            "scalars.max_coeff_bits": self.max_coeff_bits,
            "scalars.self_s": s("scalars.mul", "scalars.add", "scalars.div"),
            "poly.mul_calls": poly_mul,
            "poly.mul_pairs": self.mul_pairs,
            "poly.mul_kept_ratio": _ratio(self.mul_kept, self.mul_pairs),
            "poly.peak_terms": self.peak_terms,
            "poly.mul_self_s": s("poly.mul"),
            "poly.name_parse_calls": sum(box[0] for box in self.counted.values()),
            "poly.series_power_calls": c("poly.series_power"),
            "poly.series_power_s": s("poly.series_power"),
            "poly.subs_calls": c("poly.subs"),
            "poly.subs_s": s("poly.subs"),
            "poly.exact_divide_calls": c("poly.exact_divide"),
            "poly.exact_divide_s": s("poly.exact_divide"),
            "matrices.matmul_calls": c("matrices.matmul"),
            "matrices.matmul_s": s("matrices.matmul"),
            "matrices.apply_calls": c("matrices.apply"),
            "matrices.apply_s": s("matrices.apply"),
            "matrices.exp_nilpotent_calls": c("matrices.exp_nilpotent"),
            "matrices.exp_nilpotent_s": s("matrices.exp_nilpotent"),
            "matrices.exact_ldl_calls": c("matrices.exact_ldl"),
            "matrices.exact_ldl_s": s("matrices.exact_ldl"),
            "matrices.ldl_max_order": self.ldl_max_order,
            "algebra.build_algebra_calls": algebra_calls,
            "algebra.build_algebra_repeat_ratio": _ratio(
                algebra_calls, len(self.algebra_keys)
            ),
            "algebra.build_observables_calls": c("algebra.build_observables"),
            "algebra.build_s": s("algebra.build_algebra", "algebra.build_observables"),
            "states.vacuum_calls": c("states.vacuum"),
            "states.coherent_state_calls": c("states.coherent_state"),
            "states.leibniz_from_matrices_calls": c("states.leibniz_from_matrices"),
            "states.leibniz_from_matrices_s": s("states.leibniz_from_matrices"),
            "states.leibniz_closed_form_calls": c("states.leibniz_closed_form"),
            "states.leibniz_closed_form_s": s("states.leibniz_closed_form"),
            "states.recover_coordinates_calls": c("states.recover_coordinates"),
            "fock.gram_matrix_calls": gram_calls,
            "fock.gram_matrix_repeat_ratio": _ratio(gram_calls, len(self.gram_keys)),
            "fock.gram_matrix_s": s("fock.gram_matrix"),
            "fock.build_hat_calls": c("fock.build_hat"),
            "fock.build_hat_s": s("fock.build_hat"),
            "fock.fock_mul_calls": c("fock.fock_mul"),
            "fock.fock_mul_s": s("fock.fock_mul"),
            "fock.positivity_probe_s": s("fock.positivity_probe"),
            "spectral.exp_zX_vacuum_calls": c("spectral.exp_zX_vacuum"),
            "spectral.exp_zX_vacuum_s": s("spectral.exp_zX_vacuum"),
            "spectral.spectral_transform_s": s("spectral.spectral_transform"),
            "spectral.moments_s": s("spectral.moments"),
            "spectral.moment_positivity_probe_s": s("spectral.moment_positivity_probe"),
            "berezin.berezin_transform_calls": c("berezin.berezin_transform"),
            "berezin.berezin_transform_s": s("berezin.berezin_transform"),
            "cli.main_s": s("cli.main"),
            "jsonio.encode_s": s("jsonio.encode"),
        }

    def write(self, path, job_names) -> None:
        """Write the kept spans and the per-name totals, gzip-compressed."""
        payload = {
            "span_fields": ["id", "parent", "job", "name", "start_s", "end_s"],
            "names": self.names,
            "jobs": job_names,
            "totals": self.totals(),
            "counted": {k: v[0] for k, v in self.counted.items()},
            "spans": self.spans,
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _bind(wrapper, args, kwargs) -> tuple:
    """The call's arguments in parameter order, however they were passed."""
    bound = inspect.signature(wrapper.__wrapped__).bind(*args, **kwargs)
    bound.apply_defaults()
    return tuple(bound.arguments.values())


def _parent_id(stack) -> int:
    for frame in reversed(stack):
        if frame[1]:
            return frame[1]
    return 0


def _rebind(modules, original, wrapped) -> None:
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)
