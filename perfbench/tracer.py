"""Per-layer tracing from outside the package.

Spans are recorded by replacing, for the length of one traced pass, the
public names the package looks up at call time (module globals such as
``experiments.solve_semilinear`` and ``axisym_field.splu``, and methods such
as ``StripNeckExact.u``) with timing wrappers.  The package source stays
unchanged.  Counts come from public return values.  Spans are aggregated in
memory per name: calls, total time and the time covered by child spans, so
a layer's self time is its total minus its children.
"""

from __future__ import annotations

import dataclasses
import os
from time import perf_counter

LU_MODULES = ("axisym_field", "stability", "onephase_geometry")


def _total(span):
    return lambda tr: tr.span(span).s


def _self(span):
    return lambda tr: tr.span(span).s - tr.span(span).child_s


def _calls(span):
    return lambda tr: tr.span(span).calls


def _count(name):
    return lambda tr: tr.counts.get(name, 0)


def _per_call(counter, span):
    return lambda tr: tr.counts.get(counter, 0) / max(1, tr.span(span).calls)


def _lu(mod):
    f, s = f"lu.{mod}.factor", f"lu.{mod}.solve"
    return [
        (f"lu.{mod}.factor_count", "count", "lower", f, _calls(f)),
        (f"lu.{mod}.factor_s", "s", "lower", f, _total(f)),
        (f"lu.{mod}.solve_count", "count", "lower", s, _calls(s)),
        (f"lu.{mod}.solve_s", "s", "lower", s, _total(s)),
        # nonzeros of L + U of the largest factor: the fill that sets peak memory
        (f"lu.{mod}.fill_nnz", "count", "lower", f, _count(f"{f}.nnz")),
    ]


SOLVE, EIGEN, MASKED = (
    "axisym_field.solve_semilinear",
    "stability.linearized_rayleigh_min",
    "onephase_geometry.solve_harmonic_masked",
)
LAPLACIAN, LEVEL = "axisym_field.apply_axisym_laplacian", "reference.level"

# (metric, unit, better, span or counter it is attributed to, reader).  A
# metric whose source saw no call in the traced pass is reported as
# unattributed.  The three trailing metrics are filled in by the runner.
PER_LAYER = [
    (f"{SOLVE}.s", "s", "lower", SOLVE, _total(SOLVE)),
    (f"{SOLVE}.self_s", "s", "lower", SOLVE, _self(SOLVE)),
    ("axisym_field.newton_iters", "count", "lower", SOLVE, _count("newton_iters")),
    # Newton steps whose sup residual fell by less than half: steps at the floor
    ("axisym_field.newton_floor_iters", "count", "lower", SOLVE, _count("newton_floor_iters")),
    *[
        (f"axisym_field.{name}.s", "s", "lower", f"axisym_field.{name}", _total(f"axisym_field.{name}"))
        for name in ("solve_semilinear_1d", "energy")
    ],
    (f"{LAPLACIAN}.s", "s", "lower", LAPLACIAN, _total(LAPLACIAN)),
    (f"{LAPLACIAN}.calls", "count", "lower", LAPLACIAN, _calls(LAPLACIAN)),
    *[m for mod in LU_MODULES for m in _lu(mod)],
    (f"{EIGEN}.s", "s", "lower", EIGEN, _total(EIGEN)),
    (f"{EIGEN}.self_s", "s", "lower", EIGEN, _self(EIGEN)),
    ("stability.assemble_operator.s", "s", "lower", "stability.assemble_operator", _total("stability.assemble_operator")),
    ("stability.eigen_iters", "count", "lower", EIGEN, _count("eigen_iters")),
    ("stability.probe_inequality.s", "s", "lower", "stability.probe_inequality", _total("stability.probe_inequality")),
    (f"{MASKED}.s", "s", "lower", MASKED, _total(MASKED)),
    (f"{MASKED}.self_s", "s", "lower", MASKED, _self(MASKED)),
    ("onephase_geometry.unknowns", "count", "lower", MASKED, _count("unknowns")),
    *[
        (f"onephase_geometry.{name}.s", "s", "lower", f"onephase_geometry.{name}", _total(f"onephase_geometry.{name}"))
        for name in ("normal_derivative_identity", "onephase_stability_form")
    ],
    ("reference.u.s", "s", "lower", "reference.u", _total("reference.u")),
    ("reference.u.calls", "count", "lower", "reference.u", _calls("reference.u")),
    (f"{LEVEL}.s", "s", "lower", LEVEL, _total(LEVEL)),
    (f"{LEVEL}.calls", "count", "lower", LEVEL, _calls(LEVEL)),
    (f"{LEVEL}.points_per_call", "count", "higher", LEVEL, _per_call("level_points", LEVEL)),
    (
        "profile1d.unique_increasing_profile.s", "s", "lower",
        "profile1d.unique_increasing_profile", _total("profile1d.unique_increasing_profile"),
    ),
    ("reaction_terms.eval.calls", "count", "lower", "reaction_terms.eval", _count("reaction_terms.eval")),
    ("reaction_terms.deriv.calls", "count", "lower", "reaction_terms.deriv", _count("reaction_terms.deriv")),
    ("io.s", "s", "lower", "io", _total("io")),
    ("io.bytes", "count", "lower", "io", _count("io_bytes")),
    ("experiments.run.s", "s", "lower", "experiments.run", _total("experiments.run")),
    ("experiments.self_s", "s", "lower", "experiments.run", _self("experiments.run")),
    ("trace.overhead_s", "s", "lower", None, None),
    ("trace.unattributed", "count", "lower", None, None),
    ("defects.known_failures", "count", "lower", None, None),
]


@dataclasses.dataclass
class _Span:
    calls: int = 0
    s: float = 0.0
    child_s: float = 0.0


class _Factor:
    """A SuperLU factor whose ``solve`` is traced; other attributes pass through."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self, lab):
        self.lab = lab  # the package modules and classes to hook, by name
        self.spans: dict[str, _Span] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[float] = []
        self._undo: list = []

    def span(self, name) -> _Span:
        return self.spans.get(name, _Span())

    def calls(self, source) -> int:
        """Calls seen by a span, or by a counter, in the traced pass."""
        return self.spans[source].calls if source in self.spans else self.counts.get(source, 0)

    def metrics(self) -> dict:
        """Per-layer values of the traced pass; the runner adds the rest."""
        return {name: read(self) for name, _unit, _better, _source, read in PER_LAYER if read}

    def unattributed(self) -> list[str]:
        """Spans and counters whose wrapped name saw no call."""
        return sorted({src for *_, src, _read in PER_LAYER if src and not self.calls(src)})

    # -- recording -------------------------------------------------------------

    def _add(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, name, fn, after=None):
        """Wrap ``fn`` so each call records a span ``name``; ``after`` sees the result."""
        rec = self.spans.setdefault(name, _Span())
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                rec.calls += 1
                rec.s += dt
                rec.child_s += stack.pop()
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(result, args)
            return result

        return traced

    def _counter(self, name, fn):
        def counted(*args, **kwargs):
            self._add(name)
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, make):
        orig = getattr(owner, attr, None)
        if orig is None:  # the name is gone: its layer stays unattributed
            return
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    # -- hooks -----------------------------------------------------------------

    def __enter__(self):
        lab, wrap, patch = self.lab, self._wrap, self._patch
        ex = lab["experiments"]
        for attr, name, after in (
            ("run", "experiments.run", None),
            ("solve_semilinear", SOLVE, self._newton),
            ("solve_semilinear_1d", "axisym_field.solve_semilinear_1d", None),
            ("energy", "axisym_field.energy", None),
            ("linearized_rayleigh_min", EIGEN, self._eigen),
            ("probe_inequality", "stability.probe_inequality", None),
            ("solve_harmonic_masked", MASKED, self._masked),
            ("normal_derivative_identity", "onephase_geometry.normal_derivative_identity", None),
            ("onephase_stability_form", "onephase_geometry.onephase_stability_form", None),
            ("unique_increasing_profile", "profile1d.unique_increasing_profile", None),
        ):
            patch(ex, attr, lambda f, name=name, after=after: wrap(name, f, after))
        patch(lab["axisym_field"], "apply_axisym_laplacian", lambda f: wrap(LAPLACIAN, f))
        patch(lab["stability"], "assemble_operator", lambda f: wrap("stability.assemble_operator", f))
        patch(lab["StripNeckExact"], "u", lambda f: wrap("reference.u", f))
        patch(lab["StripNeckExact"], "level", lambda f: wrap(LEVEL, f, self._level))
        patch(ex, "resolve_reaction", self._reaction)
        for mod in LU_MODULES:
            patch(lab[mod], "splu", lambda f, mod=mod: self._splu(mod, f))
        for cls, attr in (
            ("AxiField", "save_csv"),
            ("AxiField", "save_binary"),
            ("SpectralReport", "save_json"),
            ("RevolutionBoundary", "save_csv"),
        ):
            patch(lab[cls], attr, lambda f: wrap("io", f, self._written))
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _newton(self, res, args):
        self._add("newton_iters", res.iterations)
        hist = res.residuals
        self._add("newton_floor_iters", sum(b > 0.5 * a for a, b in zip(hist, hist[1:])))

    def _eigen(self, rep, args):
        self._add("eigen_iters", rep.iterations)

    def _masked(self, sol, args):
        self._add("unknowns", sol.unknowns)

    def _level(self, values, args):
        self._add("level_points", values.size)

    def _written(self, result, args):
        self._add("io_bytes", os.path.getsize(args[1]))

    def _reaction(self, resolve):
        def traced(name):
            term = resolve(name)
            return dataclasses.replace(
                term,
                eval=self._counter("reaction_terms.eval", term.eval),
                deriv=self._counter("reaction_terms.deriv", term.deriv),
            )

        return traced

    def _splu(self, mod, splu):
        factor, solve, fill = f"lu.{mod}.factor", f"lu.{mod}.solve", f"lu.{mod}.factor.nnz"
        self.spans.setdefault(solve, _Span())
        timed = self._wrap(factor, splu)

        def traced(*args, **kwargs):
            lu = timed(*args, **kwargs)
            self.counts[fill] = max(self.counts.get(fill, 0), lu.nnz)
            return _Factor(lu, self._wrap(solve, lu.solve))

        return traced
