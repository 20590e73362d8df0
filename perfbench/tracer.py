"""Span tracer for the traced run.

`Tracer.install()` wraps every public function of the layer modules and
rebinds the wrapper at every psicert module that binds the function's name
(for example `psi` does `from .inertia import congruence_factorization`,
so wrapping `inertia` alone would miss those calls).  Generator functions
and the hot leaf helpers in `UNWRAPPED` are left alone; their time counts
to their caller.

Each call records one span: name, outer start, inner start, inner end,
outer end, parent span and job id.  Inner bounds enclose the wrapped call;
the outer bounds add the wrapper's bookkeeping and the counters read from
the return value, which is reported as the `trace` layer.  A layer's self
time is its spans' inner time minus the outer time of their children, so
per job the self times of every layer, the benchmark's own share (`bench`)
and `trace` add up to the job's traced wall time.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "polycore", "inertia", "psi", "generators", "bounds", "patterns", "reduction", "diagram")
UNWRAPPED = {"polycore.total_degree", "polycore.add_index", "polycore.unit_index", "polycore.multinomial"}
NAME, OUT0, IN0, IN1, OUT1, PARENT, JOB = range(7)


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _count_product(tracer, result):
    tracer.add("polycore.simplex_product.terms_out", len(result))
    tracer.peak("polycore.coef_bits_max", max((_bits(c) for _, c in result.items()), default=0))


def _count_factor(tracer, result):
    dim = len(result.diag)
    tracer.peak("inertia.factor.dim_max", dim)
    tracer.add("inertia.factor.dim3_sum", dim**3)
    tracer.add("inertia.factor.bumps", sum(1 for entry in result.pivot_log if entry[0] == "bump"))
    tracer.peak("inertia.factor.diag_bits_max", max((_bits(x) for x in result.diag), default=0))


def _count_feasible(tracer, result):
    tracer.add("patterns.feasible.hits", 1 if result[0] else 0)


COUNTERS = {
    "polycore.multiply_by_simplex_power": _count_product,
    "inertia.congruence_factorization": _count_factor,
    "patterns.support_feasible": _count_feasible,
    "patterns.search_max_ratio": lambda t, r: t.add("patterns.search.evaluations", r.evaluations),
    "reduction.partial_row_echelon": lambda t, r: t.add("reduction.steps", len(r[1])),
    "reduction.reconstruction_error": lambda t, r: t.peak("reduction.recon_error_max", r),
}


class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = [None]
        self.job = None
        self.counts: dict = defaultdict(float)
        self.peaks: dict = defaultdict(float)
        self._restore: list = []

    def add(self, key: str, value) -> None:
        self.counts[key] += value

    def peak(self, key: str, value) -> None:
        self.peaks[key] = max(self.peaks[key], value)

    def _wrap(self, name: str, fn):
        spans, stack, counter = self.spans, self.stack, COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, 0.0, 0.0, stack[-1], self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[IN0] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[IN1] = perf_counter()
                stack.pop()
                rec[OUT1] = perf_counter()
                raise
            rec[IN1] = perf_counter()
            stack.pop()
            if counter is not None:
                counter(self, result)
            rec[OUT1] = perf_counter()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "psicert" or key.startswith("psicert.")]
        for layer in LAYERS:
            module = sys.modules[f"psicert.{layer}"]
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNWRAPPED
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                wrapper = self._wrap(name, fn)
                for target in modules:
                    for bound, value in list(vars(target).items()):
                        if value is fn:
                            setattr(target, bound, wrapper)
                            self._restore.append((target, bound, fn))

    def uninstall(self) -> None:
        for target, bound, fn in reversed(self._restore):
            setattr(target, bound, fn)
        self._restore.clear()

    def begin_job(self, job_id) -> list:
        """Open the root span of one job; its self time is the benchmark's own overhead."""
        self.job = job_id
        now = perf_counter()
        rec = ["bench.job", now, now, 0.0, 0.0, None, job_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end_job(self, rec: list) -> None:
        self.stack.pop()
        rec[IN1] = rec[OUT1] = perf_counter()
        self.job = None

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,job\n")
            for rec in self.spans:
                parent = "" if rec[PARENT] is None else rec[PARENT]
                fh.write(f"{rec[NAME]},{rec[OUT0]:.9f},{rec[OUT1]:.9f},{parent},{rec[JOB]}\n")

    def summarize(self, passes: int, scale: float) -> dict:
        """Per-layer metrics, with work and time given per pass of the job list
        and times multiplied by `scale`."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] is not None:
                child[rec[PARENT]] += rec[OUT1] - rec[OUT0]
        self_by_name: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        job_wall: dict = defaultdict(float)
        job_parts: dict = defaultdict(float)
        trace_s = 0.0
        for i, rec in enumerate(spans):
            own = rec[IN1] - rec[IN0] - child[i]
            wrap = (rec[OUT1] - rec[OUT0]) - (rec[IN1] - rec[IN0])
            self_by_name[rec[NAME]] += own
            calls[rec[NAME]] += 1
            trace_s += wrap
            job_parts[rec[JOB]] += own + wrap
            if rec[PARENT] is None:
                job_wall[rec[JOB]] += rec[OUT1] - rec[OUT0]

        def under(i: int, prefixes) -> bool:
            p = spans[i][PARENT]
            while p is not None:
                if spans[p][NAME].startswith(prefixes):
                    return True
                p = spans[p][PARENT]
            return False

        def parent_is(i: int, name: str) -> bool:
            p = spans[i][PARENT]
            return p is not None and spans[p][NAME] == name

        layer_self: dict = defaultdict(float)
        for name, value in self_by_name.items():
            layer_self[name.split(".")[0]] += value
        verdicts = sum(
            1
            for i, rec in enumerate(spans)
            if rec[NAME] in ("inertia.inertia", "reduction.partial_row_echelon")
            or (rec[NAME] == "psi.in_psi_hermitian" and not under(i, ("reduction.",)))
        )
        powers = sum(1 for i, rec in enumerate(spans) if rec[NAME] == "psi.in_psi" and parent_is(i, "psi.min_psi_index"))
        qk = sum(
            1 for i, rec in enumerate(spans)
            if rec[NAME] == "psi.in_psi_diagonal" and parent_is(i, "generators.find_qk_epsilon")
        )
        feasible = calls["patterns.support_feasible"]
        per = 1.0 / passes
        out = {f"{layer}.self_s": layer_self[layer] * per for layer in LAYERS + ("bench",)}
        out["trace.self_s"] = trace_s * per
        out.update(
            {
                "cli.calls": calls["cli.run"] * per,
                "polycore.json.self_s": sum(
                    self_by_name[f"polycore.{f}"]
                    for f in ("poly_to_json", "poly_from_json", "hermitian_to_json", "hermitian_from_json")
                ) * per,
                "polycore.simplex_product.calls": calls["polycore.multiply_by_simplex_power"] * per,
                "polycore.simplex_product.self_s": self_by_name["polycore.multiply_by_simplex_power"] * per,
                "polycore.simplex_product.terms_out": self.counts["polycore.simplex_product.terms_out"] * per,
                "polycore.coef_bits_max": self.peaks["polycore.coef_bits_max"],
                "psi.min_index.calls": calls["psi.min_psi_index"] * per,
                "psi.min_index.powers_tried": powers * per,
                "psi.diagonal.calls": calls["psi.in_psi_diagonal"] * per,
                "psi.diagonal.self_s": self_by_name["psi.in_psi_diagonal"] * per,
                "generators.qk.membership_calls": qk * per,
                "bounds.certificate.self_s": self_by_name["bounds.pigeonhole_certificate"] * per,
                "inertia.factor.calls": calls["inertia.congruence_factorization"] * per,
                "inertia.factor.self_s": self_by_name["inertia.congruence_factorization"] * per,
                "inertia.factor.dim_max": self.peaks["inertia.factor.dim_max"],
                "inertia.factor.dim3_sum": self.counts["inertia.factor.dim3_sum"] * per,
                "inertia.factor.bumps": self.counts["inertia.factor.bumps"] * per,
                "inertia.factor.diag_bits_max": self.peaks["inertia.factor.diag_bits_max"],
                "inertia.factor_per_verdict": (
                    calls["inertia.congruence_factorization"] / verdicts if verdicts else 0.0
                ),
                "psi.hermitian.calls": calls["psi.in_psi_hermitian"] * per,
                "psi.hermitian.self_s": self_by_name["psi.in_psi_hermitian"] * per,
                "inertia.coefficient_matrix.self_s": self_by_name["inertia.coefficient_matrix"] * per,
                "inertia.quadratic_form.self_s": self_by_name["inertia.quadratic_form"] * per,
                "reduction.decompose.self_s": self_by_name["reduction.decompose"] * per,
                "reduction.echelon.self_s": self_by_name["reduction.partial_row_echelon"] * per,
                "reduction.steps": self.counts["reduction.steps"] * per,
                "reduction.recon_error_max": self.peaks["reduction.recon_error_max"],
                "patterns.feasible.calls": feasible * per,
                "patterns.feasible.self_s": self_by_name["patterns.support_feasible"] * per,
                "patterns.feasible.hit_ratio": (
                    self.counts["patterns.feasible.hits"] / feasible if feasible else 0.0
                ),
                "patterns.search.self_s": self_by_name["patterns.search_max_ratio"] * per,
                "patterns.search.evaluations": self.counts["patterns.search.evaluations"] * per,
                "patterns.realize.self_s": (
                    self_by_name["patterns.realize_magnitudes"] + self_by_name["patterns.realize_signs"]
                ) * per,
                "diagram.render.self_s": self_by_name["diagram.render_diagram"] * per,
                "trace.job_sum_error_max": max(
                    (abs(job_parts[j] - wall) / wall for j, wall in job_wall.items() if wall > 0), default=0.0
                ),
            }
        )
        for key in out:
            if key.endswith(".self_s"):
                out[key] *= scale
        return out
